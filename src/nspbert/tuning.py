"""Few-shot training: NSP-tuning with coupled instances and BCE, its
ablation variants, and the plain fine-tuning baseline.

Each labeled sample becomes |Y| binary instances: the gold verbalization
with target 1 and every other label with target 0.  Every variant,
fine-tuning included, trains in `_train` on the inputs `TuneResult.encode`
builds for prediction, a sample's |Y| candidates or, under fine-tuning, its
untemplated text, with one 0/1 target row per sample.  One batching rule
serves them all: shuffle the units, take `batch_size` of them per batch.  A
coupled variant's unit is a sample, so its instances share a batch; the
decoupled variant's unit is one instance.  The final model is the best
dev-accuracy entry of the starting weights and the trained epochs; an epoch
replaces the starting weights only if it scores strictly higher on dev.

Every scoring path runs through `run_head`, whose head forwards each chunk
of inputs itself, asking `forward_batch` for the rows it reads, and every
label prediction is `predict_candidates_batch`'s argmax over an example's
head scores.  Candidate prompts are encoded by `encode_candidates` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .model import ISNEXT, EncoderModel, _trunc_normal, init_arrays
from .prompting import PREFIX, render_single
from .tensor import Tensor
from .tokenizer import Tokenizer

CHUNK = 64  # examples per scoring forward

VARIANTS = (
    "coupled_bce",
    "decoupled_bce",
    "coupled_softmax",
    "reinit_sigmoid_head",
    "linear_head_softmax",
)


@dataclass
class TuningConfig:
    epochs: int = 10
    lr: float = 2e-5
    batch_size: int = 8  # parent samples per batch
    variant: str = "coupled_bce"
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValidationError("batch size must be >= 1")
        if self.variant not in VARIANTS + ("fine_tune",):
            raise ValidationError(f"unknown variant {self.variant!r}")


# ---------------------------------------------------------------------------
# Encoding and batched scoring


def encode_candidates(text, task, tok):
    """One encoded (text, prompt) pair per task label, in label order."""
    pairs = []
    text_in_b = task.template.position == PREFIX
    for j, label in enumerate(task.labels):
        try:
            a, b = render_single(text, task.template, task.verbalizer, label)
            pairs.append(tok.encode_pair(a, b, task.max_len, text_in_b))
        except ValidationError as e:
            raise ValidationError(f"candidate {j} ({label!r}): the prompt {e}") from e
    return pairs


def isnext_head(model, batch):
    """IsNext probability of each input."""
    return model.nsp_probs(model.forward_batch(batch)).data[:, ISNEXT]


def _fresh_logits(hidden, extra):
    """Logits of the fresh linear head {"head_w", "head_b"} on [CLS] states."""
    return T.add(T.matmul(hidden, T.transpose(extra["head_w"], (1, 0))), extra["head_b"])


def _own_logits(hidden, extra):
    """Candidate j's fresh-head output j on its own input; the inputs must
    be whole candidate sets in label order."""
    logits = _fresh_logits(hidden, extra)
    rows = np.arange(logits.shape[0])
    return T.gather_positions(logits, rows, rows % logits.shape[1])


# The variants scored by a fresh head, and the scores each input gets.
_FRESH_SCORES = {"fine_tune": _fresh_logits, "linear_head_softmax": _own_logits}


def run_head(model, inputs, head, chunk):
    """head(model, batch) of encoded inputs, `chunk` at a time without
    gradients, concatenated into one numpy array."""
    out = []
    with T.no_grad():
        for batch in (inputs[i : i + chunk] for i in range(0, len(inputs), chunk)):
            out.append(head(model, batch))
    return np.concatenate(out) if out else np.empty(0)


# ---------------------------------------------------------------------------
# Prediction


def _candidate_inputs(examples, task, vocab):
    """Every example's encoded candidates, |Y| per example in label order."""
    tok = Tokenizer(vocab)
    return [p for ex in examples for p in encode_candidates(ex.text_a, task, tok)]


def predict_candidates_batch(model, vocab, examples, task, head=isnext_head, pairs=None):
    """Per example, the label of its highest head score: one per candidate, or
    a |Y|-wide row per single input.  CHUNK * |Y| inputs share a forward.
    `pairs` are the examples' inputs, NSP candidates encoded here if not given."""
    if pairs is None:
        pairs = _candidate_inputs(examples, task, vocab)
    n_labels = len(task.labels)
    scores = run_head(model, pairs, head, CHUNK * n_labels).reshape(-1, n_labels)
    return [task.labels[i] for i in scores.argmax(axis=1)]


def accuracy(preds, examples):
    return sum(p == ex.label for p, ex in zip(preds, examples)) / len(examples)


@dataclass
class TuneResult:
    model: EncoderModel
    variant: str
    # Dicts of epoch, train_loss, dev_acc: with a dev set, entry 0 holds the
    # starting weights (epoch 0, train_loss None), then trained epochs 1..E.
    history: list
    best_epoch: int  # index into history of the weights kept; -1 without dev
    extra: dict = field(default_factory=dict)  # fresh-head tensors, if any

    def encode(self, examples, task, vocab):
        """The inputs `predict` scores for `examples`, to pass it as `inputs`
        when the same examples are predicted again."""
        if self.variant == "fine_tune":
            # Plain classification head on [CLS] of the untemplated input.
            tok = Tokenizer(vocab)
            return [tok.encode_single(ex.text_a, task.max_len) for ex in examples]
        return _candidate_inputs(examples, task, vocab)

    def predict(self, examples, task, vocab, inputs=None):
        if inputs is None:
            inputs = self.encode(examples, task, vocab)
        score = _FRESH_SCORES.get(self.variant)
        head = isnext_head if score is None else (
            lambda model, batch: score(model.forward_batch(batch), self.extra).data)
        return predict_candidates_batch(self.model, vocab, examples, task, head=head,
                                        pairs=inputs)


# ---------------------------------------------------------------------------
# Training
#
# A loss function maps (model, fresh head, [CLS] states, targets) to a scalar
# loss tensor.  Targets are 0/1 rows marking the gold label: one row of |Y|
# per sample, or one 1-wide row per instance in decoupled batches.


def _bce_loss(model, extra, hidden, targets):
    p = T.take_index(model.nsp_probs(hidden), ISNEXT, axis=1)
    return T.binary_cross_entropy(p, targets.reshape(-1))


def _softmax_loss(model, extra, hidden, targets):
    logits = T.take_index(model.nsp_logits(hidden), ISNEXT, axis=1)
    return T.cross_entropy(T.reshape(logits, targets.shape), targets.argmax(axis=1))


def _linear_head_loss(model, extra, hidden, targets):
    scores = _own_logits(hidden, extra)
    return T.cross_entropy(T.reshape(scores, targets.shape), targets.argmax(axis=1))


def _class_loss(model, extra, hidden, targets):
    return T.cross_entropy(_fresh_logits(hidden, extra), targets.argmax(axis=1))


_LOSSES = {
    "coupled_bce": _bce_loss,
    "decoupled_bce": _bce_loss,
    "coupled_softmax": _softmax_loss,
    "reinit_sigmoid_head": _bce_loss,
    "linear_head_softmax": _linear_head_loss,
    "fine_tune": _class_loss,
}


def _new_head(model, n_labels, seed):
    head_rng = np.random.default_rng(seed + 1)
    return {
        "head_w": Tensor(_trunc_normal(head_rng, (n_labels, model.config.hidden)),
                         requires_grad=True),
        "head_b": Tensor(np.zeros(n_labels, dtype=np.float32), requires_grad=True),
    }


def _train(model, train, dev, task, vocab, cfg):
    """Adam on the model and its fresh head for cfg.epochs epochs; returns a
    TuneResult holding the weights of the best dev-accuracy history entry.

    Each epoch shuffles the training units and takes cfg.batch_size of them
    per batch: a unit is a sample's |Y| candidates, or its single input under
    fine-tuning, or one instance under decoupled_bce (batch_size * |Y| per
    batch).  With a dev set the starting weights are scored first and kept
    unless an epoch beats them strictly, so tuning never ends below them on
    dev; ties go to the earliest entry.  With no dev set the final weights
    are kept, the history holds trained epochs only, and best_epoch stays -1.
    """
    for ex in train:
        if ex.label not in task.labels:
            raise ValidationError(f"gold label {ex.label!r} not in task labels")
    n_labels = len(task.labels)
    extra = {}
    if cfg.variant == "reinit_sigmoid_head":
        fresh = init_arrays(model.config, np.random.default_rng(cfg.seed + 1), "nsp.")
        for name, arr in fresh.items():
            model.params[name].data = arr
    elif cfg.variant in _FRESH_SCORES:
        extra = _new_head(model, n_labels, cfg.seed)
    result = TuneResult(model, cfg.variant, history=[], best_epoch=-1, extra=extra)

    inputs = result.encode(train, task, vocab)
    targets = np.array([[label == ex.label for label in task.labels] for ex in train],
                       dtype=np.float64).reshape(len(train), n_labels)
    batch_size, per_unit = cfg.batch_size, n_labels
    if cfg.variant == "decoupled_bce":
        targets, batch_size, per_unit = targets.reshape(-1, 1), batch_size * n_labels, 1
    elif cfg.variant == "fine_tune":
        per_unit = 1

    loss_fn = _LOSSES[cfg.variant]
    params = {**model.params, **extra}
    opt = T.Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    best_acc, best = -1.0, None
    dev_inputs = result.encode(dev, task, vocab) if dev else None
    # With a dev set, epoch 0 trains nothing: it scores the starting weights,
    # and each epoch's number is its index in the history.
    for epoch in range(0 if dev else 1, cfg.epochs + 1):
        epoch_losses = []
        order = rng.permutation(len(targets)) if epoch else []
        for i in range(0, len(order), batch_size):
            idx = order[i : i + batch_size]
            batch = [inputs[j * per_unit + c] for j in idx for c in range(per_unit)]
            loss = loss_fn(model, extra, model.forward_batch(batch), targets[idx])
            epoch_losses.append(opt.minimize(loss, f"{cfg.variant} epoch {epoch}"))
        dev_acc = (accuracy(result.predict(dev, task, vocab, dev_inputs), dev) if dev
                   else float("nan"))
        result.history.append({"epoch": epoch,
                               "train_loss": float(np.mean(epoch_losses)) if epoch else None,
                               "dev_acc": dev_acc})
        if dev and dev_acc > best_acc:
            best_acc, result.best_epoch = dev_acc, epoch
            best = {k: p.data.copy() for k, p in params.items()}
    if best is not None:
        for k, v in best.items():
            params[k].data = v
    return result


def nsp_tune(model, train, dev, task, vocab, cfg):
    """Train in place; returns a TuneResult holding the best-dev-epoch weights."""
    task.check_mode("nsp_tune")
    if cfg.variant not in VARIANTS:
        raise ValidationError(f"variant {cfg.variant!r} not handled by nsp_tune")
    return _train(model, train, dev, task, vocab, cfg)


def fine_tune_baseline(model, train, dev, task, vocab, cfg):
    """Fresh |Y|-way softmax head on [CLS]; no templates."""
    return _train(model, train, dev, task, vocab, replace(cfg, variant="fine_tune"))
