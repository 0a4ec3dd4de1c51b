"""Few-shot training: NSP-tuning with coupled instances and BCE, its
ablation variants, and the plain fine-tuning baseline.

Each labeled sample becomes |Y| binary instances: the gold verbalization
with target 1 and every other label with target 0.  In coupled variants
a sample's instances always share a training batch; the decoupled
variant shuffles instances globally.  The final model is the best
dev-accuracy epoch.

Every scoring and prediction path in the package forwards through
`run_head`, a batched no-grad forward that reads one head's output, and
candidate prompts are encoded by `encode_candidates` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DivergenceError, ValidationError
from .model import ISNEXT, EncoderModel, _trunc_normal, init_arrays
from .prompting import PREFIX, render_single
from .tensor import Tensor
from .tokenizer import Tokenizer

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


def isnext_head(model, hidden):
    """IsNext probability of each input."""
    return model.nsp_probs(hidden).data[:, ISNEXT]


def nsp_head(model, hidden):
    """(IsNext, NotNext) probabilities of each input."""
    return model.nsp_probs(hidden).data


def _fresh_logits(model, hidden, extra):
    """Logits of the fresh linear head {"head_w", "head_b"} on [CLS]."""
    h = model.cls_hidden(hidden)
    return T.add(T.matmul(h, T.transpose(extra["head_w"], (1, 0))), extra["head_b"])


def own_logit_head(extra):
    """Fresh-head score of each candidate: candidate j reads output j on its
    own input, so chunks must hold whole candidate sets."""
    def head(model, hidden):
        logits = _fresh_logits(model, hidden, extra).data
        rows = np.arange(len(logits))
        return logits[rows, rows % logits.shape[1]]
    return head


def run_head(model, inputs, head, chunk):
    """head(model, hidden) of encoded inputs, forwarded `chunk` at a time
    without gradients, concatenated into one numpy array."""
    out = []
    with T.no_grad():
        for start in range(0, len(inputs), chunk):
            out.append(head(model, model.forward_batch(inputs[start : start + chunk])))
    return np.concatenate(out) if out else np.empty(0)


# ---------------------------------------------------------------------------
# Prediction


def _candidate_inputs(examples, task, vocab):
    """Every example's encoded candidates, |Y| per example in label order."""
    tok = Tokenizer(vocab)
    return [p for ex in examples for p in encode_candidates(ex.text_a, task, tok)]


def predict_candidates_batch(model, vocab, examples, task, chunk=64, head=isnext_head,
                             pairs=None):
    """Candidates-contrast prediction: per example, the label whose candidate
    scores highest; `chunk` examples' candidates share a forward pass.  `pairs`
    are the examples' encoded candidates, encoded here when not given."""
    if pairs is None:
        pairs = _candidate_inputs(examples, task, vocab)
    n_labels = len(task.labels)
    scores = run_head(model, pairs, head, chunk * n_labels).reshape(-1, n_labels)
    return [task.labels[i] for i in scores.argmax(axis=1)]


def accuracy(preds, examples):
    return sum(p == ex.label for p, ex in zip(preds, examples)) / len(examples)


@dataclass
class TuneResult:
    model: EncoderModel
    variant: str
    history: list  # per-epoch dicts: epoch, train_loss, dev_acc
    best_epoch: int
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
        if self.variant == "fine_tune":
            logits = run_head(self.model, inputs,
                              lambda model, h: _fresh_logits(model, h, self.extra).data, 128)
            return [task.labels[i] for i in logits.argmax(axis=1)]
        head = isnext_head
        if self.variant == "linear_head_softmax":
            head = own_logit_head(self.extra)
        return predict_candidates_batch(self.model, vocab, examples, task, head=head,
                                        pairs=inputs)


# ---------------------------------------------------------------------------
# Training
#
# A loss function maps (model, fresh head, hidden states, targets) to a scalar
# loss tensor.  NSP-tuning targets are 0/1 per instance, one row per parent
# sample in coupled batches; fine-tuning targets are gold label indices.


def _bce_loss(model, extra, hidden, targets):
    p = T.take_index(model.nsp_probs(hidden), ISNEXT, axis=1)
    return T.binary_cross_entropy(p, targets.reshape(-1))


def _softmax_loss(model, extra, hidden, targets):
    logits = T.take_index(model.nsp_logits(hidden), ISNEXT, axis=1)
    return T.cross_entropy(T.reshape(logits, targets.shape), targets.argmax(axis=1))


def _linear_head_loss(model, extra, hidden, targets):
    n_labels = targets.shape[1]
    cube = T.reshape(_fresh_logits(model, hidden, extra), (-1, n_labels, n_labels))
    eye = Tensor(np.eye(n_labels, dtype=np.float32))
    scores = T.sum_all(T.mul(cube, eye), axis=-1)
    return T.cross_entropy(scores, targets.argmax(axis=1))


def _class_loss(model, extra, hidden, targets):
    return T.cross_entropy(_fresh_logits(model, hidden, extra), targets)


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


def _train_loop(result, epoch_batches, dev, task, vocab, cfg):
    """Adam on the model and its fresh head for cfg.epochs epochs; returns
    `result` with the weights of the best dev-accuracy epoch restored.

    epoch_batches() draws one epoch of (inputs, targets) batches.  With no
    dev set the final weights are kept and best_epoch stays -1.
    """
    model, extra = result.model, result.extra
    loss_fn = _LOSSES[result.variant]
    params = {**model.params, **extra}
    opt = T.Adam(params, lr=cfg.lr)
    best_acc, best = -1.0, None
    dev_inputs = result.encode(dev, task, vocab) if dev else None
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for inputs, targets in epoch_batches():
            loss = loss_fn(model, extra, model.forward_batch(inputs), targets)
            if not np.isfinite(loss.item()):
                raise DivergenceError(
                    f"non-finite loss during {result.variant} epoch {epoch}: {loss.item()}")
            opt.zero_grad()
            T.backward(loss)
            opt.step()
            epoch_losses.append(loss.item())
        dev_acc = (accuracy(result.predict(dev, task, vocab, dev_inputs), dev) if dev
                   else float("nan"))
        result.history.append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses)),
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
    tok = Tokenizer(vocab)
    rng = np.random.default_rng(cfg.seed)
    n_labels = len(task.labels)
    # Per parent sample: its |Y| candidates, and a 0/1 target row that marks
    # the gold label's candidate.
    candidates = []
    for ex in train:
        if ex.label not in task.labels:
            raise ValidationError(f"gold label {ex.label!r} not in task labels")
        candidates.append(encode_candidates(ex.text_a, task, tok))
    targets = np.array([[label == ex.label for label in task.labels] for ex in train],
                       dtype=np.float64).reshape(len(train), n_labels)

    extra = {}
    if cfg.variant == "reinit_sigmoid_head":
        fresh = init_arrays(model.config, np.random.default_rng(cfg.seed + 1), "nsp.")
        for name, arr in fresh.items():
            model.params[name].data = arr
    elif cfg.variant == "linear_head_softmax":
        extra = _new_head(model, n_labels, cfg.seed)

    def epoch_batches():
        if cfg.variant == "decoupled_bce":
            flat = [p for group in candidates for p in group]
            order = list(range(len(flat)))
            rng.shuffle(order)
            size = cfg.batch_size * n_labels
            for i in range(0, len(order), size):
                idx = order[i : i + size]
                yield [flat[j] for j in idx], targets.reshape(-1)[idx]
        else:
            order = rng.permutation(len(candidates))
            for i in range(0, len(order), cfg.batch_size):
                idx = order[i : i + cfg.batch_size]
                yield [p for j in idx for p in candidates[j]], targets[idx]

    result = TuneResult(model, cfg.variant, history=[], best_epoch=-1, extra=extra)
    return _train_loop(result, epoch_batches, dev, task, vocab, cfg)


def fine_tune_baseline(model, train, dev, task, vocab, cfg):
    """Fresh |Y|-way softmax head on [CLS]; no templates."""
    tok = Tokenizer(vocab)
    rng = np.random.default_rng(cfg.seed)
    extra = _new_head(model, len(task.labels), cfg.seed)
    gold_idx = np.array([task.labels.index(ex.label) for ex in train], dtype=np.int64)
    encs = [tok.encode_single(ex.text_a, task.max_len) for ex in train]

    def epoch_batches():
        order = rng.permutation(len(train))
        for i in range(0, len(order), cfg.batch_size):
            idx = order[i : i + cfg.batch_size]
            yield [encs[j] for j in idx], gold_idx[idx]

    result = TuneResult(model, "fine_tune", history=[], best_epoch=-1, extra=extra)
    return _train_loop(result, epoch_batches, dev, task, vocab, cfg)
