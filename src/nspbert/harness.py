"""Datasets, K-shot splitting, synthetic downstream tasks, evaluation
modes, and multi-seed experiment orchestration.

The K-shot protocol samples exactly K train and 10K dev examples per
class, disjoint, deterministic per seed; the remainder is the test set.
Reports carry per-seed accuracies, mean, population std, and config /
checkpoint fingerprints.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import ISNEXT_LABEL, generate_corpus, sample_nsp_pairs
from .errors import ValidationError, check_type, read_jsonl
from .prompting import AnswerMapping, PromptTemplate, TaskConfig, Verbalizer
from .scoring import (
    LabelDistribution,
    ScoredSample,
    apply_thresholds,
    pet_score,
    samples_contrast,
    thresholds_from_dev,
)
from .tokenizer import Tokenizer
from .tuning import (
    VARIANTS,
    TuneResult,
    TuningConfig,
    accuracy,
    fine_tune_baseline,
    isnext_head,
    nsp_tune,
    predict_candidates_batch,
    run_head,
)

DEFAULT_SEEDS = (13, 21, 42, 87, 100)

EVAL_MODES = ("zero_shot_nsp", "zero_shot_pet", "samples_contrast", "thresholds", "tuned")


@dataclass
class Example:
    id: object
    text_a: str
    label: str
    text_b: str = None


def load_jsonl(path, task):
    """Validated examples from a JSONL file; line numbers become ids when absent."""
    examples = []
    seen_ids = set()
    for lineno, rec in read_jsonl(path, "example"):
        where = f"{path}:{lineno}"
        if "text_a" not in rec or "label" not in rec:
            raise ValidationError(f"{where}: missing text_a or label")
        text_a = check_type(str, rec["text_a"], f"{where}: text_a")
        text_b = check_type(str | None, rec.get("text_b"), f"{where}: text_b")
        if rec["label"] not in task.labels:
            raise ValidationError(f"{where}: unknown label {rec['label']!r}")
        if task.task_type == "pair" and not text_b:
            raise ValidationError(f"{where}: pair task requires text_b")
        ex_id = rec.get("id", lineno)
        if isinstance(ex_id, str):
            check_type(str, ex_id, f"{where}: id")
        elif isinstance(ex_id, (list, dict)):
            raise ValidationError(f"{where}: id must be a string or number")
        if ex_id in seen_ids:
            raise ValidationError(f"{where}: duplicate id {ex_id!r}")
        seen_ids.add(ex_id)
        examples.append(Example(ex_id, text_a, rec["label"], text_b))
    return examples


@dataclass
class KShotSplit:
    train: list
    dev: list
    test: list
    seed: int

    def fingerprint(self):
        ids = sorted(str(ex.id) for ex in self.train) + ["|"] + \
            sorted(str(ex.id) for ex in self.dev)
        return hashlib.sha256(",".join(ids).encode()).hexdigest()[:16]


def kshot_split(data, k, seed):
    """K train + 10K dev per class, disjoint; the rest is the test set."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"K must be an integer >= 1, got {k!r}")
    by_label = {}
    for ex in data:
        by_label.setdefault(ex.label, []).append(ex)
    need = 11 * k
    for label, pool in by_label.items():
        if len(pool) < need:
            raise ValidationError(
                f"class {label!r} has {len(pool)} examples; K={k} needs {need}"
            )
    rng = np.random.default_rng(seed)
    train, dev, chosen = [], [], set()
    for label in sorted(by_label):
        pool = by_label[label]
        picks = rng.choice(len(pool), size=need, replace=False)
        for i in picks[:k]:
            train.append(pool[i])
        for i in picks[k:]:
            dev.append(pool[i])
        chosen.update(id(pool[i]) for i in picks)
    test = [ex for ex in data if id(ex) not in chosen]
    if not test:
        raise ValidationError(f"K={k} takes all {len(data)} examples for train and dev; "
                              "no test example is left")
    return KShotSplit(train, dev, test, seed)


# ---------------------------------------------------------------------------
# Synthetic downstream tasks


def make_synthetic_task(corpus_cfg, task_type, seed, n_documents=250):
    """Desk-scale stand-in datasets, generated from fresh documents that are
    disjoint (by id namespace and seed) from any pre-training corpus.

    "topic": label = document topic, one sentence per example, verbalizer
    maps each topic to a fixed topic-lexicon word.  "pair": Entail =
    adjacent sentences, NotEntail = cross-document, balanced 50/50.
    """
    task_corpus_cfg = dataclasses.replace(
        corpus_cfg, n_documents=n_documents, seed=seed + 10_000
    )
    docs = generate_corpus(task_corpus_cfg, id_prefix=f"task{seed}")
    if task_type == "topic":
        labels = [f"topic{t}" for t in range(corpus_cfg.n_topics)]
        verbalizer = Verbalizer(
            {f"topic{t}": corpus_cfg.topic_lexicon(t)[0]
             for t in range(corpus_cfg.n_topics)}
        )
        template = PromptTemplate("{label}", position="suffix")
        examples = []
        for doc in docs:
            for si, sent in enumerate(doc.sentences):
                examples.append(Example(f"{doc.doc_id}-s{si}", sent, f"topic{doc.topic}"))
        task = TaskConfig(task_type="single", labels=labels, template=template,
                          verbalizer=verbalizer)
        return examples, task
    if task_type == "pair":
        pairs = sample_nsp_pairs(docs, 8 * len(docs), seed=seed + 20_000)
        examples = [
            Example(i, p.text_a, "Entail" if p.label == ISNEXT_LABEL else "NotEntail",
                    text_b=p.text_b)
            for i, p in enumerate(pairs)
        ]
        task = TaskConfig(task_type="pair", labels=["NotEntail", "Entail"],
                          mapping=dataclasses.asdict(AnswerMapping("samples_contrast")))
        return examples, task
    raise ValidationError(f"unknown synthetic task type {task_type!r}")


# ---------------------------------------------------------------------------
# Evaluation


def score_pairs(model, vocab, examples, task, chunk=64):
    """IsNext probability of (text_a, text_b) for every example."""
    tok = Tokenizer(vocab)
    pairs = []
    for ex in examples:
        try:
            pairs.append(tok.encode_pair(ex.text_a, ex.text_b, task.max_len))
        except ValidationError as e:
            raise ValidationError(f"example {ex.id!r}: text_b {e}") from e
    qs = run_head(model, pairs, isnext_head, chunk)
    return [ScoredSample(ex.id, float(q), gold=ex.label) for ex, q in zip(examples, qs)]


def evaluate(model, vocab, test, task, mode, dev=None):
    """Accuracy of the given evaluation mode on the test examples.

    Zero-shot modes take no dev argument; samples_contrast and
    thresholds consume dev exactly as the protocol allows (label
    distribution / probability cuts).
    """
    if mode not in EVAL_MODES:
        raise ValidationError(f"unknown eval mode {mode!r}")
    if not test:
        raise ValidationError("empty test set")
    task.check_mode(mode)
    if mode in ("zero_shot_nsp", "tuned"):
        preds = predict_candidates_batch(model, vocab, test, task)
        return accuracy(preds, test)
    if mode == "zero_shot_pet":
        preds = []
        for ex in test:
            probs = pet_score(model, vocab, ex.text_a, task)
            preds.append(task.labels[int(np.argmax(probs))])
        return accuracy(preds, test)
    if dev is None:
        raise ValidationError(f"mode {mode!r} requires a dev set")
    if mode == "samples_contrast":
        dist = LabelDistribution.from_gold([ex.label for ex in dev], task.labels)
        scored = score_pairs(model, vocab, test, task)
        mapping = task.answer_mapping()
        preds = samples_contrast(scored, mapping.order, dist, mapping.batch_size)
        return accuracy(preds, test)
    # thresholds
    dev_scored = score_pairs(model, vocab, dev, task)
    cuts = thresholds_from_dev(dev_scored)
    scored = score_pairs(model, vocab, test, task)
    preds = [apply_thresholds(cuts, s.q) for s in scored]
    return accuracy(preds, test)


# ---------------------------------------------------------------------------
# Experiments


ABLATION_FIELDS = ("variant", "seed", "epoch", "dev_acc", "test_acc")


@dataclass
class SplitRun:
    """The outcome of one K-shot split.  `variant` is the tuning variant, or
    the eval mode when nothing was tuned; `tuned` holds the trained model."""

    variant: str
    seed: int
    epoch: int  # best dev epoch; -1 when untuned or without a dev set
    dev_acc: float  # best dev accuracy; nan when untuned
    test_acc: float
    split_fingerprint: str
    tuned: TuneResult = None

    def row(self):
        """The ablation CSV row."""
        return {key: getattr(self, key) for key in ABLATION_FIELDS}


def run_split(model, split, task, vocab, tuning=None, mode=None):
    """Score split.test.  With `tuning`, first train a copy of `model` on
    split.train (variant "fine_tune": `fine_tune_baseline`, else `nsp_tune`)
    seeded by split.seed, keeping the best split.dev epoch; without, evaluate
    `mode` on `model` with split.dev as its dev set.  `model` is left as it is."""
    if tuning is None:
        acc = evaluate(model, vocab, split.test, task, mode, dev=split.dev)
        return SplitRun(mode, split.seed, -1, float("nan"), acc, split.fingerprint())
    cfg = dataclasses.replace(tuning, seed=split.seed)
    train = fine_tune_baseline if cfg.variant == "fine_tune" else nsp_tune
    res = train(model.copy(), split.train, split.dev, task, vocab, cfg)
    dev_acc = max(h["dev_acc"] for h in res.history) if res.history else float("nan")
    test_acc = accuracy(res.predict(split.test, task, vocab), split.test)
    return SplitRun(cfg.variant, split.seed, res.best_epoch, dev_acc, test_acc,
                    split.fingerprint(), res)


def mean_std(accs):
    """Mean and population std (ddof=0) of per-seed accuracies."""
    arr = np.array(accs)
    return float(arr.mean()), float(arr.std())


@dataclass
class ExperimentConfig:
    mode: str  # "nsp_tuning" | "fine_tune" | any EVAL_MODES zero-shot mode
    checkpoint: str
    task: TaskConfig
    data: list  # Example pool
    k: int
    seeds: tuple = DEFAULT_SEEDS
    tuning: TuningConfig = field(default_factory=TuningConfig)  # read by tuning modes

    def fingerprint(self):
        payload = {
            "mode": self.mode, "k": self.k, "seeds": list(self.seeds),
            **{key: v for key, v in dataclasses.asdict(self.tuning).items() if key != "seed"},
            "task": self.task.to_dict(), "n_examples": len(self.data),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class ExperimentReport:
    accuracies: list
    mean: float
    std: float  # population std over seeds
    config_fingerprint: str
    checkpoint_hash: str
    per_seed: list = field(default_factory=list)

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "accuracies": self.accuracies, "mean": self.mean, "std": self.std,
                "config_fingerprint": self.config_fingerprint,
                "checkpoint_hash": self.checkpoint_hash, "per_seed": self.per_seed,
            }, f, indent=2)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["seed", "accuracy"])
            for row in self.per_seed:
                writer.writerow([row["seed"], row["accuracy"]])
            writer.writerow(["mean", self.mean])
            writer.writerow(["std", self.std])


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def run_experiment(cfg, model, vocab):
    """One run_split of `model` per seed; mean and population std of test accuracy."""
    tuning = None
    if cfg.mode == "fine_tune":
        tuning = dataclasses.replace(cfg.tuning, variant="fine_tune")
    elif cfg.mode == "nsp_tuning":
        if cfg.tuning.variant not in VARIANTS:
            raise ValidationError(f"mode 'nsp_tuning' cannot run variant {cfg.tuning.variant!r}")
        tuning = cfg.tuning
    runs = [run_split(model, kshot_split(cfg.data, cfg.k, seed), cfg.task, vocab, tuning,
                      cfg.mode) for seed in cfg.seeds]
    accs = [r.test_acc for r in runs]
    mean, std = mean_std(accs)
    return ExperimentReport(
        accuracies=accs,
        mean=mean,
        std=std,
        config_fingerprint=cfg.fingerprint(),
        checkpoint_hash=file_hash(cfg.checkpoint),
        per_seed=[{"seed": r.seed, "accuracy": r.test_acc,
                   "split_fingerprint": r.split_fingerprint} for r in runs],
    )
