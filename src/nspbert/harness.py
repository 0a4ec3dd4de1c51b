"""Datasets, K-shot splitting, synthetic downstream tasks, evaluation
modes, and multi-seed experiment orchestration.

The K-shot protocol samples exactly K train and 10K dev examples per
class, disjoint, deterministic per seed; the remainder is the test set.
Reports carry per-seed accuracies, mean, population std, and config /
checkpoint fingerprints.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import ISNEXT_LABEL, generate_corpus, sample_nsp_pairs
from .errors import ValidationError
from .model import EncoderModel
from .prompting import PromptTemplate, TaskConfig, Verbalizer
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
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}:{lineno}: malformed JSON: {e}") from e
            if "text_a" not in rec or "label" not in rec:
                raise ValidationError(f"{path}:{lineno}: missing text_a or label")
            if rec["label"] not in task.labels:
                raise ValidationError(
                    f"{path}:{lineno}: unknown label {rec['label']!r}"
                )
            if task.task_type == "pair" and not rec.get("text_b"):
                raise ValidationError(f"{path}:{lineno}: pair task requires text_b")
            ex_id = rec.get("id", lineno)
            if ex_id in seen_ids:
                raise ValidationError(f"{path}:{lineno}: duplicate id {ex_id!r}")
            seen_ids.add(ex_id)
            examples.append(Example(ex_id, rec["text_a"], rec["label"], rec.get("text_b")))
    return examples


def save_jsonl(examples, path):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            rec = {"id": ex.id, "text_a": ex.text_a, "label": ex.label}
            if ex.text_b is not None:
                rec["text_b"] = ex.text_b
            f.write(json.dumps(rec) + "\n")


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
    import dataclasses

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
                          verbalizer=verbalizer,
                          mapping={"strategy": "candidates_contrast",
                                   "order": "ascending", "batch_size": 16})
        return examples, task
    if task_type == "pair":
        pairs = sample_nsp_pairs(docs, 8 * len(docs), seed=seed + 20_000)
        examples = [
            Example(i, p.text_a, "Entail" if p.label == ISNEXT_LABEL else "NotEntail",
                    text_b=p.text_b)
            for i, p in enumerate(pairs)
        ]
        task = TaskConfig(task_type="pair", labels=["NotEntail", "Entail"],
                          mapping={"strategy": "samples_contrast",
                                   "order": "ascending", "batch_size": 16})
        return examples, task
    raise ValidationError(f"unknown synthetic task type {task_type!r}")


# ---------------------------------------------------------------------------
# Evaluation


def score_pairs(model, vocab, examples, task, chunk=64):
    """IsNext probability of (text_a, text_b) for every example."""
    tok = Tokenizer(vocab)
    pairs = [tok.encode_pair(ex.text_a, ex.text_b, task.max_len) for ex in examples]
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
        dist = LabelDistribution.from_gold(dev, task.labels)
        scored = score_pairs(model, vocab, test, task)
        preds = samples_contrast(scored, task.mapping.get("order", "ascending"),
                                 dist, task.mapping.get("batch_size", 16))
        return accuracy(preds, test)
    # thresholds
    dev_scored = score_pairs(model, vocab, dev, task)
    cuts = thresholds_from_dev(dev_scored)
    scored = score_pairs(model, vocab, test, task)
    preds = [apply_thresholds(cuts, s.q) for s in scored]
    return accuracy(preds, test)


# ---------------------------------------------------------------------------
# Experiments


@dataclass
class ExperimentConfig:
    mode: str  # "nsp_tuning" | "fine_tune" | any EVAL_MODES zero-shot mode
    checkpoint: str
    task: TaskConfig
    data: list  # Example pool
    k: int = 16
    seeds: tuple = DEFAULT_SEEDS
    epochs: int = 10
    lr: float = 2e-5
    batch_size: int = 8
    variant: str = "coupled_bce"

    def fingerprint(self):
        payload = {
            "mode": self.mode, "k": self.k, "seeds": list(self.seeds),
            "epochs": self.epochs, "lr": self.lr, "batch_size": self.batch_size,
            "variant": self.variant, "task": self.task.to_dict(),
            "n_examples": len(self.data),
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


def run_experiment(cfg, vocab):
    """5 seeds x (split, tune, evaluate); mean and population std."""
    accs, per_seed = [], []
    for seed in cfg.seeds:
        split = kshot_split(cfg.data, cfg.k, seed)
        model = EncoderModel.load_checkpoint(cfg.checkpoint)
        if cfg.mode == "nsp_tuning":
            tcfg = TuningConfig(epochs=cfg.epochs, lr=cfg.lr,
                                batch_size=cfg.batch_size, variant=cfg.variant,
                                seed=seed)
            res = nsp_tune(model, split.train, split.dev, cfg.task, vocab, tcfg)
            acc = accuracy(res.predict(split.test, cfg.task, vocab), split.test)
        elif cfg.mode == "fine_tune":
            tcfg = TuningConfig(epochs=cfg.epochs, lr=cfg.lr,
                                batch_size=cfg.batch_size, variant="fine_tune",
                                seed=seed)
            res = fine_tune_baseline(model, split.train, split.dev, cfg.task,
                                     vocab, tcfg)
            acc = accuracy(res.predict(split.test, cfg.task, vocab), split.test)
        else:
            acc = evaluate(model, vocab, split.test, cfg.task, cfg.mode,
                           dev=split.dev)
        accs.append(acc)
        per_seed.append({"seed": seed, "accuracy": acc,
                         "split_fingerprint": split.fingerprint()})
    arr = np.array(accs)
    return ExperimentReport(
        accuracies=accs,
        mean=float(arr.mean()),
        std=float(arr.std()),
        config_fingerprint=cfg.fingerprint(),
        checkpoint_hash=file_hash(cfg.checkpoint),
        per_seed=per_seed,
    )
