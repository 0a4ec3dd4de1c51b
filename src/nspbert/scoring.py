"""Answer mapping: candidates-contrast, samples-contrast, dev-set
thresholds, and the PET-style multi-mask scoring baseline.

Candidates-contrast picks, per sample, the candidate prompt with the
highest IsNext probability.  Samples-contrast ranks a batch of samples
by IsNext probability and cuts the ranking into label groups sized by a
known label distribution (largest-remainder apportionment).  Thresholds
are dev-set quantile cuts applied sample by sample.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ValidationError
from .prompting import render_pet
from .tokenizer import Tokenizer
from .tuning import encode_candidates, isnext_head, run_head


@dataclass
class ScoredSample:
    """Per-candidate IsNext probabilities, or a single pair probability."""

    sample_id: object
    q: object  # float (samples mode) or list of floats (candidates mode)
    gold: object = None

    def __post_init__(self):
        qs = self.q if isinstance(self.q, (list, tuple)) else [self.q]
        if any(not 0.0 <= float(v) <= 1.0 for v in qs):
            raise ValidationError(f"probabilities must lie in [0, 1]: {self.q}")


@dataclass
class LabelDistribution:
    """Ordered labels with proportions summing to 1."""

    labels: list
    proportions: list

    def __post_init__(self):
        if len(self.labels) != len(self.proportions):
            raise ValidationError("labels and proportions differ in length")
        if any(p < 0 for p in self.proportions):
            raise ValidationError("proportions must be nonnegative")
        if abs(sum(self.proportions) - 1.0) > 1e-9:
            raise ValidationError(f"proportions sum to {sum(self.proportions)}, not 1")

    @classmethod
    def from_gold(cls, examples, labels):
        counts = {l: 0 for l in labels}
        for ex in examples:
            counts[ex.label] += 1
        n = sum(counts.values())
        if n == 0:
            raise ValidationError("cannot derive a label distribution from no examples")
        return cls(list(labels), [counts[l] / n for l in labels])

    def majority_label(self):
        return self.labels[int(np.argmax(self.proportions))]


# ---------------------------------------------------------------------------
# Candidates-contrast


def score_candidates(model, vocab, x, task, sample_id=0, gold=None):
    """IsNext probability of every candidate template, in one forward pass;
    probabilities are not jointly normalized across candidates."""
    pairs = encode_candidates(x, task, Tokenizer(vocab))
    probs = run_head(model, pairs, isnext_head, len(pairs))
    return ScoredSample(sample_id, [float(p) for p in probs], gold=gold)


def predict_candidates_contrast(sample):
    """Argmax over candidate IsNext probabilities; ties -> lowest index."""
    qs = sample.q if isinstance(sample.q, (list, tuple)) else [sample.q]
    if len(qs) == 0:
        raise ValidationError("empty candidate set")
    return int(np.argmax(qs))


# ---------------------------------------------------------------------------
# Samples-contrast


def apportion(n, distribution):
    """Largest-remainder split of n seats by the distribution's proportions.

    Remainder ties break toward earlier labels.
    """
    quotas = [n * p for p in distribution.proportions]
    counts = [int(q) for q in quotas]
    left = n - sum(counts)
    remainders = sorted(
        range(len(quotas)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in remainders[:left]:
        counts[i] += 1
    return counts


def samples_contrast(samples, order, distribution, batch_size):
    """Label every sample by rank-and-divide within consecutive batches.

    Batches of `batch_size` are taken in input order.  Within a batch,
    samples are ranked by q (ties by sample position, ascending), the
    batch is cut into groups sized by largest-remainder apportionment of
    the label distribution, and groups receive labels in the
    distribution's declared order along the ranking.  A batch smaller
    than the number of labels degenerates to the majority label for
    every sample in it.
    """
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")
    if order not in ("ascending", "descending"):
        raise ValidationError(f"order must be ascending or descending, got {order!r}")
    labels = [None] * len(samples)
    n_labels = len(distribution.labels)
    for start in range(0, len(samples), batch_size):
        batch = list(range(start, min(start + batch_size, len(samples))))
        if len(batch) < n_labels:
            for i in batch:
                labels[i] = distribution.majority_label()
            continue
        reverse = order == "descending"
        ranked = sorted(batch, key=lambda i: (-float(samples[i].q) if reverse
                                              else float(samples[i].q), i))
        counts = apportion(len(batch), distribution)
        cursor = 0
        for label, count in zip(distribution.labels, counts):
            for i in ranked[cursor : cursor + count]:
                labels[i] = label
            cursor += count
    return labels


# ---------------------------------------------------------------------------
# Dev-set thresholds


@dataclass
class Thresholds:
    """Quantile cut points between labels ordered by mean dev q ascending."""

    label_order: list
    cuts: list  # len(label_order) - 1, ascending


def thresholds_from_dev(dev):
    """Cut points at the cumulative gold-label proportions of the dev set.

    Labels are ordered by their mean dev q ascending; each cut is the
    midpoint between the adjacent order statistics of the sorted dev qs.
    """
    if not dev:
        raise ValidationError("dev set is empty")
    by_label = {}
    for s in dev:
        if s.gold is None:
            raise ValidationError("thresholds need gold labels on every dev sample")
        by_label.setdefault(s.gold, []).append(float(s.q))
    if len(by_label) < 2:
        raise ValidationError("dev set has a single label; no threshold computable")
    label_order = sorted(by_label, key=lambda l: float(np.mean(by_label[l])))
    qs = np.sort([float(s.q) for s in dev])
    cuts = []
    cum = 0
    for label in label_order[:-1]:
        cum += len(by_label[label])
        cuts.append(float((qs[cum - 1] + qs[cum]) / 2.0))
    return Thresholds(label_order, cuts)


def apply_thresholds(thresholds, q):
    """Label of the interval containing q (q equal to a cut goes up)."""
    idx = int(np.searchsorted(thresholds.cuts, float(q), side="right"))
    return thresholds.label_order[idx]


# ---------------------------------------------------------------------------
# PET-style multi-mask scoring


def pet_score(model, vocab, x, task):
    """Per-label probabilities: softmax over labels of the product of each
    target token's probability at its mask position."""
    tok = Tokenizer(vocab)
    products = []
    for j, label in enumerate(task.labels):
        try:
            masked, target_ids = render_pet(
                x, task.template, task.verbalizer, label, tok, task.max_len
            )
        except ValidationError as e:
            raise ValidationError(f"label {j} ({label!r}): {e}") from e
        probs = model.mlm_mask_probs(masked)
        product = 1.0
        for row, tid in zip(probs, target_ids):
            product *= float(row[tid])
        products.append(product)
    out = T.softmax_rows(T.Tensor(np.array(products, dtype=np.float32)))
    return out.data.astype(float)


# ---------------------------------------------------------------------------
# Files


def emit_probability_histogram(qs, bins, path):
    """CSV of "bin_lo,bin_hi,count" over [0, 1]; the last bin is closed."""
    if bins < 2:
        raise ValidationError(f"need at least 2 bins, got {bins}")
    counts, edges = np.histogram(np.asarray(qs, dtype=float), bins=bins, range=(0.0, 1.0))
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            writer.writerow([f"{lo:.6f}", f"{hi:.6f}", int(c)])
    return counts, edges


def save_scored_jsonl(samples, path):
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            rec = {"id": s.sample_id, "q": s.q}
            if s.gold is not None:
                rec["gold"] = s.gold
            f.write(json.dumps(rec) + "\n")


def load_scored_jsonl(path):
    out = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                out.append(ScoredSample(rec["id"], rec["q"], rec.get("gold")))
            except (json.JSONDecodeError, KeyError) as e:
                raise ValidationError(f"{path}:{i + 1}: malformed scored sample: {e}") from e
    return out
