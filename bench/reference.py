"""Plain-numpy reference computations that the workloads check nspbert against.

Nothing here imports nspbert.  The encoder is re-derived from the
checkpoint file's arrays in float64 and runs on each sequence cut to its
real tokens, so no padding or attention mask is involved: any padding,
masking or batching scheme in the program must reproduce these numbers.
"""

from __future__ import annotations

import json
import re
import struct

import numpy as np
from scipy.special import erf

CHECKPOINT_MAGIC = b"NSPBERT1"
LN_EPS = 1e-5
_PUNCT = re.compile(r"([^\w\s]|_)")


# ---------------------------------------------------------------------------
# Vocabulary and the [CLS] a [SEP] b [SEP] layout


class RefVocab:
    """Token table read straight from a one-token-per-line vocab file."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as f:
            self.tokens = [line.rstrip("\n") for line in f if line.strip()]
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.cls, self.sep, self.mask = (self.index[t] for t in ("[CLS]", "[SEP]", "[MASK]"))

    def ids(self, text):
        """Whole-word ids; every word of the synthetic corpus is in the vocab."""
        words = _PUNCT.sub(r" \1 ", text.lower()).split()
        missing = [w for w in words if w not in self.index]
        if missing:
            raise KeyError(f"reference vocab has no whole-word entry for {missing}")
        return [self.index[w] for w in words]

    def pair_layout(self, a, b, max_len):
        """Real-token ids and segment ids of [CLS] a [SEP] b [SEP]; a is cut first."""
        b_ids = self.ids(b)
        a_ids = self.ids(a)[: max_len - 3 - len(b_ids)]
        ids = [self.cls] + a_ids + [self.sep] + b_ids + [self.sep]
        segs = [0] * (len(a_ids) + 2) + [1] * (len(b_ids) + 1)
        return np.array(ids), np.array(segs)

    def cloze_layout(self, text, phrase, max_len):
        """Suffix cloze input [CLS] text [MASK]*n [SEP] and the phrase's target ids."""
        targets = self.ids(phrase)
        text_ids = self.ids(text)
        overflow = 2 + len(text_ids) + len(targets) - max_len
        if overflow > 0:
            text_ids = text_ids[overflow:]
        ids = [self.cls] + text_ids + [self.mask] * len(targets) + [self.sep]
        positions = list(range(1 + len(text_ids), 1 + len(text_ids) + len(targets)))
        return np.array(ids), np.zeros(len(ids), dtype=np.int64), positions, targets


# ---------------------------------------------------------------------------
# Encoder, pooler and MLM head


def read_checkpoint(path):
    """(config dict, name -> float64 array) parsed from the checkpoint bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    payload = raw[12 + hlen :]
    arrays = {}
    for name, entry in header["tensors"].items():
        count = int(np.prod(entry["shape"], dtype=np.int64))
        flat = np.frombuffer(payload, dtype="<f4", count=count, offset=entry["offset"])
        arrays[name] = flat.reshape(entry["shape"]).astype(np.float64)
    return header["config"], arrays


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class RefEncoder:
    def __init__(self, checkpoint_path):
        self.config, self.w = read_checkpoint(checkpoint_path)

    def hidden(self, ids, segs):
        """(B, L, H) hidden states of B unpadded sequences of equal length L."""
        w, c = self.w, self.config
        n_heads = c["n_heads"]
        b, length = ids.shape
        hd = c["hidden"] // n_heads
        x = (w["embeddings.word"][ids] + w["embeddings.position"][np.arange(length)]
             + w["embeddings.segment"][segs])
        x = _layer_norm(x, w["embeddings.ln.gain"], w["embeddings.ln.bias"])
        for i in range(c["n_layers"]):
            p = f"layer{i}."

            def heads(name):
                y = x @ w[p + "attn.w" + name] + w[p + "attn.b" + name]
                return y.reshape(b, length, n_heads, hd).transpose(0, 2, 1, 3)

            q, k, v = heads("q"), heads("k"), heads("v")
            att = _softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd))
            ctx = (att @ v).transpose(0, 2, 1, 3).reshape(b, length, c["hidden"])
            x = _layer_norm(x + ctx @ w[p + "attn.wo"] + w[p + "attn.bo"],
                            w[p + "attn.ln.gain"], w[p + "attn.ln.bias"])
            h = _gelu(x @ w[p + "ffn.w1"] + w[p + "ffn.b1"])
            x = _layer_norm(x + h @ w[p + "ffn.w2"] + w[p + "ffn.b2"],
                            w[p + "ffn.ln.gain"], w[p + "ffn.ln.bias"])
        return x

    def isnext(self, ids, segs):
        """(B,) IsNext probabilities from the tanh pooler on [CLS]."""
        w = self.w
        pooled = np.tanh(self.hidden(ids, segs)[:, 0] @ w["nsp.pool.w"].T + w["nsp.pool.b"])
        return _softmax(pooled @ w["nsp.out.w"].T + w["nsp.out.b"])[:, 0]

    def mlm_probs(self, ids, segs, positions):
        """(len(positions), vocab) token distributions at positions of one sequence."""
        w = self.w
        rows = self.hidden(ids[None], segs[None])[0, positions]
        t = _gelu(rows @ w["mlm.transform.w"] + w["mlm.transform.b"])
        t = _layer_norm(t, w["mlm.ln.gain"], w["mlm.ln.bias"])
        return _softmax(t @ w["embeddings.word"].T + w["mlm.bias"])

    def isnext_many(self, layouts):
        """IsNext probability of every (ids, segs) layout, batched by length."""
        out = np.empty(len(layouts))
        by_len = {}
        for i, (ids, _) in enumerate(layouts):
            by_len.setdefault(len(ids), []).append(i)
        for idx in by_len.values():
            ids = np.stack([layouts[i][0] for i in idx])
            segs = np.stack([layouts[i][1] for i in idx])
            out[idx] = self.isnext(ids, segs)
        return out

    def pet_probs(self, vocab, text, phrases, max_len):
        """Softmax over labels of each phrase's product of target-token probabilities."""
        products = []
        for phrase in phrases:
            ids, segs, positions, targets = vocab.cloze_layout(text, phrase, max_len)
            probs = self.mlm_probs(ids, segs, positions)
            products.append(float(np.prod(probs[np.arange(len(targets)), targets])))
        return _softmax(np.array(products))


# ---------------------------------------------------------------------------
# Answer mapping


def apportion(n, proportions):
    """Largest-remainder seats; remainder ties go to the earlier label."""
    quotas = [n * p for p in proportions]
    seats = [int(q) for q in quotas]
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - seats[i]), i))
    for i in order[: n - sum(seats)]:
        seats[i] += 1
    return seats


def rank_and_divide(qs, labels, proportions, batch_size, tol):
    """Samples-contrast labels in ascending-q order, plus the samples whose
    label could flip if every q moved by at most tol."""
    qs = np.asarray(qs, dtype=float)
    out = [None] * len(qs)
    ambiguous = set()
    majority = labels[int(np.argmax(proportions))]
    for start in range(0, len(qs), batch_size):
        batch = list(range(start, min(start + batch_size, len(qs))))
        if len(batch) < len(labels):
            for i in batch:
                out[i] = majority
            continue
        ranked = sorted(batch, key=lambda i: (qs[i], i))
        cursor = 0
        for label, seats in zip(labels, apportion(len(batch), proportions)):
            for i in ranked[cursor : cursor + seats]:
                out[i] = label
            cursor += seats
            if 0 < cursor < len(ranked):
                lo, hi = qs[ranked[cursor - 1]], qs[ranked[cursor]]
                if hi - lo <= 2 * tol:
                    ambiguous.update(i for i in batch if lo - 2 * tol <= qs[i] <= hi + 2 * tol)
    return out, ambiguous


def quantile_cuts(dev_qs, dev_gold):
    """Labels ordered by mean dev q and midpoint cuts at cumulative gold counts."""
    dev_qs = np.asarray(dev_qs, dtype=float)
    by_label = {}
    for q, g in zip(dev_qs, dev_gold):
        by_label.setdefault(g, []).append(q)
    order = sorted(by_label, key=lambda l: np.mean(by_label[l]))
    sorted_qs = np.sort(dev_qs)
    cuts, cum = [], 0
    for label in order[:-1]:
        cum += len(by_label[label])
        cuts.append((sorted_qs[cum - 1] + sorted_qs[cum]) / 2.0)
    return order, cuts


def threshold_labels(qs, order, cuts, tol):
    """Labels by cut interval (a q on a cut goes up), plus the samples within
    2*tol of a cut, whose label a tol-sized change of q or of the cuts could flip."""
    labels, ambiguous = [], set()
    for i, q in enumerate(qs):
        labels.append(order[int(np.searchsorted(cuts, q, side="right"))])
        if any(abs(q - c) <= 2 * tol for c in cuts):
            ambiguous.add(i)
    return labels, ambiguous
