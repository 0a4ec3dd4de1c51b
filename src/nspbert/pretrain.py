"""Joint MLM + NSP pre-training on the synthetic corpus.

Total loss per step is the MLM cross-entropy averaged over masked
positions plus the NSP cross-entropy -log q(n | x).  The loop is
single-threaded and bit-deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import tensor as T
from .corpus import ISNEXT_LABEL, SyntheticCorpusConfig, mask_tokens, sample_nsp_pair
from .errors import DivergenceError, ValidationError
from .model import ISNEXT, NOTNEXT, PRESETS
from .tokenizer import Tokenizer, build_vocab
from .tuning import nsp_head, run_head


def vocab_from_documents(documents, max_size=8192, min_freq=1):
    return build_vocab((s for d in documents for s in d.sentences), max_size, min_freq)


def _encode_masked_batch(tok, pairs, max_len, mask_rate, rng):
    """Encode NSP pairs, apply MLM masking, return arrays + targets."""
    # Full max_len width, not cut as forward_batch is: a cut moves the pre-trained weights.
    v = tok.vocab
    encoded = [tok.encode_pair(p.text_a, p.text_b, max_len) for p in pairs]
    ids = np.stack([e.ids for e in encoded])
    segs = np.stack([e.segment_ids for e in encoded])
    attn = np.stack([e.attention_mask for e in encoded])
    batch_idx, pos_idx, mlm_targets = [], [], []
    if mask_rate > 0:
        for b in range(len(encoded)):
            masked, positions, targets = mask_tokens(
                ids[b], mask_rate, rng, v.mask_id, v.special_ids, len(v)
            )
            ids[b] = masked
            batch_idx.extend([b] * len(positions))
            pos_idx.extend(positions)
            mlm_targets.extend(targets)
    nsp_targets = np.array(
        [ISNEXT if p.label == ISNEXT_LABEL else NOTNEXT for p in pairs], dtype=np.int64
    )
    return ids, segs, attn, np.array(batch_idx), np.array(pos_idx), \
        np.array(mlm_targets), nsp_targets


@dataclass
class PretrainConfig:
    """The `pretrain` command's config; `corpus` is generated without --corpus."""

    corpus: SyntheticCorpusConfig = field(default_factory=SyntheticCorpusConfig)
    preset: str = "micro"
    steps: int = 2000
    batch_size: int = 16
    lr: float = 1e-3
    max_len: int = 28
    mask_rate: float = 0.15

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValidationError(f"unknown preset {self.preset!r}; choose from {list(PRESETS)}")
        if self.steps < 1 or self.batch_size < 1:
            raise ValidationError(f"steps and batch_size must be >= 1, got {self.steps} "
                                  f"and {self.batch_size}")


def pretrain(model, documents, vocab, steps, batch_size=PretrainConfig.batch_size,
             lr=PretrainConfig.lr, seed=0, max_len=PretrainConfig.max_len,
             mask_rate=PretrainConfig.mask_rate):
    """Train in place; returns a per-step trace of (total, mlm, nsp) losses."""
    if not 0.0 <= mask_rate < 1.0:
        raise ValidationError(f"mask_rate must be in [0, 1), got {mask_rate}")
    if any(len(d.sentences) < 2 for d in documents) or len(documents) < 2:
        raise ValidationError("corpus too small for NSP pair sampling")
    tok = Tokenizer(vocab)
    # Any sentence can be sampled as sentence B, which is never truncated.  A
    # sentence's tokens are its words' tokens, so each distinct word is
    # encoded once, and exact sums run only when the bound below fails.
    budget = max_len - 4
    words = [s.split() for d in documents for s in d.sentences]
    sizes = {w: len(tok.encode(w)) for w in set(chain.from_iterable(words))}
    if max(map(len, words)) * max(sizes.values(), default=0) > budget:
        where = ((d.doc_id, i) for d in documents for i in range(len(d.sentences)))
        for (doc_id, i), ws in zip(where, words):
            n = sum(map(sizes.__getitem__, ws))
            if n > budget:
                raise ValidationError(
                    f"document {doc_id!r} sentence {i} has {n} tokens; pre-training "
                    f"max_len {max_len} fits sentences of at most {budget}")
    rng = np.random.default_rng(seed)
    opt = T.Adam(model.params, lr=lr)
    trace = []
    for step in range(steps):
        pairs = [sample_nsp_pair(documents, rng) for _ in range(batch_size)]
        ids, segs, attn, bidx, pidx, mlm_t, nsp_t = _encode_masked_batch(
            tok, pairs, max_len, mask_rate, rng
        )
        hidden = model.forward_ids(ids, segs, attn)
        nsp_loss = T.cross_entropy(model.nsp_logits(hidden), nsp_t)
        if len(bidx):
            mlm_loss = T.cross_entropy(model.mlm_logits(hidden, bidx, pidx), mlm_t)
            total = T.add(mlm_loss, nsp_loss)
            mlm_val = mlm_loss.item()
        else:
            total = nsp_loss
            mlm_val = 0.0
        if not np.isfinite(total.item()):
            raise DivergenceError(
                f"non-finite loss at step {step}: total={total.item()}, "
                f"mlm={mlm_val}, nsp={nsp_loss.item()}"
            )
        opt.zero_grad()
        T.backward(total)
        opt.step()
        model.step += 1
        trace.append({"step": step, "total": total.item(), "mlm": mlm_val,
                      "nsp": nsp_loss.item()})
    return trace


def nsp_accuracy(model, vocab, pairs, max_len=28, batch_size=64):
    """Accuracy of argmax NSP prediction on labeled pairs."""
    tok = Tokenizer(vocab)
    encoded = [tok.encode_pair(p.text_a, p.text_b, max_len) for p in pairs]
    pred = run_head(model, encoded, nsp_head, batch_size).argmax(axis=1)
    gold = np.array([ISNEXT if p.label == ISNEXT_LABEL else NOTNEXT for p in pairs])
    return int((pred == gold).sum()) / len(pairs)
