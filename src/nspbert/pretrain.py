"""Joint MLM + NSP pre-training on the synthetic corpus.

Total loss per step is the MLM cross-entropy averaged over masked
positions plus the NSP cross-entropy -log q(n | x).  The loop is
single-threaded and bit-deterministic given its seed.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .corpus import ISNEXT_LABEL, mask_tokens, sample_nsp_pair
from .errors import DivergenceError, ValidationError
from .model import ISNEXT, NOTNEXT
from .tokenizer import Tokenizer, build_vocab
from .tuning import nsp_head, run_head


def vocab_from_documents(documents, max_size=8192, min_freq=1):
    return build_vocab((s for d in documents for s in d.sentences), max_size, min_freq)


def _encode_masked_batch(tok, pairs, max_len, mask_rate, rng):
    """Encode NSP pairs, apply MLM masking, return arrays + targets."""
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


def pretrain(model, documents, vocab, steps, batch_size=16, lr=1e-3, seed=0,
             max_len=28, mask_rate=0.15):
    """Train in place; returns a per-step trace of (total, mlm, nsp) losses."""
    if any(len(d.sentences) < 2 for d in documents) or len(documents) < 2:
        raise ValidationError("corpus too small for NSP pair sampling")
    tok = Tokenizer(vocab)
    rng = np.random.default_rng(seed)
    opt = T.Adam(model.parameters(), lr=lr)
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


def mlm_perplexity(model, vocab, documents, n_sentences=100, max_len=28,
                   mask_rate=0.15, seed=0):
    """Held-out masked-token perplexity (base e)."""
    tok = Tokenizer(vocab)
    rng = np.random.default_rng(seed)
    sentences = [s for d in documents for s in d.sentences][:n_sentences]
    total_nll, total_count = 0.0, 0
    for sent in sentences:
        enc = tok.encode_single(sent, max_len)
        ids = enc.ids.copy()
        masked, positions, targets = mask_tokens(
            ids, mask_rate, rng, vocab.mask_id, vocab.special_ids, len(vocab)
        )
        if not positions:
            continue
        enc.ids = masked
        with T.no_grad():
            hidden = model.forward_batch([enc])
            logits = model.mlm_logits(
                hidden, np.zeros(len(positions), dtype=np.int64), np.array(positions)
            )
            probs = T.softmax_rows(logits)
        for row, target in zip(probs.data, targets):
            total_nll += -np.log(max(float(row[target]), 1e-12))
            total_count += 1
    if total_count == 0:
        raise ValidationError("no maskable positions found for perplexity")
    return float(np.exp(total_nll / total_count))
