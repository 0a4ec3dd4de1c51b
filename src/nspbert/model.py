"""Mini BERT-style encoder with an MLM head and the tanh-pooled NSP head.

The NSP head computes s = W_nsp tanh(W h_cls + b); logits are ordered
(IsNext, NotNext).  The MLM output projection is tied to the input word
embedding table.  Checkpoints are little-endian binary with a JSON
header (magic "NSPBERT1").
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    DimensionError,
    ValidationError,
)
from .tensor import Tensor

CHECKPOINT_MAGIC = b"NSPBERT1"

# IsNext is logit index 0 throughout.
ISNEXT, NOTNEXT = 0, 1

# Appendix-scale presets (L, H, A) plus a desk-test "micro" preset.
PRESETS = {
    "micro": (2, 64, 2),
    "tiny": (3, 384, 6),
    "small": (6, 512, 8),
    "base": (12, 768, 12),
    "large": (24, 1024, 16),
}


@dataclass
class EncoderConfig:
    n_layers: int
    hidden: int
    n_heads: int
    vocab_size: int
    max_position: int = 128
    type_vocab: int = 2

    def __post_init__(self):
        if self.hidden % self.n_heads != 0:
            raise ValidationError(
                f"hidden size {self.hidden} not divisible by {self.n_heads} heads"
            )
        if self.max_position < 16:
            raise ValidationError(f"max_position must be >= 16, got {self.max_position}")

    @property
    def intermediate(self):
        return 4 * self.hidden

    @classmethod
    def preset(cls, name, vocab_size, max_position=128):
        l, h, a = PRESETS[name]
        return cls(n_layers=l, hidden=h, n_heads=a, vocab_size=vocab_size,
                   max_position=max_position)


def _trunc_normal(rng, shape, std=0.02):
    """Truncated normal at 2 std, by redraw."""
    vals = rng.standard_normal(shape) * std
    bad = np.abs(vals) > 2 * std
    while bad.any():
        vals[bad] = rng.standard_normal(bad.sum()) * std
        bad = np.abs(vals) > 2 * std
    return vals.astype(np.float32)


class EncoderModel:
    """Transformer encoder (post-layer-norm blocks) + MLM and NSP heads."""

    def __init__(self, config, seed=0):
        self.config = config
        self.seed = seed
        self.step = 0
        rng = np.random.default_rng(seed)
        c = config
        p = {}

        def w(name, *shape):
            p[name] = Tensor(_trunc_normal(rng, shape), requires_grad=True)

        def zeros(name, *shape):
            p[name] = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)

        def ones(name, *shape):
            p[name] = Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)

        w("embeddings.word", c.vocab_size, c.hidden)
        w("embeddings.position", c.max_position, c.hidden)
        w("embeddings.segment", c.type_vocab, c.hidden)
        ones("embeddings.ln.gain", c.hidden)
        zeros("embeddings.ln.bias", c.hidden)
        for i in range(c.n_layers):
            for mat in ("wq", "wk", "wv", "wo"):
                w(f"layer{i}.attn.{mat}", c.hidden, c.hidden)
            for vec in ("bq", "bk", "bv", "bo"):
                zeros(f"layer{i}.attn.{vec}", c.hidden)
            ones(f"layer{i}.attn.ln.gain", c.hidden)
            zeros(f"layer{i}.attn.ln.bias", c.hidden)
            w(f"layer{i}.ffn.w1", c.hidden, c.intermediate)
            zeros(f"layer{i}.ffn.b1", c.intermediate)
            w(f"layer{i}.ffn.w2", c.intermediate, c.hidden)
            zeros(f"layer{i}.ffn.b2", c.hidden)
            ones(f"layer{i}.ffn.ln.gain", c.hidden)
            zeros(f"layer{i}.ffn.ln.bias", c.hidden)
        w("mlm.transform.w", c.hidden, c.hidden)
        zeros("mlm.transform.b", c.hidden)
        ones("mlm.ln.gain", c.hidden)
        zeros("mlm.ln.bias", c.hidden)
        zeros("mlm.bias", c.vocab_size)
        w("nsp.pool.w", c.hidden, c.hidden)
        zeros("nsp.pool.b", c.hidden)
        w("nsp.out.w", 2, c.hidden)
        zeros("nsp.out.b", 2)
        self.params = p

    # ------------------------------------------------------------------
    def parameters(self):
        return self.params

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def _stack(self, pairs):
        ids = np.stack([p.ids for p in pairs])
        segs = np.stack([p.segment_ids for p in pairs])
        attn = np.stack([p.attention_mask for p in pairs])
        return ids, segs, attn

    def forward_ids(self, ids, segment_ids, attention_mask):
        """Hidden states (B, S, H) for a batch of id arrays."""
        c = self.config
        if ids.shape[1] > c.max_position:
            raise DimensionError(
                f"sequence length {ids.shape[1]} exceeds max_position {c.max_position}"
            )
        p = self.params
        pos = np.arange(ids.shape[1])
        x = T.add(
            T.add(
                T.embedding_lookup(p["embeddings.word"], ids),
                T.embedding_lookup(p["embeddings.position"], pos),
            ),
            T.embedding_lookup(p["embeddings.segment"], segment_ids),
        )
        x = T.layer_norm(x, p["embeddings.ln.gain"], p["embeddings.ln.bias"])
        # Additive attention bias: pad positions get a large negative score.
        bias = Tensor(((1 - attention_mask)[:, None, None, :] * -1e9).astype(np.float32))
        n_heads = c.n_heads
        head_dim = c.hidden // n_heads
        scale = 1.0 / np.sqrt(head_dim)
        b, s = ids.shape
        for i in range(c.n_layers):
            def proj(name_w, name_b):
                y = T.add(T.matmul(x, p[name_w]), p[name_b])
                y = T.reshape(y, (b, s, n_heads, head_dim))
                return T.transpose(y, (0, 2, 1, 3))

            q = proj(f"layer{i}.attn.wq", f"layer{i}.attn.bq")
            k = proj(f"layer{i}.attn.wk", f"layer{i}.attn.bk")
            v = proj(f"layer{i}.attn.wv", f"layer{i}.attn.bv")
            scores = T.add(T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale), bias)
            probs = T.softmax_rows(scores)
            ctx = T.matmul(probs, v)
            ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, s, c.hidden))
            attn_out = T.add(T.matmul(ctx, p[f"layer{i}.attn.wo"]), p[f"layer{i}.attn.bo"])
            x = T.layer_norm(
                T.add(x, attn_out),
                p[f"layer{i}.attn.ln.gain"], p[f"layer{i}.attn.ln.bias"],
            )
            h = T.gelu(T.add(T.matmul(x, p[f"layer{i}.ffn.w1"]), p[f"layer{i}.ffn.b1"]))
            ffn_out = T.add(T.matmul(h, p[f"layer{i}.ffn.w2"]), p[f"layer{i}.ffn.b2"])
            x = T.layer_norm(
                T.add(x, ffn_out),
                p[f"layer{i}.ffn.ln.gain"], p[f"layer{i}.ffn.ln.bias"],
            )
        return x

    def forward_batch(self, pairs):
        return self.forward_ids(*self._stack(pairs))

    # ------------------------------------------------------------------
    def cls_hidden(self, hidden):
        """(B, H) hidden vector at the [CLS] position."""
        return T.take_index(hidden, 0, axis=1)

    def nsp_logits(self, hidden):
        """(B, 2) logits (IsNext, NotNext) via the tanh pooler."""
        p = self.params
        h = self.cls_hidden(hidden)
        pooled = T.tanh_op(T.add(T.matmul(h, T.transpose(p["nsp.pool.w"], (1, 0))),
                                 p["nsp.pool.b"]))
        return T.add(T.matmul(pooled, T.transpose(p["nsp.out.w"], (1, 0))), p["nsp.out.b"])

    def nsp_probs(self, hidden):
        """(B, 2) probabilities (IsNext, NotNext)."""
        return T.softmax_rows(self.nsp_logits(hidden))

    # ------------------------------------------------------------------
    def mlm_logits(self, hidden, batch_idx, pos_idx):
        """(M, vocab) logits at selected positions; projection tied to embeddings."""
        p = self.params
        rows = T.gather_positions(hidden, batch_idx, pos_idx)
        t = T.gelu(T.add(T.matmul(rows, p["mlm.transform.w"]), p["mlm.transform.b"]))
        t = T.layer_norm(t, p["mlm.ln.gain"], p["mlm.ln.bias"])
        return T.add(T.matmul(t, T.transpose(p["embeddings.word"], (1, 0))), p["mlm.bias"])

    def mlm_mask_probs(self, pair):
        """(n_masks, vocab) probabilities at all recorded mask positions."""
        if not pair.mask_positions:
            raise ValidationError("pair has no recorded mask positions")
        with T.no_grad():
            hidden = self.forward_batch([pair])
            pos = np.array(pair.mask_positions)
            logits = self.mlm_logits(hidden, np.zeros(len(pos), dtype=np.int64), pos)
            probs = T.softmax_rows(logits)
        return probs.data.copy()

    # ------------------------------------------------------------------
    def save_checkpoint(self, path):
        names = sorted(self.params)
        offset = 0
        table = {}
        for name in names:
            arr = self.params[name].data
            table[name] = {"shape": list(arr.shape), "offset": offset}
            offset += arr.size * 4
        header = {
            "config": asdict(self.config),
            "tensors": table,
            "step": self.step,
            "seed": self.seed,
        }
        blob = json.dumps(header).encode("utf-8")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for name in names:
                f.write(self.params[name].data.astype("<f4").tobytes())

    @classmethod
    def load_checkpoint(cls, path):
        with open(path, "rb") as f:
            magic = f.read(8)
            if magic != CHECKPOINT_MAGIC:
                raise CheckpointFormatError(f"bad magic bytes in {path!r}: {magic!r}")
            raw_len = f.read(4)
            if len(raw_len) < 4:
                raise CheckpointTruncatedError(f"{path!r} ends inside the header length")
            (hlen,) = struct.unpack("<I", raw_len)
            blob = f.read(hlen)
            if len(blob) < hlen:
                raise CheckpointTruncatedError(f"{path!r} ends inside the JSON header")
            try:
                header = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise CheckpointFormatError(f"unreadable header in {path!r}: {e}") from e
            data = f.read()
        config = EncoderConfig(**header["config"])
        model = cls(config, seed=header.get("seed", 0))
        model.step = header.get("step", 0)
        for name in sorted(model.params):
            if name not in header["tensors"]:
                raise CheckpointShapeError(f"checkpoint missing tensor {name!r}")
            entry = header["tensors"][name]
            expected = model.params[name].data.shape
            if tuple(entry["shape"]) != expected:
                raise CheckpointShapeError(
                    f"tensor {name!r} has shape {tuple(entry['shape'])}, "
                    f"expected {expected}"
                )
            start = entry["offset"]
            nbytes = int(np.prod(expected, dtype=np.int64)) * 4
            chunk = data[start : start + nbytes]
            if len(chunk) < nbytes:
                raise CheckpointTruncatedError(
                    f"{path!r} ends inside tensor {name!r} data"
                )
            model.params[name].data = np.frombuffer(chunk, dtype="<f4").reshape(expected).copy()
        return model
