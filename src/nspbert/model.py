"""Mini BERT-style encoder with an MLM head and the tanh-pooled NSP head.

The NSP head computes s = W_nsp tanh(W h_cls + b); logits are ordered
(IsNext, NotNext).  The MLM output projection is tied to the input word
embedding table.  Checkpoints are little-endian binary with a JSON
header (magic "NSPBERT1").
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    DimensionError,
    ValidationError,
    is_int,
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
        for name, value in asdict(self).items():
            if value < 1:
                raise ValidationError(f"{name} must be >= 1, got {value}")
        if self.hidden % self.n_heads != 0:
            raise ValidationError(
                f"hidden size {self.hidden} not divisible by {self.n_heads} heads"
            )
        if self.max_position < 16:
            raise ValidationError(f"max_position must be >= 16, got {self.max_position}")

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


def _read_header(f, path):
    """(header, EncoderConfig) of an open checkpoint, read up to its tensor
    data and checked against the header schema."""
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointFormatError(f"unreadable header in {path!r}: {e}") from e

    def check(ok, what):
        if not ok:
            raise CheckpointFormatError(f"bad header in {path!r}: {what}")

    check(isinstance(header, dict), "not a JSON object")
    config, tensors = header.get("config"), header.get("tensors")
    names = sorted(field.name for field in fields(EncoderConfig))
    check(isinstance(config, dict) and sorted(config) == names
          and all(is_int(v) for v in config.values()),
          f"config must hold exactly the integer fields {names}")
    check(is_int(header.get("step", 0)), "step must be an integer")
    check(is_int(header.get("seed", 0)) and header.get("seed", 0) >= 0,
          "seed must be a non-negative integer")
    check(isinstance(tensors, dict), "tensors must be a JSON object")
    for name, entry in tensors.items():
        check(isinstance(entry, dict) and isinstance(entry.get("shape"), list)
              and all(is_int(d) for d in entry["shape"])
              and is_int(entry.get("offset")) and entry["offset"] >= 0,
              f"tensor {name!r} needs an integer shape list and a non-negative "
              "integer offset")
    try:
        return header, EncoderConfig(**config)
    except ValidationError as e:
        raise CheckpointFormatError(f"bad config in {path!r}: {e}") from e


def param_layout(config):
    """{name: (shape, init)} of every parameter, in initialisation order; init
    is "normal" (truncated normal, the only one that draws), "zeros" or "ones"."""
    c, h, f = config, config.hidden, 4 * config.hidden  # f: the FFN width
    layout = {}

    def add(init, shape, *names):
        layout.update((name, (shape, init)) for name in names)

    add("normal", (c.vocab_size, h), "embeddings.word")
    add("normal", (c.max_position, h), "embeddings.position")
    add("normal", (c.type_vocab, h), "embeddings.segment")
    add("ones", (h,), "embeddings.ln.gain")
    add("zeros", (h,), "embeddings.ln.bias")
    for i in range(c.n_layers):
        attn, ffn = f"layer{i}.attn.", f"layer{i}.ffn."
        add("normal", (h, h), *(attn + mat for mat in ("wq", "wk", "wv", "wo")))
        add("zeros", (h,), *(attn + vec for vec in ("bq", "bk", "bv", "bo")))
        add("ones", (h,), attn + "ln.gain")
        add("zeros", (h,), attn + "ln.bias")
        add("normal", (h, f), ffn + "w1")
        add("zeros", (f,), ffn + "b1")
        add("normal", (f, h), ffn + "w2")
        add("zeros", (h,), ffn + "b2")
        add("ones", (h,), ffn + "ln.gain")
        add("zeros", (h,), ffn + "ln.bias")
    add("normal", (h, h), "mlm.transform.w")
    add("zeros", (h,), "mlm.transform.b")
    add("ones", (h,), "mlm.ln.gain")
    add("zeros", (h,), "mlm.ln.bias")
    add("zeros", (c.vocab_size,), "mlm.bias")
    add("normal", (h, h), "nsp.pool.w")
    add("zeros", (h,), "nsp.pool.b")
    add("normal", (2, h), "nsp.out.w")
    add("zeros", (2,), "nsp.out.b")
    return layout


def init_arrays(config, rng, prefix=""):
    """Fresh arrays of the layout entries whose names start with `prefix`,
    drawn from rng in layout order."""
    return {name: _trunc_normal(rng, shape) if init == "normal"
            else np.full(shape, 1.0 if init == "ones" else 0.0, dtype=np.float32)
            for name, (shape, init) in param_layout(config).items() if name.startswith(prefix)}


class EncoderModel:
    """Transformer encoder (post-layer-norm blocks) + MLM and NSP heads."""

    def __init__(self, config, seed=0, arrays=None, step=0):
        """Parameters drawn from `seed`, or wrapping `arrays` ({name: float32
        array} for every layout entry) with no draw; `step` counts the
        training steps taken."""
        self.config = config
        self.seed = seed
        self.step = step
        if arrays is None:
            arrays = init_arrays(config, np.random.default_rng(seed))
        self.params = {name: Tensor(arrays[name], requires_grad=True)
                       for name in param_layout(config)}

    def copy(self):
        """An independent model holding copies of this one's arrays."""
        return EncoderModel(self.config, self.seed,
                            {name: p.data.copy() for name, p in self.params.items()}, self.step)

    # ------------------------------------------------------------------
    def _check_width(self, width):
        if width > self.config.max_position:
            raise DimensionError(
                f"sequence length {width} exceeds max_position {self.config.max_position}"
            )

    def _stack(self, pairs):
        """Id, segment and mask arrays of encoded inputs, cut after the last
        position where any input holds a real token.  Pad keys add exactly 0
        to attention, so the cut moves real positions' states by float
        rounding only.  The padded width is checked first, so a task too wide
        for the model fails on every input alike."""
        self._check_width(len(pairs[0]))
        attn = np.stack([p.attention_mask for p in pairs])
        s = int(np.flatnonzero(attn.any(axis=0)).max(initial=0)) + 1
        ids = np.stack([p.ids for p in pairs])
        segs = np.stack([p.segment_ids for p in pairs])
        return ids[:, :s], segs[:, :s], attn[:, :s]

    def forward_ids(self, ids, segment_ids, attention_mask):
        """Hidden states (B, S, H) for a batch of id arrays."""
        c = self.config
        self._check_width(ids.shape[1])
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
        """Hidden states (B, S, H) of encoded inputs; S is the longest real
        input's length, not the padded width."""
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
            header, config = _read_header(f, path)
            data = f.read()
        layout = param_layout(config)
        unknown = sorted(set(header["tensors"]) - set(layout))
        if unknown:
            raise CheckpointShapeError(f"checkpoint has unknown tensor {unknown[0]!r}")
        arrays = {}
        for name in sorted(layout):
            if name not in header["tensors"]:
                raise CheckpointShapeError(f"checkpoint missing tensor {name!r}")
            entry = header["tensors"][name]
            expected = layout[name][0]
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
            arrays[name] = np.frombuffer(chunk, dtype="<f4").reshape(expected).copy()
        return cls(config, header.get("seed", 0), arrays, header.get("step", 0))
