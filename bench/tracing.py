"""In-memory spans around calls into nspbert, installed from outside the package.

Each traced function is replaced at the attribute its caller looks it up
by (a module global such as ``nspbert.tuning.predict_candidates_batch``,
or a class attribute such as ``Tokenizer.encode_pair``) and restored
afterwards, so nothing under ``src/`` changes and untraced rounds run the
original functions.  A span records its name, start, end, parent span and
the round it belongs to; the spans of one round share that round number.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import nspbert.harness
import nspbert.scoring
import nspbert.tensor
import nspbert.tuning
from nspbert.model import EncoderModel
from nspbert.tokenizer import PAD, SPECIAL_TOKENS, Tokenizer

# The package re-exports its pretrain() function under the submodule's name.
pretraining = importlib.import_module("nspbert.pretrain")

# (owner, attribute, span name): one entry per place a caller looks a name up.
SPANNED = [
    (Tokenizer, "encode_pair", "tokenizer.encode_pair"),
    (Tokenizer, "encode_single", "tokenizer.encode_single"),
    (nspbert.scoring, "render_single", "prompting.render_single"),
    (nspbert.tuning, "render_single", "prompting.render_single"),
    (nspbert.scoring, "render_pet", "prompting.render_pet"),
    (EncoderModel, "forward_ids", "model.forward_ids"),
    (EncoderModel, "mlm_logits", "model.mlm_logits"),
    (EncoderModel, "nsp_logits", "model.nsp_logits"),
    (EncoderModel, "load_checkpoint", "model.load_checkpoint"),
    (nspbert.tensor, "backward", "tensor.backward"),
    (nspbert.tensor.Adam, "step", "tensor.Adam.step"),
    (nspbert.tensor, "matmul", "tensor.matmul"),
    (nspbert.tensor, "gelu", "tensor.gelu"),
    (nspbert.tensor, "layer_norm", "tensor.layer_norm"),
    (nspbert.tensor, "softmax_rows", "tensor.softmax_rows"),
    (pretraining, "sample_nsp_pair", "corpus.sample_nsp_pair"),
    (pretraining, "mask_tokens", "corpus.mask_tokens"),
    (pretraining, "pretrain", "pretrain.pretrain"),
    (nspbert.harness, "pet_score", "scoring.pet_score"),
    (nspbert.harness, "samples_contrast", "scoring.samples_contrast"),
    (nspbert.harness, "thresholds_from_dev", "scoring.thresholds_from_dev"),
    (nspbert.tuning, "predict_candidates_batch", "tuning.predict_candidates_batch"),
    (nspbert.harness, "predict_candidates_batch", "tuning.predict_candidates_batch"),
    (nspbert.tuning, "nsp_tune", "tuning.nsp_tune"),
    (nspbert.tuning, "fine_tune_baseline", "tuning.fine_tune_baseline"),
    (nspbert.harness, "score_pairs", "harness.score_pairs"),
    (nspbert.harness, "evaluate", "harness.evaluate"),
    (nspbert.harness, "kshot_split", "harness.kshot_split"),
]

# Every public differentiable op; calls are counted, not timed, to keep the
# per-op cost of tracing small next to micro-sized ops.
TENSOR_OPS = [
    "add", "mul", "matmul", "transpose", "reshape", "tanh_op", "gelu",
    "softmax_rows", "layer_norm", "embedding_lookup", "gather_positions",
    "take_index", "sum_all", "mean_all", "cross_entropy", "binary_cross_entropy",
]

# Per-layer metrics: name -> (unit, better).  Time and count metrics are per
# traced round.
PER_LAYER = {
    "tokenizer.encode_pair.calls": ("count", "lower"),
    "tokenizer.encode_pair.ms": ("ms", "lower"),
    "tokenizer.encode_single.calls": ("count", "lower"),
    "prompting.render_single.ms": ("ms", "lower"),
    "prompting.render_pet.ms": ("ms", "lower"),
    "model.forward_ids.calls": ("count", "lower"),
    "model.forward_ids.ms": ("ms", "lower"),
    "model.forward_ids.positions": ("count", "lower"),
    "model.real_token_frac": ("ratio", "higher"),
    "model.mlm_logits.ms": ("ms", "lower"),
    "model.nsp_logits.ms": ("ms", "lower"),
    "model.load_checkpoint.ms": ("ms", "lower"),
    "tensor.backward.ms": ("ms", "lower"),
    "tensor.Adam.step.ms": ("ms", "lower"),
    "tensor.matmul.ms": ("ms", "lower"),
    "tensor.gelu.ms": ("ms", "lower"),
    "tensor.gelu.elements": ("count", "lower"),
    "tensor.layer_norm.ms": ("ms", "lower"),
    "tensor.softmax_rows.ms": ("ms", "lower"),
    "tensor.ops.calls": ("count", "lower"),
    "corpus.sample_nsp_pair.ms": ("ms", "lower"),
    "corpus.mask_tokens.ms": ("ms", "lower"),
    "scoring.pet_score.ms": ("ms", "lower"),
    "scoring.samples_contrast.ms": ("ms", "lower"),
    "scoring.thresholds_from_dev.ms": ("ms", "lower"),
    "tuning.train.ms": ("ms", "lower"),
    "tuning.dev_eval.ms": ("ms", "lower"),
    "tuning.dev_eval.calls": ("count", "lower"),
    "harness.score_pairs.ms": ("ms", "lower"),
    "harness.evaluate.ms": ("ms", "lower"),
    "harness.kshot_split.ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """Span and counter store; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.rounds = [], [], [], [], []
        self.counts = Counter()
        self.round = -1
        self._stack = []
        self._saved = []

    # -- recording ------------------------------------------------------
    def _open(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counts, args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["tensor.ops.calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------
    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, round_index):
        self.round = round_index
        for op in TENSOR_OPS:
            if op in vars(nspbert.tensor):
                self._replace(nspbert.tensor, op, self._counted(getattr(nspbert.tensor, op)))
        for owner, attr, name in SPANNED:
            # A function the package no longer has is skipped; its metrics read 0.
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self._spanned(name, raw.__func__)))
            else:
                self._replace(owner, attr, self._spanned(name, raw, _COUNTERS.get(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------
    def layer_table(self):
        """name -> {calls, total_ms, self_ms}, summed over all traced rounds."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        table = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = table[name]
            row["calls"] += 1
            row["total_ms"] += 1e3 * dur
            row["self_ms"] += 1e3 * (dur - child[i])
        return dict(table)

    def _has_ancestor(self, idx, name):
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def per_layer(self, n_rounds, overhead_pct):
        """The PER_LAYER metrics, per traced round."""
        table = self.layer_table()

        def ms(name):
            return table.get(name, {}).get("total_ms", 0.0)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        dev_ms, dev_calls = 0.0, 0
        for i, name in enumerate(self.names):
            if name == "tuning.predict_candidates_batch" and \
                    self._has_ancestor(i, "tuning.nsp_tune"):
                dev_ms += 1e3 * (self.ends[i] - self.starts[i])
                dev_calls += 1
        positions = self.counts["model.forward_ids.positions"]
        values = {
            "tokenizer.encode_pair.calls": calls("tokenizer.encode_pair"),
            "tokenizer.encode_single.calls": calls("tokenizer.encode_single"),
            "model.forward_ids.calls": calls("model.forward_ids"),
            "model.forward_ids.positions": positions,
            "tensor.gelu.elements": self.counts["tensor.gelu.elements"],
            "tensor.ops.calls": self.counts["tensor.ops.calls"],
            "tuning.train.ms": ms("tuning.nsp_tune") - dev_ms,
            "tuning.dev_eval.ms": dev_ms,
            "tuning.dev_eval.calls": dev_calls,
        }
        for metric in PER_LAYER:
            if metric.endswith(".ms") and metric not in values:
                values[metric] = ms(metric[: -len(".ms")])
        out = {k: v / n_rounds for k, v in values.items()}
        out["model.real_token_frac"] = (
            self.counts["model.forward_ids.real"] / positions if positions else 0.0)
        out["trace.overhead_pct"] = overhead_pct
        return {k: {"value": out[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}

    def write(self, path, extra):
        spans = {"name": self.names, "start": self.starts, "end": self.ends,
                 "parent": self.parents, "round": self.rounds}
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "layers": self.layer_table(),
                       "counts": dict(self.counts), "spans": spans}, f)


_PAD_ID = SPECIAL_TOKENS.index(PAD)  # vocabularies begin with the special tokens


def _count_forward(counts, args, kwargs):
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    counts["model.forward_ids.positions"] += int(ids.size)
    counts["model.forward_ids.real"] += int(np.count_nonzero(ids != _PAD_ID))


def _count_gelu(counts, args, kwargs):
    counts["tensor.gelu.elements"] += int(getattr(args[0], "size", 1))


_COUNTERS = {"model.forward_ids": _count_forward, "tensor.gelu": _count_gelu}
