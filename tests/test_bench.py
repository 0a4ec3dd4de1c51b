"""The benchmark's own correctness gate, run on the cached pre-trained
checkpoint and on the tiny preset's initialisation: `bench/workloads.py` is
imported as it is, so a change that would end a benchmark run as failed or
incorrect fails here first."""

import inspect
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
import nspbert.harness  # noqa: E402
import nspbert.scoring  # noqa: E402
import nspbert.tensor  # noqa: E402
from nspbert.corpus import generate_corpus  # noqa: E402
from nspbert.model import EncoderConfig, EncoderModel  # noqa: E402
from nspbert.pretrain import vocab_from_documents  # noqa: E402

# Traced names the package no longer has: their metrics read 0.  None may
# join them.
DEAD_SPANS = {(nspbert.scoring, "render_single"), (nspbert.harness, "pet_score")}
DEAD_OPS = {"mean_all"}


def test_every_traced_name_is_live():
    """The tracer skips a name it cannot find, so a renamed function would
    leave its per-layer metric at 0 without a word."""
    dead = {(owner, attr) for owner, attr, _ in tracing.SPANNED if attr not in vars(owner)}
    assert dead <= DEAD_SPANS
    assert {op for op in tracing.TENSOR_OPS if op not in vars(nspbert.tensor)} <= DEAD_OPS


def test_every_live_traced_name_is_reached(pretrained):
    """A live name that no benchmark call reaches reads 0 as a dead one does,
    as when a refactor routes calls around it: one traced micro round
    records the span of every live entry."""
    state = workloads.setup(workloads.WORKLOADS["micro"], pretrained["checkpoint"], 1)
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        workloads.run_round(state, 0, defaultdict(list))
    finally:
        tracer.uninstall()
    live = {name for owner, attr, name in tracing.SPANNED if attr in vars(owner)}
    assert live - set(tracer.names) == set()


def test_forward_ids_keeps_the_ids_argument_the_tracer_counts():
    """The tracer counts positions from forward_ids' positional argument 1."""
    params = list(inspect.signature(EncoderModel.forward_ids).parameters)
    assert params[:4] == ["self", "ids", "segment_ids", "attention_mask"]


def test_micro_workload_checks_pass(pretrained):
    """The bench's micro checkpoint has the cached checkpoint's recipe:
    corpus seed 7, init and sampling seed 21, 2000 steps."""
    problems = []
    state = workloads.setup(workloads.WORKLOADS["micro"], pretrained["checkpoint"], 1)
    workloads.check_outputs(state, problems)
    workloads.check_pretraining(state, [step["total"] for step in pretrained["trace"]],
                                problems)
    _, outputs = workloads.run_round(state, 0, defaultdict(list))
    workloads.check_round(state, outputs, problems)
    assert problems == []


def test_micro_run_seed_8_round_22_checks_pass(pretrained):
    """The round where dev accuracy is 1.0 before tuning and after every
    epoch, and the first trained epoch scores below zero-shot on test by more
    than check_round's margin: tuning keeps the starting weights, which win
    the tie on dev."""
    problems = []
    state = workloads.setup(workloads.WORKLOADS["micro"], pretrained["checkpoint"], 8)
    workloads.check_outputs(state, problems)
    _, outputs = workloads.run_round(state, 22, defaultdict(list))
    workloads.check_round(state, outputs, problems)
    assert problems == []


def test_tiny_workload_checks_pass(tmp_path):
    """The bench's tiny checkpoint: the tiny preset's seed-0 initialisation
    on the standard vocab.  Its width, 384, is where the float64 reference
    checks the flattened GEMMs, and the round trip checks the load."""
    vocab = vocab_from_documents(generate_corpus(workloads.STANDARD_CORPUS))
    ckpt = str(tmp_path / "tiny.nsp")
    EncoderModel(EncoderConfig.preset("tiny", len(vocab)), seed=0).save_checkpoint(ckpt)
    vocab.save(ckpt + ".vocab")
    problems = []
    state = workloads.setup(workloads.WORKLOADS["tiny"], ckpt, 1)
    workloads.check_outputs(state, problems)
    workloads.check_pretraining(state, None, problems)
    _, outputs = workloads.run_round(state, 0, defaultdict(list))
    tuned = workloads.check_round(state, outputs, problems)
    workloads.check_checkpoints(state, tuned, str(tmp_path / "roundtrip.nsp"), problems)
    assert problems == []
