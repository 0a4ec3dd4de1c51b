"""The benchmark's own correctness gate, run on the cached pre-trained
checkpoint and on the tiny preset's initialisation: `bench/workloads.py` is
imported as it is, so a change that would end a benchmark run as failed or
incorrect fails here first."""

import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from nspbert.corpus import generate_corpus  # noqa: E402
from nspbert.model import EncoderConfig, EncoderModel  # noqa: E402
from nspbert.pretrain import vocab_from_documents  # noqa: E402


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
