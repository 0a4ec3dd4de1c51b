"""The benchmark's own correctness gate, run on the cached pre-trained
checkpoint: `bench/workloads.py` is imported as it is, so a change that
would end a benchmark run as failed or incorrect fails here first."""

import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


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
