"""Run one benchmark workload; the last line of stdout is its result as JSON.

    python3 bench/run.py --workload micro --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the same rounds (odd rounds traced, even rounds not, which gives
the tracing overhead).  The first run in a checkout builds the checkpoints
(``bench/checkpoints.py``); that time is printed and not counted.  Each run
leaves a record of its environment, samples and checks in
``.bench_build/runs/``; traced runs also write their spans there.
"""

from __future__ import annotations

import os

# One BLAS thread: the package targets a single core, and a second BLAS
# thread shares the machine's other core with whatever else runs there.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MIN_ROUNDS = 2
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "pretrain_step_ms": "ms",
    "zs_nsp_ex_per_s": "ex/s", "zs_pet_ex_per_s": "ex/s", "zs_samples_ex_per_s": "ex/s",
    "zs_thresholds_ex_per_s": "ex/s", "nsp_tune_s": "s", "fine_tune_s": "s",
    "ckpt_load_ms": "ms",
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("micro", "tiny"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def checkpoint_paths():
    """Paths of the current checkpoints, building them in a child process if stale."""
    import checkpoints

    paths = checkpoints.paths(checkpoints.source_key())
    if not paths["manifest"].exists():
        subprocess.run([sys.executable, str(BENCH / "checkpoints.py")], check=True,
                       stdout=sys.stderr, timeout=850)
    return paths


def main():
    args = parse_args()
    if not (ROOT / "src" / "nspbert").is_dir():
        sys.exit(f"no package source at {ROOT / 'src' / 'nspbert'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    paths = checkpoint_paths()

    import workloads
    from tracing import Tracer

    spec = workloads.WORKLOADS[args.workload]
    ckpt = str(paths[spec.checkpoint])
    build_trace = json.loads(paths["micro_trace"].read_text()) if spec.pretrained else None
    out_dir = ROOT / ".bench_build" / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        state = workloads.setup(spec, ckpt, args.seed)
        setup_s.append(perf_counter() - t)

    # The checks before the rounds also warm every code path the rounds time;
    # pre-training last, as each round starts with it.
    problems = []
    accuracies = workloads.check_outputs(state, problems)
    workloads.check_pretraining(state, build_trace, problems)
    tracer = Tracer() if args.trace else None
    samples, rounds = defaultdict(list), []
    cpu0, wall0 = process_time(), perf_counter()
    while True:
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install(r)
        try:
            measured, outputs = workloads.run_round(state, r, samples)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"measured_s": measured, "traced": traced})
        tuned_model = workloads.check_round(state, outputs, problems)
        total = sum(x["measured_s"] for x in rounds)
        if len(rounds) >= MIN_ROUNDS and total + 0.5 * total / len(rounds) >= args.seconds:
            break
    cpu_s, wall_s = process_time() - cpu0, perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scratch = ROOT / ".bench_build" / f"roundtrip-{os.getpid()}.nsp"
    try:
        workloads.check_checkpoints(state, tuned_model, str(scratch), problems)
    finally:
        scratch.unlink(missing_ok=True)

    med = statistics.median
    if tracer is None:
        values = {"setup_s": med(setup_s), "peak_rss_mb": peak_rss_mb}
        values.update({m: med(v) for m, v in samples.items()})
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    else:
        plain = [x["measured_s"] for x in rounds if not x["traced"]]
        traced = [x["measured_s"] for x in rounds if x["traced"]]
        overhead_pct = 100.0 * (med(traced) / med(plain) - 1.0)
        metrics = tracer.per_layer(len(traced), overhead_pct)
        tracer.write(out_dir / f"{stem}.spans.json", {"workload": args.workload,
                                                      "seed": args.seed})

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "setup_s": setup_s,
              "rounds": rounds, "cpu_s": cpu_s, "wall_s": wall_s, "samples": samples,
              "accuracies": accuracies, "problems": problems}
    (out_dir / f"{stem}.json").write_text(json.dumps(record))
    print("env " + json.dumps(record["env"]))
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    result = {"correct": not problems,
              "attempted": workloads.ops_per_round(spec) * len(rounds),
              "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
