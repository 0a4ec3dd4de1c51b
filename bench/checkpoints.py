"""Build the benchmark's checkpoints with nspbert itself, once per package source.

    python3 bench/checkpoints.py

- ``micro``: the micro preset pre-trained for 2000 joint MLM + NSP steps on
  the standard synthetic corpus (corpus seed 7, init and sampling seed 21),
  with its per-step loss trace.
- ``tiny``: the tiny preset at its fixed-seed initialisation.

Files go to ``.bench_build/checkpoints/`` under a key hashed from
``src/nspbert`` and the recipe below, so any change to the package source
rebuilds them.  Build time is printed and is not part of any run's set-up.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_build" / "checkpoints"
RECIPE = {"corpus_seed": 7, "micro_seed": 21, "micro_steps": 2000, "tiny_seed": 0}


def source_key():
    h = hashlib.sha256(json.dumps(RECIPE, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "nspbert").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def paths(key):
    d = CACHE / key
    return {"micro": d / "micro.nsp", "tiny": d / "tiny.nsp",
            "micro_trace": d / "micro.trace.json", "manifest": d / "manifest.json"}


def build(key):
    sys.path.insert(0, str(ROOT / "src"))
    from nspbert.corpus import SyntheticCorpusConfig, generate_corpus, sample_nsp_pairs
    from nspbert.model import EncoderConfig, EncoderModel
    from nspbert.pretrain import nsp_accuracy, pretrain, vocab_from_documents

    p = paths(key)
    p["micro"].parent.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    corpus = SyntheticCorpusConfig(seed=RECIPE["corpus_seed"])
    docs = generate_corpus(corpus)
    vocab = vocab_from_documents(docs)
    micro = EncoderModel(EncoderConfig.preset("micro", len(vocab)), seed=RECIPE["micro_seed"])
    trace = pretrain(micro, docs, vocab, steps=RECIPE["micro_steps"], seed=RECIPE["micro_seed"])
    heldout = generate_corpus(dataclasses.replace(corpus, n_documents=60, seed=corpus.seed + 500),
                              id_prefix="heldout")
    nsp_acc = nsp_accuracy(micro, vocab, sample_nsp_pairs(heldout, 200, seed=123))
    tiny = EncoderModel(EncoderConfig.preset("tiny", len(vocab)), seed=RECIPE["tiny_seed"])
    for name, model in (("micro", micro), ("tiny", tiny)):
        model.save_checkpoint(p[name])
        vocab.save(str(p[name]) + ".vocab")
    p["micro_trace"].write_text(json.dumps([t["total"] for t in trace]))
    manifest = {"key": key, "build_s": time.perf_counter() - t0,
                "heldout_nsp_accuracy": nsp_acc, "recipe": RECIPE}
    tmp = p["manifest"].with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest))
    os.replace(tmp, p["manifest"])
    for stale in CACHE.iterdir():
        if stale.name != key:
            for f in stale.iterdir():
                f.unlink()
            stale.rmdir()
    return manifest


def main():
    key = source_key()
    manifest_path = paths(key)["manifest"]
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        print(f"checkpoints {key} up to date (built in {manifest['build_s']:.1f} s)")
    else:
        manifest = build(key)
        print(f"checkpoints {key} built in {manifest['build_s']:.1f} s; "
              f"held-out NSP accuracy {manifest['heldout_nsp_accuracy']:.3f}")


if __name__ == "__main__":
    main()
