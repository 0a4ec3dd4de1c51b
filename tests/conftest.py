"""Shared fixtures and the finite-difference gradient oracle."""

import numpy as np
import pytest

from nspbert.corpus import SyntheticCorpusConfig, generate_corpus, sample_nsp_pairs
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.pretrain import pretrain, vocab_from_documents

FD_STEP = 1e-3


def fd_grad(f, x, step=FD_STEP):
    """Central finite differences of scalar f w.r.t. every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2 * step)
        it.iternext()
    return grad


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))) / denom


# ---------------------------------------------------------------------------
# A single pre-trained micro checkpoint shared by the expensive tests.

STANDARD_CORPUS = SyntheticCorpusConfig(seed=7)
PRETRAIN_STEPS = 2000
PRETRAIN_SEED = 21


@pytest.fixture(scope="session")
def pretrained(tmp_path_factory):
    """Micro model pre-trained on the standard synthetic corpus.

    Returns (model path, vocab, documents, loss trace).  Cached on disk
    because training is deterministic given the seed.
    """
    cache_dir = tmp_path_factory.getbasetemp().parent / "nspbert_pretrain_cache"
    cache_dir.mkdir(exist_ok=True)
    tag = f"s{STANDARD_CORPUS.seed}-t{PRETRAIN_STEPS}-p{PRETRAIN_SEED}-v6"
    ckpt = cache_dir / f"micro-{tag}.nsp"
    docs = generate_corpus(STANDARD_CORPUS)
    vocab = vocab_from_documents(docs)
    import json

    trace_path = cache_dir / f"micro-{tag}.trace.json"
    if not (ckpt.exists() and trace_path.exists()):
        model = EncoderModel(
            EncoderConfig.preset("micro", vocab_size=len(vocab)), seed=PRETRAIN_SEED
        )
        trace = pretrain(model, docs, vocab, steps=PRETRAIN_STEPS, seed=PRETRAIN_SEED)
        model.save_checkpoint(ckpt)
        vocab.save(str(ckpt) + ".vocab")
        trace_path.write_text(json.dumps(trace))
    trace = json.loads(trace_path.read_text())
    return {"checkpoint": str(ckpt), "vocab": vocab, "documents": docs, "trace": trace}


@pytest.fixture()
def pretrained_model(pretrained):
    return EncoderModel.load_checkpoint(pretrained["checkpoint"])


@pytest.fixture(scope="session")
def heldout_pairs():
    """NSP pairs from documents disjoint from the pre-training corpus."""
    import dataclasses

    cfg = dataclasses.replace(STANDARD_CORPUS, n_documents=60, seed=STANDARD_CORPUS.seed + 500)
    docs = generate_corpus(cfg, id_prefix="heldout")
    return sample_nsp_pairs(docs, 200, seed=123)
