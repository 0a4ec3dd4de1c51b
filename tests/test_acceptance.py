"""Acceptance suite: ten end-to-end criteria, one test each.

Each test prints a single PASS line with its measured numbers; criteria
4-7 share the cached 2000-step micro pre-training run from conftest.
"""

import dataclasses
import math

import numpy as np
import pytest

import nspbert.tensor as T
from nspbert.corpus import generate_corpus
from nspbert.harness import (
    DEFAULT_SEEDS,
    Example,
    KShotSplit,
    evaluate,
    kshot_split,
    make_synthetic_task,
    mean_std,
    run_split,
)
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.pretrain import nsp_accuracy
from nspbert.prompting import PromptTemplate, TaskConfig, Verbalizer, render_pet
from nspbert.scoring import (
    LabelDistribution,
    ScoredSample,
    apply_thresholds,
    pet_score,
    samples_contrast,
    thresholds_from_dev,
)
from nspbert.tensor import Tensor
from nspbert.tokenizer import Tokenizer, Vocab, build_vocab
from nspbert.tuning import VARIANTS, TuningConfig
from conftest import STANDARD_CORPUS, fd_grad, rel_err

# Few-shot protocol constants for criteria 6-7.
K = 16
TUNE_EPOCHS = 6
TUNE_LR = 1e-4
DEV_SUBSET = 150  # dev examples used for epoch selection / evaluation
TEST_SUBSET = 300  # test examples scored per seed


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


# ---------------------------------------------------------------------------
# Shared few-shot machinery (criteria 5, 6, 7)


@pytest.fixture(scope="session")
def topic_task():
    examples, task = make_synthetic_task(STANDARD_CORPUS, "topic", seed=1)
    return examples, task


@pytest.fixture(scope="session")
def fewshot_splits(topic_task):
    examples, task = topic_task
    rng = np.random.default_rng(99)
    splits = []
    for seed in DEFAULT_SEEDS:
        s = kshot_split(examples, K, seed)
        dev = [s.dev[i] for i in rng.choice(len(s.dev), DEV_SUBSET, replace=False)]
        test = [s.test[i] for i in rng.choice(len(s.test), TEST_SUBSET, replace=False)]
        splits.append(KShotSplit(s.train, dev, test, seed))
    return splits


@pytest.fixture(scope="session")
def zeroshot_by_seed(pretrained, fewshot_splits, topic_task):
    _, task = topic_task
    model = EncoderModel.load_checkpoint(pretrained["checkpoint"])
    vocab = pretrained["vocab"]
    return [evaluate(model, vocab, s.test, task, "zero_shot_nsp")
            for s in fewshot_splits]


@pytest.fixture(scope="session")
def ablation_results(pretrained, fewshot_splits, topic_task):
    _, task = topic_task
    vocab = pretrained["vocab"]
    model = EncoderModel.load_checkpoint(pretrained["checkpoint"])
    out = {}
    for variant in VARIANTS:
        tuning = TuningConfig(epochs=TUNE_EPOCHS, lr=TUNE_LR, batch_size=8, variant=variant)
        runs = [run_split(model, split, task, vocab, tuning)
                for split in fewshot_splits]
        mean, std = mean_std([run.test_acc for run in runs])
        out[variant] = ([run.row() for run in runs],
                        {"variant": variant, "mean": mean, "std": std})
    return out


# ---------------------------------------------------------------------------
# 1. Gradient correctness


class TestCriterion1:
    OPS = ["add", "mul", "matmul", "tanh", "gelu", "softmax", "layer_norm",
           "embedding", "cross_entropy", "bce"]

    def _check_op(self, op, rng):
        if op in ("add", "mul"):
            a0 = rng.uniform(-2, 2, (3, 4))
            b0 = rng.uniform(-2, 2, (4,))
            fn = T.add if op == "add" else T.mul
            ref = (lambda x: float((x + b0).sum())) if op == "add" else \
                (lambda x: float((x * b0).sum()))
            a = Tensor(a0, requires_grad=True)
            T.backward(T.sum_all(fn(a, Tensor(b0))))
            return rel_err(a.grad, fd_grad(ref, a0))
        if op == "matmul":
            a0 = rng.uniform(-2, 2, (3, 4))
            b0 = rng.uniform(-2, 2, (4, 2))
            a = Tensor(a0, requires_grad=True)
            T.backward(T.sum_all(T.matmul(a, Tensor(b0))))
            return rel_err(a.grad, fd_grad(lambda x: float((x @ b0).sum()), a0))
        if op in ("tanh", "gelu"):
            x0 = rng.uniform(-2, 2, 12)
            fn = T.tanh_op if op == "tanh" else T.gelu
            x = Tensor(x0, requires_grad=True)
            T.backward(T.sum_all(fn(x)))

            def ref(v):
                if op == "tanh":
                    return float(np.tanh(v).sum())
                return float((v * 0.5 * (1 + np.vectorize(math.erf)(v / math.sqrt(2)))).sum())

            return rel_err(x.grad, fd_grad(ref, x0))
        if op == "softmax":
            x0 = rng.uniform(-3, 3, (2, 5))
            w = rng.uniform(-1, 1, (2, 5))
            x = Tensor(x0, requires_grad=True)
            T.backward(T.sum_all(T.mul(T.softmax_rows(x), Tensor(w))))

            def ref(v):
                s = v - v.max(axis=-1, keepdims=True)
                p = np.exp(s) / np.exp(s).sum(axis=-1, keepdims=True)
                return float((p * w).sum())

            return rel_err(x.grad, fd_grad(ref, x0))
        if op == "layer_norm":
            x0 = rng.uniform(-2, 2, (2, 6))
            g0 = rng.uniform(0.5, 1.5, 6)
            b0 = rng.uniform(-0.5, 0.5, 6)
            w = rng.uniform(-1, 1, (2, 6))
            x = Tensor(x0, requires_grad=True)
            T.backward(T.sum_all(T.mul(
                T.layer_norm(x, Tensor(g0), Tensor(b0)), Tensor(w))))

            def ref(v):
                mu = v.mean(axis=-1, keepdims=True)
                var = v.var(axis=-1, keepdims=True)
                return float((((v - mu) / np.sqrt(var + 1e-5) * g0 + b0) * w).sum())

            return rel_err(x.grad, fd_grad(ref, x0))
        if op == "embedding":
            t0 = rng.uniform(-1, 1, (6, 3))
            ids = rng.integers(0, 6, size=5)
            t = Tensor(t0, requires_grad=True)
            T.backward(T.sum_all(T.embedding_lookup(t, ids)))
            return rel_err(t.grad, fd_grad(lambda v: float(v[ids].sum()), t0))
        if op == "cross_entropy":
            x0 = rng.uniform(-2, 2, (3, 4))
            tgt = rng.integers(0, 4, size=3)
            x = Tensor(x0, requires_grad=True)
            T.backward(T.cross_entropy(x, tgt))

            def ref(v):
                m = v.max(axis=-1, keepdims=True)
                lse = (m[:, 0] + np.log(np.exp(v - m).sum(axis=-1)))
                return float((lse - v[np.arange(3), tgt]).mean())

            return rel_err(x.grad, fd_grad(ref, x0))
        # bce
        p0 = rng.uniform(0.05, 0.95, 6)
        y = rng.integers(0, 2, size=6).astype(float)
        p = Tensor(p0, requires_grad=True)
        T.backward(T.binary_cross_entropy(p, y))

        def ref(v):
            return float((-(y * np.log(v) + (1 - y) * np.log(1 - v))).mean())

        return rel_err(p.grad, fd_grad(ref, p0))

    def test_criterion_1_gradients(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for op in self.OPS:
            for _ in range(20):
                err = self._check_op(op, rng)
                assert err < 1e-3, (op, err)
                worst = max(worst, err)
        # Full micro-encoder NSP-tuning (BCE) loss, in float64 so the
        # finite-difference oracle resolves every parameter.
        corpus = ["alpha beta gamma delta", "epsilon zeta eta theta"]
        vocab = build_vocab(corpus, max_size=64)
        tok = Tokenizer(vocab)
        model = EncoderModel(
            EncoderConfig.preset("micro", vocab_size=len(vocab), max_position=32),
            seed=5,
        )
        for p in model.params.values():
            p.data = p.data.astype(np.float64)
        pairs = [tok.encode_pair("alpha beta", "gamma delta", 12),
                 tok.encode_pair("alpha beta", "epsilon zeta", 12)]
        targets = np.array([1.0, 0.0])

        def loss_fn():
            hidden = model.forward_batch(pairs)
            q = T.take_index(model.nsp_probs(hidden), 0, axis=1)
            return T.binary_cross_entropy(q, targets)

        T.backward(loss_fn())
        # the MLM head takes no part in the NSP loss; skip untouched params
        flat = {name: p.grad.reshape(-1) for name, p in model.params.items()
                if p.grad is not None}
        names = sorted(flat)
        sizes = np.array([flat[n].size for n in names])
        offsets = np.cumsum(sizes)
        total = int(offsets[-1])
        ad_vec, fd_vec = [], []
        step = 1e-3
        for gi in rng.choice(total, size=20, replace=False):
            ni = int(np.searchsorted(offsets, gi, side="right"))
            li = int(gi - (offsets[ni - 1] if ni else 0))
            p = model.params[names[ni]]
            orig = p.data.reshape(-1)[li]
            p.data.reshape(-1)[li] = orig + step
            up = loss_fn().item()
            p.data.reshape(-1)[li] = orig - step
            down = loss_fn().item()
            p.data.reshape(-1)[li] = orig
            fd_vec.append((up - down) / (2 * step))
            ad_vec.append(float(flat[names[ni]][li]))
        enc_err = rel_err(np.array(ad_vec), np.array(fd_vec))
        assert enc_err < 1e-3
        report(1, f"per-op worst rel err {worst:.2e}; "
                  f"micro-encoder rel err {enc_err:.2e} over 20 entries")


# ---------------------------------------------------------------------------
# 2. Normalization invariants


class TestCriterion2:
    def test_criterion_2_normalization(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            row = rng.uniform(-20, 20, rng.integers(1, 9))
            worst = max(worst, abs(float(T.softmax_rows(Tensor(row)).data.sum()) - 1.0))
        assert worst < 1e-6
        vocab = build_vocab(["a b c d e f g h"], max_size=64)
        model = EncoderModel(
            EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                          vocab_size=len(vocab), max_position=16), seed=2)
        tok = Tokenizer(vocab)
        words = ["a", "b", "c", "d", "e", "f", "g", "h"]
        nsp_worst = 0.0
        for start in range(0, 1000, 100):
            pairs = [tok.encode_pair(" ".join(rng.choice(words, 3)),
                                     " ".join(rng.choice(words, 3)), 12)
                     for _ in range(100)]
            with T.no_grad():
                probs = model.nsp_probs(model.forward_batch(pairs))
            nsp_worst = max(nsp_worst, float(np.max(np.abs(probs.data.sum(axis=1) - 1.0))))
        assert nsp_worst < 1e-6
        task = TaskConfig(task_type="single", labels=["a", "b"],
                          template=PromptTemplate("{label} c"),
                          verbalizer=Verbalizer({"a": "a", "b": "b"}), max_len=12)
        pet_worst = 0.0
        for _ in range(50):
            probs = pet_score(model, vocab, " ".join(rng.choice(words, 3)), task)
            pet_worst = max(pet_worst, abs(float(probs.sum()) - 1.0))
        assert pet_worst < 1e-6
        report(2, f"softmax worst {worst:.1e}, nsp worst {nsp_worst:.1e}, "
                  f"pet worst {pet_worst:.1e} (all < 1e-6)")


# ---------------------------------------------------------------------------
# 3. Algorithm 1 oracle equivalence


def _oracle_samples_contrast(qs, labels, props, order, bs):
    """Independent brute-force rank-and-apportion reference."""
    n = len(qs)
    out = [None] * n
    majority = labels[max(range(len(props)), key=lambda i: (props[i], -i))]
    for start in range(0, n, bs):
        idxs = list(range(start, min(start + bs, n)))
        if len(idxs) < len(labels):
            for i in idxs:
                out[i] = majority
            continue
        ranked = sorted(idxs, key=lambda i: (qs[i] if order == "ascending"
                                             else -qs[i], i))
        m = len(idxs)
        quotas = [m * p for p in props]
        counts = [math.floor(q) for q in quotas]
        seats = m - sum(counts)
        frac_order = sorted(range(len(props)),
                            key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in frac_order[:seats]:
            counts[i] += 1
        pos = 0
        for label, c in zip(labels, counts):
            for i in ranked[pos:pos + c]:
                out[i] = label
            pos += c
    return out


class TestCriterion3:
    def test_criterion_3_algorithm1_oracle(self):
        rng = np.random.default_rng(2)
        n_bs1 = 0
        for case in range(1000):
            n = int(rng.integers(1, 65))
            n_labels = int(rng.integers(2, 5))
            labels = [f"L{i}" for i in range(n_labels)]
            counts = rng.integers(1, 10, size=n_labels)
            props = [float(c) / counts.sum() for c in counts]
            # renormalize exactly so the distribution validates
            props[-1] = 1.0 - sum(props[:-1])
            dist = LabelDistribution(labels, props)
            qs = rng.uniform(0, 1, n)
            if rng.random() < 0.3:  # force ties
                qs = np.round(qs, 1)
            order = "ascending" if rng.random() < 0.5 else "descending"
            bs = int(rng.integers(1, n + 1))
            samples = [ScoredSample(i, float(q)) for i, q in enumerate(qs)]
            got = samples_contrast(samples, order, dist, bs)
            want = _oracle_samples_contrast([float(q) for q in qs], labels,
                                            props, order, bs)
            assert got == want, (case, n, bs, order)
            if bs == 1:
                # Figure-5 boundary: every sample gets the same label.
                assert len(set(got)) == 1
                n_bs1 += 1
        assert n_bs1 > 0
        report(3, f"1000 random instances match the brute-force oracle "
                  f"({n_bs1} with bs=1 collapsing to a constant label)")


# ---------------------------------------------------------------------------
# 4. Pre-training efficacy


class TestCriterion4:
    def test_criterion_4_pretraining(self, pretrained, heldout_pairs):
        model = EncoderModel.load_checkpoint(pretrained["checkpoint"])
        acc = nsp_accuracy(model, pretrained["vocab"], heldout_pairs)
        assert acc > 0.90
        totals = np.array([t["total"] for t in pretrained["trace"]])
        window = len(totals) // 10
        smoothed = [totals[i:i + window].mean()
                    for i in range(0, len(totals), window)]
        assert all(b < a for a, b in zip(smoothed, smoothed[1:]))
        report(4, f"held-out NSP accuracy {acc:.3f} (> 0.90); smoothed loss "
                  f"strictly decreasing {smoothed[0]:.2f} -> {smoothed[-1]:.2f}")


# ---------------------------------------------------------------------------
# 5. Zero-shot signal


class TestCriterion5:
    def test_criterion_5_zeroshot(self, zeroshot_by_seed):
        mean = float(np.mean(zeroshot_by_seed))
        assert mean >= 0.50
        report(5, f"zero-shot candidates-contrast topic accuracy {mean:.3f} "
                  f"(>= 0.50; majority baseline 0.25)")


# ---------------------------------------------------------------------------
# 6. Few-shot ordering


class TestCriterion6:
    def test_criterion_6_fewshot_ordering(self, pretrained, pretrained_model, fewshot_splits,
                                          topic_task, zeroshot_by_seed,
                                          ablation_results):
        _, task = topic_task
        vocab = pretrained["vocab"]
        rows, summary = ablation_results["coupled_bce"]
        tuned_mean = summary["mean"]
        zs_mean = float(np.mean(zeroshot_by_seed))
        tuning = TuningConfig(epochs=TUNE_EPOCHS, lr=TUNE_LR, batch_size=8,
                              variant="fine_tune")
        ft_accs = [run_split(pretrained_model, split, task, vocab, tuning).test_acc
                   for split in fewshot_splits]
        ft_mean = float(np.mean(ft_accs))
        fast = sum(1 for r in rows if r["epoch"] <= 3)
        # asserted clause: tuning never loses to zero-shot on average
        assert tuned_mean >= zs_mean - 1e-9
        report(6, f"NSP-tuning {tuned_mean:.3f} >= zero-shot {zs_mean:.3f} "
                  f"(asserted); fine-tune baseline {ft_mean:.3f} and "
                  f"best-epoch<=3 on {fast}/5 seeds (reported)")


# ---------------------------------------------------------------------------
# 7. Ablation grid


class TestCriterion7:
    def test_criterion_7_ablation_grid(self, ablation_results, tmp_path):
        import csv

        path = tmp_path / "ablation.csv"
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=["variant", "seed", "epoch",
                                                   "dev_acc", "test_acc"])
            writer.writeheader()
            for variant in VARIANTS:
                writer.writerows(ablation_results[variant][0])
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(VARIANTS) * len(DEFAULT_SEEDS)
        summaries = {v: ablation_results[v][1] for v in VARIANTS}
        parts = ", ".join(f"{v}={s['mean']:.3f}+/-{s['std']:.3f}"
                          for v, s in summaries.items())
        report(7, f"5 variants x 5 seeds CSV emitted; {parts} "
                  f"(coupled_bce std reported, not asserted)")


# ---------------------------------------------------------------------------
# 8. PET multi-mask scoring


class TestCriterion8:
    def test_criterion_8_pet_oracle(self):
        rng = np.random.default_rng(3)
        words = ["aa", "bb", "cc", "dd", "ee", "ff"]
        vocab = build_vocab([" ".join(words) + " gg hh"], max_size=64)
        tok = Tokenizer(vocab)
        worst = 0.0
        checked = 0
        for mi in range(5):
            model = EncoderModel(
                EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                              vocab_size=len(vocab), max_position=24),
                seed=10 + mi,
            )
            for _ in range(20):
                # single- and double-token verbalizations
                v1 = str(rng.choice(words))
                v2 = " ".join(rng.choice(words, 2, replace=False))
                task = TaskConfig(
                    task_type="single", labels=["one", "two"],
                    template=PromptTemplate("gg {label} hh"),
                    verbalizer=Verbalizer({"one": v1, "two": v2}), max_len=20)
                x = " ".join(rng.choice(words, 3))
                got = pet_score(model, vocab, x, task)
                # hand-rolled direct computation
                products = []
                factor_lists = []
                for label in task.labels:
                    masked = render_pet(x, task.template, task.verbalizer, label, tok,
                                        task.max_len)
                    targets = tok.encode(task.verbalizer(label))
                    with T.no_grad():
                        logits = model.mlm_logits(model.forward_batch(
                            [masked],
                            (np.zeros(len(masked.mask_positions), dtype=np.int64),
                             np.array(masked.mask_positions))))
                        probs = T.softmax_rows(logits).data
                    factors = [float(row[t]) for row, t in zip(probs, targets)]
                    factor_lists.append(factors)
                    products.append(float(np.prod(factors)))
                e = np.exp(np.float32(products) - np.float32(max(products)))
                want = e / e.sum()
                worst = max(worst, float(np.max(np.abs(got - want))))
                # product-length bias: a 2-token product never exceeds
                # either of its factors
                two = factor_lists[1]
                assert products[1] <= min(two) + 1e-12
                checked += 1
        assert worst < 1e-6 and checked == 100
        report(8, f"pet_score matches direct computation on 100 instances "
                  f"(worst diff {worst:.1e}); product-length bias holds")


# ---------------------------------------------------------------------------
# 9. Protocol exactness


class TestCriterion9:
    def test_criterion_9_protocol(self, tmp_path):
        pool = [Example(i, f"text {i}", "A" if i < 200 else "B")
                for i in range(400)]
        fingerprints = []
        for seed in DEFAULT_SEEDS:
            split = kshot_split(pool, 16, seed)
            assert len(split.train) == 32 and len(split.dev) == 320
            for label in ("A", "B"):
                assert sum(e.label == label for e in split.train) == 16
                assert sum(e.label == label for e in split.dev) == 160
            ids = lambda part: {e.id for e in part}
            assert not ids(split.train) & ids(split.dev)
            assert not (ids(split.train) | ids(split.dev)) & ids(split.test)
            again = kshot_split(pool, 16, seed)
            assert [e.id for e in again.train] == [e.id for e in split.train]
            assert [e.id for e in again.dev] == [e.id for e in split.dev]
            fingerprints.append(split.fingerprint())
        assert len(set(fingerprints)) == len(DEFAULT_SEEDS)
        vocab = build_vocab(["a b c"], max_size=16)
        model = EncoderModel(
            EncoderConfig(n_layers=1, hidden=8, n_heads=2,
                          vocab_size=len(vocab), max_position=16), seed=0)
        path = tmp_path / "m.nsp"
        model.save_checkpoint(path)
        loaded = EncoderModel.load_checkpoint(path)
        for name, p in model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data)
        report(9, "K=16 2-class splits are exactly 32/320, disjoint and "
                  "deterministic per seed; checkpoint round-trips bit-exactly")


# ---------------------------------------------------------------------------
# 10. Threshold variant


def _oracle_thresholds(dev_qs_by_label):
    order = sorted(dev_qs_by_label,
                   key=lambda l: float(np.mean(dev_qs_by_label[l])))
    all_qs = np.sort(np.concatenate(list(dev_qs_by_label.values())))
    cuts, cum = [], 0
    for label in order[:-1]:
        cum += len(dev_qs_by_label[label])
        cuts.append(float((all_qs[cum - 1] + all_qs[cum]) / 2.0))
    return order, cuts


class TestCriterion10:
    def test_criterion_10_thresholds(self):
        rng = np.random.default_rng(4)
        for case in range(200):
            n_labels = 2 if case < 100 else 3
            centers = np.sort(rng.uniform(0.1, 0.9, n_labels))
            by_label = {}
            dev = []
            used = set()
            for li in range(n_labels):
                qs = []
                for _ in range(int(rng.integers(3, 8))):
                    q = float(np.clip(centers[li] + rng.normal(0, 0.1),
                                      0.001, 0.998))
                    while q in used:  # keep values distinct
                        q += 1e-6
                    used.add(q)
                    qs.append(q)
                by_label[f"L{li}"] = np.array(qs)
                dev.extend(ScoredSample(len(dev) + i, q, gold=f"L{li}")
                           for i, q in enumerate(qs))
            th = thresholds_from_dev(dev)
            order, cuts = _oracle_thresholds(by_label)
            assert th.label_order == order, case
            np.testing.assert_allclose(th.cuts, cuts, atol=1e-12)
            # dev assignment reproduces the gold counts exactly
            assigned = [apply_thresholds(th, s.q) for s in dev]
            for label, qs in by_label.items():
                assert assigned.count(label) == len(qs), case
        report(10, "200 random binary/3-label cases match the brute-force "
                   "midpoint oracle; dev gold counts reproduced exactly")
