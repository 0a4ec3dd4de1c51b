"""NSP-tuning, its ablation variants, and the fine-tuning baseline."""

import numpy as np
import pytest

from nspbert.errors import DivergenceError, ValidationError
from nspbert.harness import Example, KShotSplit, evaluate, mean_std, run_split
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.prompting import PromptTemplate, TaskConfig, Verbalizer
from nspbert.tokenizer import Tokenizer, build_vocab
import nspbert.tuning as tuning
from nspbert.tuning import (
    VARIANTS,
    TuningConfig,
    accuracy,
    encode_candidates,
    fine_tune_baseline,
    nsp_tune,
)

LABELS = ["sports", "politics"]
SPORT_TEXTS = ["big game tonight", "the team won again", "great match today",
               "fans cheer loud", "score was close", "the coach is happy"]
POLI_TEXTS = ["the vote is close", "new law passed today", "talks happen again",
              "the mayor spoke loud", "budget debate tonight", "poll results are in"]


def _examples():
    out = []
    for i, t in enumerate(SPORT_TEXTS):
        out.append(Example(f"s{i}", t, "sports"))
    for i, t in enumerate(POLI_TEXTS):
        out.append(Example(f"p{i}", t, "politics"))
    return out


@pytest.fixture(scope="module")
def setup():
    texts = SPORT_TEXTS + POLI_TEXTS + ["this is sports news",
                                        "this is politics news"]
    vocab = build_vocab(texts, max_size=128)
    cfg = EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                        vocab_size=len(vocab), max_position=48)
    task = TaskConfig(
        task_type="single",
        labels=LABELS,
        template=PromptTemplate("this is {label} news"),
        verbalizer=Verbalizer({"sports": "sports", "politics": "politics"}),
        max_len=24,
    )
    examples = _examples()
    split = KShotSplit(train=examples[:3] + examples[6:9],
                       dev=[examples[3], examples[9]],
                       test=examples[4:6] + examples[10:12],
                       seed=0)
    return vocab, cfg, task, split


class TestTuningConfig:
    def test_bad_batch_size(self):
        with pytest.raises(ValidationError, match="batch size"):
            TuningConfig(batch_size=0)

    def test_bad_variant(self):
        with pytest.raises(ValidationError, match="variant"):
            TuningConfig(variant="mystery")


class TestNspTune:
    def test_one_positive_rest_negative(self, setup, monkeypatch):
        """Each parent sample reaches the loss as its encode_candidates pairs
        with a 0/1 target row marking the gold label's candidate."""
        vocab, cfg, task, split = setup
        tok, n_labels = Tokenizer(vocab), len(task.labels)
        model = EncoderModel(cfg, seed=0)
        seen_inputs, seen_targets = [], []

        def forward_batch(pairs):
            seen_inputs.append(pairs)
            return EncoderModel.forward_batch(model, pairs)

        def loss(model, extra, hidden, targets):
            seen_targets.append(targets)
            return bce(model, extra, hidden, targets)

        bce = tuning._LOSSES["coupled_bce"]
        monkeypatch.setattr(model, "forward_batch", forward_batch)
        monkeypatch.setitem(tuning._LOSSES, "coupled_bce", loss)
        nsp_tune(model, split.train, [], task, vocab,
                 TuningConfig(epochs=1, batch_size=len(split.train)))
        (inputs,), (targets,) = seen_inputs, seen_targets
        assert targets.shape == (len(split.train), n_labels)
        own = {ex.id: [p.ids.tolist() for p in encode_candidates(ex.text_a, task, tok)]
               for ex in split.train}
        for ex in split.train:
            row = [p.ids.tolist() for p in inputs].index(own[ex.id][0]) // n_labels
            assert [p.ids.tolist() for p in inputs[row * n_labels:(row + 1) * n_labels]] \
                == own[ex.id]
            assert targets[row].tolist() == [float(l == ex.label) for l in task.labels]

    def test_unknown_gold_label(self, setup):
        vocab, cfg, task, split = setup
        bad = Example("x", "text", "weather")
        with pytest.raises(ValidationError, match="weather"):
            nsp_tune(EncoderModel(cfg, seed=0), [bad], [], task, vocab, TuningConfig())

    def test_history_and_best_epoch(self, setup):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        tcfg = TuningConfig(epochs=3, lr=1e-3, batch_size=2,
                            variant="coupled_bce", seed=0)
        res = nsp_tune(model, split.train, split.dev, task, vocab, tcfg)
        assert len(res.history) == 3
        assert all(np.isfinite(h["train_loss"]) for h in res.history)
        assert 0 <= res.best_epoch < 3
        best_acc = max(h["dev_acc"] for h in res.history)
        assert res.history[res.best_epoch]["dev_acc"] == best_acc

    def test_loss_decreases_when_overfitting(self, setup):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        tcfg = TuningConfig(epochs=100, lr=3e-2, batch_size=6,
                            variant="coupled_bce", seed=0)
        res = nsp_tune(model, split.train, [], task, vocab, tcfg)
        losses = [h["train_loss"] for h in res.history]
        assert min(losses) < losses[0] - 0.05

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_trains_and_predicts(self, setup, variant):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        tcfg = TuningConfig(epochs=1, lr=1e-3, batch_size=2,
                            variant=variant, seed=0)
        res = nsp_tune(model, split.train, split.dev, task, vocab, tcfg)
        preds = res.predict(split.test, task, vocab)
        assert len(preds) == len(split.test)
        assert set(preds) <= set(task.labels)

    def test_linear_head_variant_owns_fresh_head(self, setup):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        tcfg = TuningConfig(epochs=1, lr=1e-3, variant="linear_head_softmax", seed=0)
        res = nsp_tune(model, split.train, split.dev, task, vocab, tcfg)
        assert res.extra["head_w"].shape == (len(task.labels), cfg.hidden)
        assert res.extra["head_b"].shape == (len(task.labels),)

    def test_reinit_variant_resets_nsp_head(self, setup):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        before = model.params["nsp.pool.w"].data.copy()
        tcfg = TuningConfig(epochs=0, lr=1e-3, variant="reinit_sigmoid_head", seed=0)
        nsp_tune(model, split.train, split.dev, task, vocab, tcfg)
        assert not np.array_equal(model.params["nsp.pool.w"].data, before)
        np.testing.assert_array_equal(model.params["nsp.pool.b"].data, 0.0)

    def test_determinism(self, setup):
        vocab, cfg, task, split = setup

        def run():
            model = EncoderModel(cfg, seed=0)
            tcfg = TuningConfig(epochs=2, lr=1e-3, batch_size=2,
                                variant="coupled_bce", seed=3)
            return nsp_tune(model, split.train, split.dev, task, vocab, tcfg).history

        assert run() == run()

    def test_divergence_raises(self, setup):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        model.params["nsp.out.w"].data[:] = np.nan
        tcfg = TuningConfig(epochs=1, variant="coupled_bce", seed=0)
        with pytest.raises(DivergenceError):
            nsp_tune(model, split.train, [], task, vocab, tcfg)


class TestFineTuneBaseline:
    def test_trains_and_predicts(self, setup):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        tcfg = TuningConfig(epochs=2, lr=1e-3, batch_size=3,
                            variant="fine_tune", seed=0)
        res = fine_tune_baseline(model, split.train, split.dev, task, vocab, tcfg)
        assert res.variant == "fine_tune"
        assert len(res.history) == 2
        preds = res.predict(split.test, task, vocab)
        assert set(preds) <= set(task.labels)

    def test_overfits_train_set(self, setup):
        vocab, cfg, task, split = setup
        model = EncoderModel(cfg, seed=0)
        tcfg = TuningConfig(epochs=12, lr=5e-3, batch_size=6,
                            variant="fine_tune", seed=0)
        res = fine_tune_baseline(model, split.train, split.train, task, vocab, tcfg)
        assert accuracy(res.predict(split.train, task, vocab), split.train) >= 0.75


@pytest.mark.parametrize("train,method", [(nsp_tune, "encode_pair"),
                                          (fine_tune_baseline, "encode_single")])
def test_dev_encoded_once_per_run(setup, monkeypatch, train, method):
    vocab, cfg, task, split = setup
    calls, encode = [], getattr(Tokenizer, method)

    def counted(self, *args):
        calls.append(args)
        return encode(self, *args)

    monkeypatch.setattr(Tokenizer, method, counted)
    per_example = len(task.labels) if train is nsp_tune else 1
    for epochs in (1, 3):
        calls.clear()
        train(EncoderModel(cfg, seed=0), split.train, split.dev, task, vocab,
              TuningConfig(epochs=epochs, batch_size=2))
        assert len(calls) == (len(split.train) + len(split.dev)) * per_example


class TestAccuracy:
    def test_counts_matches(self):
        exs = [Example(0, "a", "x"), Example(1, "b", "y")]
        assert accuracy(["x", "x"], exs) == 0.5
        assert accuracy(["x", "y"], exs) == 1.0


class TestRunSplit:
    @pytest.fixture()
    def model(self, setup):
        _, cfg, _, _ = setup
        return EncoderModel(cfg, seed=0)

    def test_rows_and_summary(self, setup, model):
        vocab, cfg, task, split = setup
        splits = [split, KShotSplit(split.train, split.dev, split.test, seed=1)]
        tuning = TuningConfig(epochs=1, lr=1e-3, batch_size=2)
        runs = [run_split(model, s, task, vocab, tuning) for s in splits]
        assert [r.row()["seed"] for r in runs] == [0, 1]
        assert all(r.row()["variant"] == "coupled_bce" for r in runs)
        accs = [r.test_acc for r in runs]
        # summary recomputed independently
        mean, std = mean_std(accs)
        assert mean == pytest.approx(sum(accs) / 2)
        assert std == pytest.approx(float(np.sqrt(sum((a - mean) ** 2 for a in accs) / 2)))
        assert mean_std([0.5, 1.0]) == (0.75, 0.25)  # population, not sample, std

    def test_unknown_variant(self, setup, model):
        vocab, cfg, task, split = setup
        tuning = TuningConfig()
        tuning.variant = "mystery"
        with pytest.raises(ValidationError, match="variant"):
            run_split(model, split, task, vocab, tuning)

    @pytest.mark.parametrize("variant, train", [("coupled_bce", nsp_tune),
                                                ("fine_tune", fine_tune_baseline)])
    def test_matches_direct_training(self, setup, model, variant, train):
        vocab, cfg, task, split = setup
        split = KShotSplit(split.train, split.dev, split.test, seed=5)
        run = run_split(model, split, task, vocab,
                        TuningConfig(epochs=2, lr=1e-3, batch_size=2, variant=variant, seed=99))
        res = train(EncoderModel(cfg, seed=0), split.train, split.dev, task, vocab,
                    TuningConfig(epochs=2, lr=1e-3, batch_size=2, variant=variant, seed=5))
        assert run.tuned.history == res.history
        assert (run.seed, run.epoch) == (5, res.best_epoch)
        assert run.dev_acc == max(h["dev_acc"] for h in res.history)
        assert run.test_acc == accuracy(res.predict(split.test, task, vocab), split.test)
        assert run.split_fingerprint == split.fingerprint()
        for name, p in res.model.params.items():
            assert np.array_equal(run.tuned.model.params[name].data, p.data)

    @pytest.mark.parametrize("variant", ["coupled_bce", "reinit_sigmoid_head", "fine_tune"])
    def test_leaves_model_unchanged(self, setup, model, variant):
        vocab, cfg, task, split = setup
        before = {name: p.data.copy() for name, p in model.params.items()}
        run = run_split(model, split, task, vocab,
                        TuningConfig(epochs=1, lr=1e-2, batch_size=2, variant=variant))
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]) and p.grad is None, name
        tuned = run.tuned.model.params
        assert any(not np.array_equal(tuned[name].data, before[name]) for name in before)

    def test_untuned_mode_evaluates(self, setup, model):
        vocab, cfg, task, split = setup
        run = run_split(model, split, task, vocab, mode="zero_shot_nsp")
        assert run.tuned is None and run.epoch == -1
        assert run.test_acc == evaluate(EncoderModel(cfg, seed=0), vocab, split.test, task,
                                        "zero_shot_nsp")
