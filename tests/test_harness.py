"""Dataset IO, K-shot splitting, synthetic tasks, evaluation modes and
the multi-seed experiment runner."""

import dataclasses
import json

import numpy as np
import pytest

from nspbert.corpus import SyntheticCorpusConfig
from nspbert.errors import ValidationError
from nspbert.harness import (
    DEFAULT_SEEDS,
    EVAL_MODES,
    Example,
    ExperimentConfig,
    ExperimentReport,
    evaluate,
    file_hash,
    kshot_split,
    load_jsonl,
    make_synthetic_task,
    run_experiment,
    score_pairs,
)
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.prompting import PromptTemplate, TaskConfig, Verbalizer
from nspbert.tokenizer import build_vocab
from nspbert.tuning import TuningConfig

WORDS = ["alpha", "beta", "gamma", "delta", "epsi", "zeta"]


def _pair_examples(n_per_label=15):
    out = []
    rng = np.random.default_rng(0)
    for i in range(2 * n_per_label):
        a = " ".join(rng.choice(WORDS, 3))
        b = " ".join(rng.choice(WORDS, 3))
        label = "Entail" if i < n_per_label else "NotEntail"
        out.append(Example(i, a, label, text_b=b))
    return out


@pytest.fixture(scope="module")
def pair_task():
    return TaskConfig(task_type="pair", labels=["NotEntail", "Entail"],
                      mapping={"strategy": "samples_contrast",
                               "order": "ascending", "batch_size": 10},
                      max_len=16)


@pytest.fixture(scope="module")
def tiny_model():
    vocab = build_vocab([" ".join(WORDS), "this is alpha news"], max_size=64)
    cfg = EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                        vocab_size=len(vocab), max_position=32)
    return EncoderModel(cfg, seed=2), vocab


class TestDefaults:
    def test_seeds_and_modes(self):
        assert DEFAULT_SEEDS == (13, 21, 42, 87, 100)
        assert EVAL_MODES == ("zero_shot_nsp", "zero_shot_pet", "samples_contrast",
                              "thresholds")


class TestLoadJsonl:
    def _task(self):
        return TaskConfig(task_type="pair", labels=["Entail", "NotEntail"])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        examples = _pair_examples(3)
        path.write_text("".join(json.dumps({"id": e.id, "text_a": e.text_a, "label": e.label,
                                            "text_b": e.text_b}) + "\n" for e in examples))
        loaded = load_jsonl(path, self._task())
        assert [(e.id, e.text_a, e.label, e.text_b) for e in loaded] == \
            [(e.id, e.text_a, e.label, e.text_b) for e in examples]

    def test_malformed_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text_a": "x", "label": "Entail", "text_b": "y"}\n{oops\n')
        with pytest.raises(ValidationError, match=":2"):
            load_jsonl(path, self._task())

    def test_missing_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text_a": "x"}\n')
        with pytest.raises(ValidationError, match="missing"):
            load_jsonl(path, self._task())

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text_a": "x", "text_b": "y", "label": "Maybe"}\n')
        with pytest.raises(ValidationError, match="Maybe"):
            load_jsonl(path, self._task())

    def test_pair_requires_text_b(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text_a": "x", "label": "Entail"}\n')
        with pytest.raises(ValidationError, match="text_b"):
            load_jsonl(path, self._task())

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rec = '{"id": 1, "text_a": "x", "text_b": "y", "label": "Entail"}\n'
        path.write_text(rec + rec)
        with pytest.raises(ValidationError, match="duplicate"):
            load_jsonl(path, self._task())


class TestKShotSplit:
    def test_sizes_and_disjointness(self):
        data = _pair_examples(15)
        split = kshot_split(data, k=1, seed=42)
        assert len(split.train) == 2  # K per class
        assert len(split.dev) == 20  # 10K per class
        assert len(split.test) == len(data) - 22
        ids = lambda part: {ex.id for ex in part}
        assert not ids(split.train) & ids(split.dev)
        assert not (ids(split.train) | ids(split.dev)) & ids(split.test)
        for label in ("Entail", "NotEntail"):
            assert sum(ex.label == label for ex in split.train) == 1
            assert sum(ex.label == label for ex in split.dev) == 10

    def test_deterministic_per_seed(self):
        data = _pair_examples(15)
        s1 = kshot_split(data, 1, seed=13)
        s2 = kshot_split(data, 1, seed=13)
        assert [e.id for e in s1.train] == [e.id for e in s2.train]
        assert s1.fingerprint() == s2.fingerprint()

    def test_seed_changes_split(self):
        data = _pair_examples(15)
        fps = {kshot_split(data, 1, seed=s).fingerprint() for s in DEFAULT_SEEDS}
        assert len(fps) > 1

    @pytest.mark.parametrize("k", [0, -1, 1.5, "2"])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValidationError, match="K must be"):
            kshot_split(_pair_examples(15), k, 0)

    def test_no_test_example_rejected(self):
        with pytest.raises(ValidationError, match="no test example"):
            kshot_split(_pair_examples(11), 1, 0)

    def test_insufficient_data_rejected(self):
        data = _pair_examples(10)  # needs 11 per class for K=1
        with pytest.raises(ValidationError, match="K=1"):
            kshot_split(data, 1, seed=0)


class TestMakeSyntheticTask:
    CORPUS = SyntheticCorpusConfig(seed=3)

    def test_topic_task(self):
        examples, task = make_synthetic_task(self.CORPUS, "topic", seed=1,
                                             n_documents=6)
        assert len(examples) == 6 * self.CORPUS.sentences_per_document
        assert task.labels == ["topic0", "topic1", "topic2", "topic3"]
        assert task.task_type == "single"
        assert all(ex.id.startswith("task1-") for ex in examples)
        for t in range(4):
            assert task.verbalizer(f"topic{t}") == f"t{t}w00"

    def test_pair_task(self):
        examples, task = make_synthetic_task(self.CORPUS, "pair", seed=1,
                                             n_documents=6)
        assert len(examples) == 8 * 6
        assert set(e.label for e in examples) == {"Entail", "NotEntail"}
        assert all(e.text_b for e in examples)
        assert task.task_type == "pair"

    def test_disjoint_from_pretraining_seed(self):
        e1, _ = make_synthetic_task(self.CORPUS, "topic", seed=1, n_documents=2)
        e2, _ = make_synthetic_task(self.CORPUS, "topic", seed=2, n_documents=2)
        assert e1[0].text_a != e2[0].text_a

    def test_unknown_type(self):
        with pytest.raises(ValidationError, match="task type"):
            make_synthetic_task(self.CORPUS, "triple", seed=0)


class TestEvaluate:
    def test_unknown_mode(self, tiny_model, pair_task):
        model, vocab = tiny_model
        with pytest.raises(ValidationError, match="mode"):
            evaluate(model, vocab, _pair_examples(2), pair_task, "oracle")

    def test_empty_test_set(self, tiny_model, pair_task):
        model, vocab = tiny_model
        with pytest.raises(ValidationError, match="empty"):
            evaluate(model, vocab, [], pair_task, "zero_shot_nsp")

    def test_dev_required_for_mapping_modes(self, tiny_model, pair_task):
        model, vocab = tiny_model
        for mode in ("samples_contrast", "thresholds"):
            with pytest.raises(ValidationError, match="dev"):
                evaluate(model, vocab, _pair_examples(2), pair_task, mode)

    def test_pair_modes_return_accuracy(self, tiny_model, pair_task):
        model, vocab = tiny_model
        data = _pair_examples(10)
        dev, test = data[:6] + data[10:16], data[6:10] + data[16:]
        for mode in ("samples_contrast", "thresholds"):
            acc = evaluate(model, vocab, test, pair_task, mode, dev=dev)
            assert 0.0 <= acc <= 1.0

    def test_single_modes_return_accuracy(self, tiny_model):
        model, vocab = tiny_model
        task = TaskConfig(
            task_type="single", labels=["alpha", "beta"],
            template=PromptTemplate("this is {label} news"),
            verbalizer=Verbalizer({"alpha": "alpha", "beta": "beta"}),
            max_len=16,
        )
        test = [Example(0, "gamma delta", "alpha"), Example(1, "epsi zeta", "beta")]
        for mode in ("zero_shot_nsp", "zero_shot_pet"):
            acc = evaluate(model, vocab, test, task, mode)
            assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("mode", ["zero_shot_nsp", "zero_shot_pet"])
    def test_candidate_modes_forward_64_examples_at_a_time(self, tiny_model, monkeypatch,
                                                           mode):
        model, vocab = tiny_model
        task = TaskConfig(
            task_type="single", labels=["alpha", "beta"],
            template=PromptTemplate("this is {label} news"),
            verbalizer=Verbalizer({"alpha": "alpha", "beta": "beta"}),
            max_len=16,
        )
        test = [Example(i, WORDS[i % 6], "alpha") for i in range(65)]
        calls = []
        forward = EncoderModel.forward_ids
        monkeypatch.setattr(EncoderModel, "forward_ids",
                            lambda self, *a: calls.append(len(a[0])) or forward(self, *a))
        evaluate(model, vocab, test, task, mode)
        assert calls == [128, 2]

    def test_score_pairs_attaches_gold(self, tiny_model, pair_task):
        model, vocab = tiny_model
        scored = score_pairs(model, vocab, _pair_examples(2), pair_task)
        assert len(scored) == 4
        assert all(s.gold in ("Entail", "NotEntail") for s in scored)
        assert all(0.0 <= s.q <= 1.0 for s in scored)


class TestExperiment:
    def _config(self, ckpt, task, data, mode="samples_contrast"):
        return ExperimentConfig(mode=mode, checkpoint=str(ckpt), task=task,
                                data=data, k=1, seeds=(13, 21))

    def test_fingerprint_sensitivity(self, tmp_path, pair_task):
        data = _pair_examples(15)
        cfg = self._config("x", pair_task, data)
        assert cfg.fingerprint() == self._config("x", pair_task, data).fingerprint()
        other = dataclasses.replace(cfg, k=4)
        assert other.fingerprint() != cfg.fingerprint()
        other = dataclasses.replace(cfg, tuning=TuningConfig(lr=1e-3))
        assert other.fingerprint() != cfg.fingerprint()

    def test_nsp_tuning_rejects_fine_tune_variant(self, tiny_model, pair_task):
        model, vocab = tiny_model
        cfg = dataclasses.replace(self._config("x", pair_task, _pair_examples(15)),
                                  mode="nsp_tuning", tuning=TuningConfig(variant="fine_tune"))
        with pytest.raises(ValidationError, match="nsp_tuning"):
            run_experiment(cfg, model, vocab)

    def test_run_experiment_report(self, tiny_model, pair_task, tmp_path):
        model, vocab = tiny_model
        ckpt = tmp_path / "m.nsp"
        model.save_checkpoint(ckpt)
        cfg = self._config(ckpt, pair_task, _pair_examples(15))
        report = run_experiment(cfg, model, vocab)
        assert len(report.accuracies) == 2
        assert report.mean == pytest.approx(float(np.mean(report.accuracies)))
        assert report.std == pytest.approx(float(np.std(report.accuracies)))
        assert report.checkpoint_hash == file_hash(ckpt)
        assert [r["seed"] for r in report.per_seed] == [13, 21]

    def test_report_files(self, tmp_path):
        report = ExperimentReport(
            accuracies=[0.5, 0.7], mean=0.6, std=0.1,
            config_fingerprint="abc", checkpoint_hash="def",
            per_seed=[{"seed": 13, "accuracy": 0.5}, {"seed": 21, "accuracy": 0.7}],
        )
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        report.to_json(jpath)
        report.to_csv(cpath)
        loaded = json.loads(jpath.read_text())
        assert loaded["mean"] == 0.6 and loaded["accuracies"] == [0.5, 0.7]
        rows = cpath.read_text().strip().splitlines()
        assert rows[0] == "seed,accuracy"
        assert rows[-2].startswith("mean,") and rows[-1].startswith("std,")
