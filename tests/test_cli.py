"""CLI surface: subcommands, file outputs and exit codes (0 ok,
2 validation, 3 divergence)."""

import csv
import json

import numpy as np
import pytest

from nspbert.cli import main
from nspbert.corpus import load_corpus
from nspbert.harness import DEFAULT_SEEDS
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.tokenizer import build_vocab
from nspbert.tuning import VARIANTS

TINY_CORPUS = {"n_topics": 2, "words_per_topic": 8, "shared_words": 20,
               "n_documents": 14, "sentences_per_document": 4,
               "words_per_document": 4}
TASK = {
    "task_type": "single",
    "labels": ["topic0", "topic1"],
    "template": {"pattern": "{label}", "position": "suffix"},
    "verbalizer": {"topic0": "t0w00", "topic1": "t1w00"},
    "max_len": 24,
    "k_shot": 1,
}
PAIR_TASK = {"task_type": "pair", "labels": ["NotEntail", "Entail"], "max_len": 24,
             "k_shot": 1}


def run(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    return e.value.code


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus + 3-step pretrained checkpoint + task + dataset, once."""
    d = tmp_path_factory.mktemp("cli")
    corpus_cfg = write_json(d / "corpus.json", TINY_CORPUS)
    assert run(["--config", corpus_cfg, "--seed", "4",
                "--out", str(d / "corpus.jsonl"), "gen-corpus"]) == 0
    pre_cfg = write_json(d / "pre.json", {"corpus": TINY_CORPUS, "steps": 3,
                                          "preset": "micro", "max_len": 24})
    assert run(["--config", pre_cfg, "--seed", "4",
                "--out", str(d / "model.nsp"), "pretrain",
                "--corpus", str(d / "corpus.jsonl")]) == 0
    task_path = write_json(d / "task.json", TASK)
    docs = load_corpus(d / "corpus.jsonl")
    with open(d / "data.jsonl", "w") as f:
        for doc in docs:
            for si, sent in enumerate(doc.sentences):
                f.write(json.dumps({"id": f"{doc.doc_id}-{si}", "text_a": sent,
                                    "label": f"topic{doc.topic}"}) + "\n")
    # Sentence pairs: adjacent sentences are Entail, cross-document NotEntail.
    with open(d / "pairs.jsonl", "w") as f:
        for i, (doc, other) in enumerate(zip(docs, docs[1:] + docs[:1])):
            for si in range(3):
                f.write(json.dumps({"id": f"{i}-{si}", "text_a": doc.sentences[si],
                                    "text_b": doc.sentences[si + 1],
                                    "label": "Entail"}) + "\n")
                f.write(json.dumps({"id": f"{i}-{si}x", "text_a": doc.sentences[si],
                                    "text_b": other.sentences[si],
                                    "label": "NotEntail"}) + "\n")
    # Exactly 11 examples per class: a K=1 split leaves no test example.
    rows = [json.loads(l) for l in (d / "data.jsonl").read_text().splitlines()]
    with open(d / "exact.jsonl", "w") as f:
        for label in TASK["labels"]:
            for rec in [r for r in rows if r["label"] == label][:11]:
                f.write(json.dumps(rec) + "\n")
    return d, task_path


class TestGenCorpus:
    def test_writes_jsonl(self, workdir):
        d, _ = workdir
        docs = load_corpus(d / "corpus.jsonl")
        assert len(docs) == TINY_CORPUS["n_documents"]

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"concentration": 2.0})
        assert run(["--config", cfg, "--out", str(tmp_path / "c.jsonl"),
                    "gen-corpus"]) == 2

    def test_missing_out_exits_2(self, tmp_path):
        assert run(["gen-corpus"]) == 2


class TestPretrain:
    def test_artifacts_exist_and_load(self, workdir):
        d, _ = workdir
        model = EncoderModel.load_checkpoint(d / "model.nsp")
        assert model.step == 3
        assert (d / "model.nsp.vocab").exists()
        with open(d / "model.nsp.trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert set(rows[0]) == {"step", "total", "mlm", "nsp"}


class TestEvalZeroshot:
    def test_zero_shot_nsp(self, workdir, tmp_path):
        d, task_path = workdir
        out = tmp_path / "result.json"
        code = run(["--config", task_path, "--checkpoint", str(d / "model.nsp"),
                    "--out", str(out), "eval-zeroshot",
                    "--data", str(d / "data.jsonl")])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["mode"] == "zero_shot_nsp"
        assert 0.0 <= result["accuracy"] <= 1.0

    def test_missing_checkpoint_exits_2(self, workdir, tmp_path):
        d, task_path = workdir
        assert run(["--config", task_path,
                    "--checkpoint", str(tmp_path / "nope.nsp"),
                    "eval-zeroshot", "--data", str(d / "data.jsonl")]) == 2


class TestMapSamples:
    def _scored(self, path):
        with open(path, "w") as f:
            for i, q in enumerate([0.9, 0.1, 0.8, 0.2]):
                rec = {"id": i, "q": q}
                if i < 2:
                    rec["gold"] = "topic0" if q < 0.5 else "topic1"
                f.write(json.dumps(rec) + "\n")
        return str(path)

    def test_maps_all_samples(self, workdir, tmp_path):
        d, task_path = workdir
        scored = self._scored(tmp_path / "scored.jsonl")
        out = tmp_path / "mapped.jsonl"
        assert run(["--config", task_path, "--out", str(out),
                    "map-samples", "--scored", scored]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 4
        assert all(l["label"] in ("topic0", "topic1") for l in lines)

    def test_no_gold_exits_2(self, workdir, tmp_path):
        d, task_path = workdir
        path = tmp_path / "scored.jsonl"
        path.write_text('{"id": 0, "q": 0.5}\n')
        assert run(["--config", task_path, "--out", str(tmp_path / "m.jsonl"),
                    "map-samples", "--scored", str(path)]) == 2


class TestTuneCommands:
    def test_nsp_tune_runs(self, workdir, tmp_path):
        d, task_path = workdir
        out = tmp_path / "tuned.nsp"
        code = run(["--config", task_path, "--checkpoint", str(d / "model.nsp"),
                    "--seed", "13", "--out", str(out),
                    "nsp-tune", "--data", str(d / "data.jsonl"),
                    "--variant", "coupled_bce"])
        assert code == 0
        assert out.exists() and (str(out) + ".vocab")

    def test_fine_tune_runs(self, workdir, tmp_path):
        d, task_path = workdir
        out = tmp_path / "ft.nsp"
        assert run(["--config", task_path, "--checkpoint", str(d / "model.nsp"),
                    "--seed", "13", "--out", str(out),
                    "fine-tune", "--data", str(d / "data.jsonl")]) == 0
        assert out.exists()

    def test_nan_checkpoint_exits_3(self, workdir, tmp_path):
        d, task_path = workdir
        model = EncoderModel.load_checkpoint(d / "model.nsp")
        model.params["nsp.out.w"].data[:] = np.nan
        bad = tmp_path / "bad.nsp"
        model.save_checkpoint(bad)
        import shutil

        shutil.copy(d / "model.nsp.vocab", str(bad) + ".vocab")
        code = run(["--config", task_path, "--checkpoint", str(bad),
                    "--seed", "13", "--out", str(tmp_path / "t.nsp"),
                    "nsp-tune", "--data", str(d / "data.jsonl")])
        assert code == 3


class TestHistogram:
    def test_writes_bins(self, tmp_path):
        scored = tmp_path / "scored.jsonl"
        scored.write_text("".join(json.dumps({"id": i, "q": q}) + "\n"
                                  for i, q in enumerate([0.1, 0.6, 0.9])))
        out = tmp_path / "hist.csv"
        assert run(["--out", str(out), "histogram", "--scored", str(scored),
                    "--bins", "4"]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 5
        assert sum(int(r[2]) for r in rows[1:]) == 3


class TestAblate:
    def test_variant_by_seed_rows(self, workdir, tmp_path):
        d, task_path = workdir
        out = tmp_path / "ablation.csv"
        assert run(["--config", task_path, "--checkpoint", str(d / "model.nsp"),
                    "--out", str(out), "ablate", "--data", str(d / "data.jsonl")]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["variant", "seed", "epoch", "dev_acc", "test_acc"]
        assert [(r[0], int(r[1])) for r in rows[1:]] == [
            (v, s) for v in VARIANTS for s in DEFAULT_SEEDS]
        assert all(0.0 <= float(r[4]) <= 1.0 for r in rows[1:])


class TestReport:
    def test_multi_seed_report(self, workdir, tmp_path):
        d, task_path = workdir
        cfg = write_json(tmp_path / "exp.json", {
            "task": task_path, "data": str(d / "data.jsonl"),
            "checkpoint": str(d / "model.nsp"), "mode": "zero_shot_nsp",
            "k": 1, "seeds": [13, 21],
        })
        out = tmp_path / "report"
        assert run(["--config", cfg, "--out", str(out), "report"]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert len(rep["accuracies"]) == 2
        assert (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("mode", ["nsp_tuning", "fine_tune"])
    def test_tuning_modes(self, workdir, tmp_path, mode):
        d, task_path = workdir
        cfg = write_json(tmp_path / "exp.json", {
            "task": task_path, "data": str(d / "data.jsonl"),
            "checkpoint": str(d / "model.nsp"), "mode": mode,
            "k": 1, "seeds": [13, 21], "epochs": 2, "lr": 1e-3,
        })
        assert run(["--config", cfg, "--out", str(tmp_path / "report"), "report"]) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert [r["seed"] for r in rep["per_seed"]] == [13, 21]
        assert rep["accuracies"] == [r["accuracy"] for r in rep["per_seed"]]
        assert rep["mean"] == pytest.approx(float(np.mean(rep["accuracies"])))
        assert rep["std"] == pytest.approx(float(np.std(rep["accuracies"])))
        assert all(len(r["split_fingerprint"]) == 16 for r in rep["per_seed"])


# (task config, dataset, command) triples that must be refused as bad input;
# a "report" command carries the experiment config keys instead of --data.
BAD_INPUTS = {
    "pair-zero_shot_nsp": (PAIR_TASK, "pairs", ["eval-zeroshot", "--mode", "zero_shot_nsp"]),
    "pair-zero_shot_pet": (PAIR_TASK, "pairs", ["eval-zeroshot", "--mode", "zero_shot_pet"]),
    "pair-nsp_tune": (PAIR_TASK, "pairs", ["nsp-tune"]),
    "single-samples_contrast": (TASK, "data", ["eval-zeroshot", "--mode", "samples_contrast"]),
    "single-thresholds": (TASK, "data", ["eval-zeroshot", "--mode", "thresholds"]),
    "two_stage": ({**TASK, "task_type": "two_stage"}, "data", ["eval-zeroshot"]),
    "duplicate-labels": ({**TASK, "labels": ["topic0", "topic1", "topic0"]}, "data",
                         ["eval-zeroshot"]),
    "k_shot-0": ({**TASK, "k_shot": 0}, "data", ["nsp-tune"]),
    "empty-test-nsp_tune": (TASK, "exact", ["nsp-tune"]),
    "empty-test-fine_tune": (TASK, "exact", ["fine-tune"]),
    "report-k-0": (TASK, "data", ["report", {"mode": "nsp_tuning", "k": 0}]),
}


class TestBadInput:
    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_exits_2_with_one_line(self, workdir, tmp_path, capsys, case):
        d, _ = workdir
        task, data, command = BAD_INPUTS[case]
        task_path, data_path = write_json(tmp_path / "task.json", task), str(d / f"{data}.jsonl")
        if command[0] == "report":
            exp = {"task": task_path, "data": data_path, **command[1]}
            config, command = write_json(tmp_path / "exp.json", exp), ["report"]
        else:
            config, command = task_path, [*command, "--data", data_path]
        capsys.readouterr()
        code = run(["--config", config, "--checkpoint", str(d / "model.nsp"),
                    "--out", str(tmp_path / "out"), *command])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err


class TestExitCodes:
    def test_help_exits_0(self):
        assert run(["--help"]) == 0

    def test_unknown_command_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_option_exits_2(self):
        assert run(["histogram"]) == 2
