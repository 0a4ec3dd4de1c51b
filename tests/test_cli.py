"""CLI surface: subcommands, file outputs and exit codes (0 ok,
2 validation, 3 divergence)."""

import csv
import json
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nspbert.cli import main
from nspbert.corpus import load_corpus
from nspbert.harness import DEFAULT_SEEDS, kshot_split, load_jsonl
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.prompting import TaskConfig
from nspbert.tokenizer import Vocab
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


def count_loads(monkeypatch):
    """The paths of every EncoderModel.load_checkpoint call from now on."""
    calls, load = [], EncoderModel.load_checkpoint

    def counted(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(EncoderModel, "load_checkpoint", staticmethod(counted))
    return calls


class TestAblate:
    def test_variant_by_seed_rows(self, workdir, tmp_path, monkeypatch):
        d, task_path = workdir
        out = tmp_path / "ablation.csv"
        loads = count_loads(monkeypatch)
        assert run(["--config", task_path, "--checkpoint", str(d / "model.nsp"),
                    "--out", str(out), "ablate", "--data", str(d / "data.jsonl")]) == 0
        assert loads == [str(d / "model.nsp")]  # once, not once per variant and seed
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
    def test_tuning_modes(self, workdir, tmp_path, monkeypatch, mode):
        d, task_path = workdir
        cfg = write_json(tmp_path / "exp.json", {
            "task": task_path, "data": str(d / "data.jsonl"),
            "checkpoint": str(d / "model.nsp"), "mode": mode,
            "k": 1, "seeds": [13, 21], "epochs": 2, "lr": 1e-3,
        })
        loads = count_loads(monkeypatch)
        assert run(["--config", cfg, "--out", str(tmp_path / "report"), "report"]) == 0
        assert loads == [str(d / "model.nsp")]  # once, not once per seed
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
    "unknown-task-key": ({**TASK, "k_shots": 1}, "data", ["eval-zeroshot"]),
    "unknown-template-key": ({**TASK, "template": {**TASK["template"], "positon": "prefix"}},
                             "data", ["eval-zeroshot"]),
    "unknown-mapping-key": ({**TASK, "mapping": {"batchsize": 4}}, "data", ["eval-zeroshot"]),
    "report-unknown-key": (TASK, "data", ["report", {"mode": "nsp_tuning", "epoch": 1}]),
    "k_shot-bool": ({**TASK, "k_shot": True}, "data", ["eval-zeroshot"]),
    "mapping-batch_size-string": ({**TASK, "mapping": {"batch_size": "16"}}, "data",
                                  ["eval-zeroshot"]),
    "template-pattern-number": ({**TASK, "template": {"pattern": 5}}, "data", ["eval-zeroshot"]),
    "template-other-field": ({**TASK, "template": {"pattern": "{label} {x}"}}, "data",
                             ["eval-zeroshot"]),
    "verbalizer-list": ({**TASK, "verbalizer": ["t0w00", "t1w00"]}, "data", ["eval-zeroshot"]),
    "report-no-mode": (TASK, "data", ["report", {"k": 1}]),
    "report-task-list": (TASK, "data", ["report", {"mode": "zero_shot_nsp", "task": ["t"]}]),
    "report-k-bool": (TASK, "data", ["report", {"mode": "zero_shot_nsp", "k": True}]),
    "report-lr-string": (TASK, "data", ["report", {"mode": "nsp_tuning", "k": 1, "seeds": [13],
                                                   "epochs": 1, "lr": "0.1"}]),
    "report-seed-negative": (TASK, "data", ["report", {"mode": "zero_shot_nsp", "k": 1,
                                                       "seeds": [-1]}]),
    "report-seed-float": (TASK, "data", ["report", {"mode": "zero_shot_nsp", "k": 1,
                                                    "seeds": [1.5]}]),
    "report-no-seeds": (TASK, "data", ["report", {"mode": "zero_shot_nsp", "k": 1, "seeds": []}]),
}
# The key each unknown-key case's error must name.
UNKNOWN_KEYS = {"unknown-task-key": "k_shots", "unknown-template-key": "positon",
                "unknown-mapping-key": "batchsize", "report-unknown-key": "epoch"}


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
        err = assert_one_line_exit_2(code, capsys)
        if case in UNKNOWN_KEYS:
            assert f"key {UNKNOWN_KEYS[case]!r}" in err


def assert_one_line_exit_2(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    return err


# (config, command, text the error must contain) for the commands that read
# no task config.
BAD_CONFIGS = {
    "gen-corpus-unknown-key": ({**TINY_CORPUS, "n_docs": 3}, ["gen-corpus"], "'n_docs'"),
    "gen-corpus-list": ([TINY_CORPUS], ["gen-corpus"], "JSON object"),
    "pretrain-unknown-key": ({"corpus": TINY_CORPUS, "stpes": 1, "max_len": 24},
                             ["pretrain"], "'stpes'"),
    "pretrain-corpus-unknown-key": ({"corpus": {**TINY_CORPUS, "topics": 3}, "steps": 1,
                                     "max_len": 24}, ["pretrain"], "'topics'"),
    "gen-corpus-string-int": ({"n_topics": "4"}, ["gen-corpus"],
                              "'n_topics' must be an integer, not a string"),
    "gen-corpus-bool-float": ({"concentration": True}, ["gen-corpus"],
                              "'concentration' must be a number, not a boolean"),
    "pretrain-string-steps": ({"corpus": TINY_CORPUS, "steps": "3", "max_len": 24}, ["pretrain"],
                              "'steps' must be an integer, not a string"),
    "pretrain-corpus-string-int": ({"corpus": {**TINY_CORPUS, "n_documents": "14"}, "steps": 1},
                                   ["pretrain"], "'n_documents' must be an integer"),
    "pretrain-unknown-preset": ({"corpus": TINY_CORPUS, "steps": 1, "preset": "huge"},
                                ["pretrain"], "'huge'"),
    "pretrain-zero-steps": ({"corpus": TINY_CORPUS, "steps": 0}, ["pretrain"], "steps"),
    "pretrain-zero-batch": ({"corpus": TINY_CORPUS, "steps": 1, "batch_size": 0}, ["pretrain"],
                            "batch_size"),
    "gen-corpus-zero-words_per_topic": ({"words_per_topic": 0}, ["gen-corpus"],
                                        "words_per_topic must be >= 1"),
    "gen-corpus-zero-shared_words": ({"shared_words": 0}, ["gen-corpus"],
                                     "shared_words must be >= 1"),
    "gen-corpus-shared_styles-above-shared_words": ({"shared_styles": 500}, ["gen-corpus"],
                                                    "shared_styles"),
    "gen-corpus-sentence_len-inverted": ({"sentence_len_min": 9, "sentence_len_max": 3},
                                         ["gen-corpus"], "sentence_len_max 3"),
    "gen-corpus-negative-words_per_document": ({"words_per_document": -3}, ["gen-corpus"],
                                               "words_per_document must be >= 0"),
    "pretrain-negative-mask_rate": ({"corpus": TINY_CORPUS, "mask_rate": -1, "steps": 1,
                                     "max_len": 24}, ["pretrain"], "mask_rate"),
    "seed-negative": (TINY_CORPUS, ["--seed", "-1", "gen-corpus"], "--seed"),
    "out-directory": (TINY_CORPUS, ["--out", ".", "gen-corpus"], "directory"),
    "config-directory": (TINY_CORPUS, ["--config", ".", "gen-corpus"], "directory"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, case):
    config, command, message = BAD_CONFIGS[case]
    capsys.readouterr()
    code = run(["--config", write_json(tmp_path / "cfg.json", config),
                "--out", str(tmp_path / "out"), *command])
    assert message in assert_one_line_exit_2(code, capsys)


# (file name, file bytes, command) triples: the test copies the workdir
# checkpoint and vocab to {tmp}/model.nsp(.vocab), then writes the bytes to
# {tmp}/<file name>.  {d} is the workdir and {task} its task config.
EVAL = ["--config", "{task}", "--checkpoint", "{tmp}/model.nsp", "eval-zeroshot", "--data"]
PRETRAIN = ["--out", "{tmp}/out.nsp", "pretrain", "--corpus", "{tmp}/corpus.jsonl"]
HISTOGRAM = ["--out", "{tmp}/hist.csv", "histogram", "--scored", "{tmp}/scored.jsonl"]
BAD_FILES = {
    "data-not-utf8": ("data.jsonl", b'{"text_a": "caf\xe9", "label": "topic0"}\n',
                      [*EVAL, "{tmp}/data.jsonl"]),
    "data-number-line": ("data.jsonl", b"5\n", [*EVAL, "{tmp}/data.jsonl"]),
    "data-text_a-number": ("data.jsonl", b'{"text_a": 5, "label": "topic0"}\n',
                           [*EVAL, "{tmp}/data.jsonl"]),
    "data-id-list": ("data.jsonl", b'{"id": [1], "text_a": "x", "label": "topic0"}\n',
                     [*EVAL, "{tmp}/data.jsonl"]),
    "data-nested-too-deep": ("data.jsonl", b"[" * 100_000, [*EVAL, "{tmp}/data.jsonl"]),
    "data-directory": (None, None, [*EVAL, "{d}"]),
    "vocab-not-utf8": ("model.nsp.vocab", b"[PAD]\n\xff\n", [*EVAL, "{d}/data.jsonl"]),
    "task-nested-too-deep": ("task.json", b"[" * 100_000,
                             ["--config", "{tmp}/task.json", *EVAL[2:], "{d}/data.jsonl"]),
    "task-not-utf8": ("task.json", b'{"task_type": "\xff"}',
                      ["--config", "{tmp}/task.json", *EVAL[2:], "{d}/data.jsonl"]),
    "corpus-not-utf8": ("corpus.jsonl", b'{"topic": 0, "sentences": ["\xff"]}\n', PRETRAIN),
    "corpus-topic-string": ("corpus.jsonl", b'{"topic": "a", "sentences": ["a b", "c d"]}\n',
                            PRETRAIN),
    "corpus-lone-surrogate": ("corpus.jsonl", b'{"topic": 0, "sentences": ["a \\udcff", "b"]}\n'
                              b'{"topic": 1, "sentences": ["c d", "e f"]}\n', PRETRAIN),
    "data-text_a-lone-surrogate": ("data.jsonl", b'{"text_a": "a \\udcff", "label": "topic0"}\n',
                                   [*EVAL, "{tmp}/data.jsonl"]),
    "data-id-lone-surrogate": ("data.jsonl",
                               b'{"id": "\\udcff", "text_a": "a", "label": "topic0"}\n',
                               [*EVAL, "{tmp}/data.jsonl"]),
    "scored-not-utf8": ("scored.jsonl", b'{"id": 0, "q": 0.5}\n\xff\n', HISTOGRAM),
    "scored-q-string": ("scored.jsonl", b'{"id": 0, "q": "0.5"}\n', HISTOGRAM),
    "scored-q-list": ("scored.jsonl", b'{"id": 0, "q": [0.5, 0.5], "gold": "topic0"}\n',
                      ["--config", "{task}", "--out", "{tmp}/m.jsonl", "map-samples",
                       "--scored", "{tmp}/scored.jsonl"]),
    "scored-gold-list": ("scored.jsonl", b'{"id": 0, "q": 0.5, "gold": ["topic0"]}\n',
                         ["--config", "{task}", "--out", "{tmp}/m.jsonl", "map-samples",
                          "--scored", "{tmp}/scored.jsonl"]),
}


# The file line each lone-surrogate case's error must name.
SURROGATE_LINES = {"corpus-lone-surrogate": "corpus.jsonl:1",
                   "data-text_a-lone-surrogate": "data.jsonl:1",
                   "data-id-lone-surrogate": "data.jsonl:1"}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_bad_file_exits_2_with_one_line(workdir, tmp_path, capsys, case):
    d, task_path = workdir
    name, content, command = BAD_FILES[case]
    shutil.copy(d / "model.nsp", tmp_path / "model.nsp")
    shutil.copy(d / "model.nsp.vocab", tmp_path / "model.nsp.vocab")
    if name is not None:
        (tmp_path / name).write_bytes(content)
    capsys.readouterr()
    code = run([arg.format(d=d, tmp=tmp_path, task=task_path) for arg in command])
    err = assert_one_line_exit_2(code, capsys)
    if case in SURROGATE_LINES:
        assert f"{SURROGATE_LINES[case]}: " in err and "not UTF-8" in err


def test_pretrain_refuses_long_sentence_before_step_0(tmp_path, capsys, monkeypatch):
    docs = [{"topic": d % 2, "sentences": [f"w{d} a{i} b{i} c{i}" for i in range(3)]}
            for d in range(20)]
    docs[7]["sentences"].insert(1, " ".join(f"x{i}" for i in range(60)))
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
    forwards = []
    monkeypatch.setattr(EncoderModel, "forward_ids", lambda *a: forwards.append(a))
    capsys.readouterr()
    code = run(["--config", write_json(tmp_path / "pre.json",
                                       {"steps": 300, "batch_size": 2, "max_len": 24}),
                "--out", str(tmp_path / "out.nsp"), "pretrain",
                "--corpus", str(tmp_path / "corpus.jsonl")])
    err = assert_one_line_exit_2(code, capsys)
    assert "'doc-7' sentence 1 has 60 tokens" in err and "max_len 24" in err
    assert forwards == [] and not (tmp_path / "out.nsp").exists()


def test_pair_text_b_too_long_names_the_example(workdir, tmp_path, capsys):
    """text_b is the data's own text and is never cut: a pair whose text_b
    does not fit is refused with its id, and the message speaks of no prompt."""
    d, _ = workdir
    task = TaskConfig.load(write_json(tmp_path / "task.json", PAIR_TASK))
    rows = [json.loads(l) for l in (d / "pairs.jsonl").read_text().splitlines()]
    long_id = kshot_split(load_jsonl(d / "pairs.jsonl", task), 1, 0).test[0].id
    for row in rows:
        if row["id"] == long_id:
            row["text_b"] = " ".join(["t0w00"] * 96)
    (tmp_path / "pairs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    code = run(["--config", str(tmp_path / "task.json"), "--checkpoint", str(d / "model.nsp"),
                "eval-zeroshot", "--mode", "samples_contrast",
                "--data", str(tmp_path / "pairs.jsonl")])
    err = assert_one_line_exit_2(code, capsys)
    assert f"example {long_id!r}: text_b needs 96 tokens but max_len 24 fits at most 20" in err
    assert "prompt" not in err


def test_pet_prompt_that_fills_max_len_exits_2(workdir, tmp_path, capsys):
    """A cloze prompt that leaves no room for the text is refused, not scored."""
    d, _ = workdir
    pattern = "{label} " + " ".join(["t1w00"] * 21)
    task = write_json(tmp_path / "task.json", {**TASK, "template": {"pattern": pattern}})
    capsys.readouterr()
    code = run(["--config", task, "--checkpoint", str(d / "model.nsp"), "eval-zeroshot",
                "--mode", "zero_shot_pet", "--data", str(d / "data.jsonl")])
    err = assert_one_line_exit_2(code, capsys)
    assert "label 0 ('topic0'): the prompt needs 22 tokens but max_len 24 fits at most 21" in err


def test_malformed_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"steps": 1,')
    capsys.readouterr()
    assert_one_line_exit_2(run(["--config", str(path), "--out", str(tmp_path / "c.jsonl"),
                                "gen-corpus"]), capsys)


@pytest.fixture(scope="module")
def mismatched(workdir):
    """The workdir checkpoint beside a vocab with one token more."""
    d, _ = workdir
    ckpt = d / "mismatch.nsp"
    shutil.copy(d / "model.nsp", ckpt)
    tokens = (d / "model.nsp.vocab").read_text().splitlines() + ["zzextra"]
    (d / "mismatch.nsp.vocab").write_text("\n".join(tokens) + "\n")
    return str(ckpt)


class TestVocabMismatch:
    @pytest.mark.parametrize("command", [["eval-zeroshot"], ["nsp-tune"], ["fine-tune"],
                                         ["ablate"], ["report"]])
    def test_exits_2(self, workdir, mismatched, tmp_path, capsys, command):
        d, task_path = workdir
        data = str(d / "data.jsonl")
        config, argv = task_path, [*command, "--data", data]
        if command == ["report"]:
            config = write_json(tmp_path / "exp.json", {
                "task": task_path, "data": data, "checkpoint": mismatched,
                "mode": "zero_shot_nsp", "k": 1, "seeds": [13]})
            argv = command
        capsys.readouterr()
        code = run(["--config", config, "--checkpoint", mismatched,
                    "--out", str(tmp_path / "out"), *argv])
        assert "vocab_size" in assert_one_line_exit_2(code, capsys)


def rewrite_header(src, dst, edit):
    """Copy checkpoint `src` to `dst` with edit(header) as its JSON header."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    new = json.dumps(edit(json.loads(blob[12 : 12 + hlen]))).encode()
    dst.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen :])
    shutil.copy(str(src) + ".vocab", str(dst) + ".vocab")


HEADER_EDITS = {
    "no-config": lambda h: {k: v for k, v in h.items() if k != "config"},
    "no-tensors": lambda h: {k: v for k, v in h.items() if k != "tensors"},
    "unknown-config-field": lambda h: {**h, "config": {**h["config"], "bogus": 1}},
    "list": lambda h: [h],
}


@pytest.mark.parametrize("case", list(HEADER_EDITS))
def test_bad_checkpoint_header_exits_2(workdir, tmp_path, capsys, case):
    d, task_path = workdir
    ckpt = tmp_path / "bad.nsp"
    rewrite_header(d / "model.nsp", ckpt, HEADER_EDITS[case])
    capsys.readouterr()
    code = run(["--config", task_path, "--checkpoint", str(ckpt),
                "eval-zeroshot", "--data", str(d / "data.jsonl")])
    assert "bad header" in assert_one_line_exit_2(code, capsys)


def test_unknown_checkpoint_tensor_exits_2(workdir, tmp_path, capsys):
    d, task_path = workdir
    ckpt = tmp_path / "bad.nsp"
    rewrite_header(d / "model.nsp", ckpt, lambda h: {
        **h, "tensors": {**h["tensors"], "bogus": {"shape": [2], "offset": 0}}})
    capsys.readouterr()
    code = run(["--config", task_path, "--checkpoint", str(ckpt),
                "eval-zeroshot", "--data", str(d / "data.jsonl")])
    assert "unknown tensor 'bogus'" in assert_one_line_exit_2(code, capsys)


@pytest.fixture(scope="module")
def fuzz_dir(workdir):
    """A 1-layer, hidden-16 checkpoint on the workdir vocab, and a small dataset."""
    d, _ = workdir
    vocab = Vocab.load(d / "model.nsp.vocab")
    model = EncoderModel(EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                                       vocab_size=len(vocab), max_position=24), seed=3)
    fuzz = d / "fuzz"
    fuzz.mkdir()
    model.save_checkpoint(fuzz / "small.nsp")
    vocab.save(fuzz / "mutant.nsp.vocab")
    lines = (d / "data.jsonl").read_text().splitlines()
    (fuzz / "data.jsonl").write_text("\n".join(lines[:6] + lines[-6:]) + "\n")
    return fuzz


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_bytes_fuzz(workdir, fuzz_dir, capsys, data):
    """A truncated checkpoint, or one with a changed header byte, loads or
    exits 2 with one line; it never exits 1."""
    _, task_path = workdir
    blob = (fuzz_dir / "small.nsp").read_bytes()
    header_end = 12 + struct.unpack("<I", blob[8:12])[0]
    if data.draw(st.booleans(), label="truncate"):
        mutant = blob[: data.draw(st.integers(0, len(blob)), label="length")]
    else:
        pos = data.draw(st.integers(0, header_end - 1), label="position")
        mutant = blob[:pos] + bytes([data.draw(st.integers(0, 255), label="byte")]) \
            + blob[pos + 1 :]
    (fuzz_dir / "mutant.nsp").write_bytes(mutant)
    capsys.readouterr()
    code = run(["--config", task_path, "--checkpoint", str(fuzz_dir / "mutant.nsp"),
                "eval-zeroshot", "--data", str(fuzz_dir / "data.jsonl")])
    assert code in (0, 2)
    if code == 2:
        assert_one_line_exit_2(code, capsys)


def json_type(value):
    for kind, types in [("null", type(None)), ("boolean", bool), ("number", (int, float)),
                        ("string", str), ("array", list), ("object", dict)]:
        if isinstance(value, types):
            return kind


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                | st.text(max_size=4))
JSON_VALUES = (JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2)
               | st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2))


def value_paths(value, path=()):
    """The path to `value` and to every value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from value_paths(inner, (*path, key))


def swapped(config, path, value):
    if not path:
        return value
    config = dict(config) if isinstance(config, dict) else list(config)
    config[path[0]] = swapped(config[path[0]], path[1:], value)
    return config


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_type_fuzz(workdir, fuzz_dir, tmp_path, capsys, data):
    """A valid corpus, pretrain, task or report config with one value
    swapped for a value of another JSON type runs or exits 2 with one line;
    it never exits 1."""
    d, task_path = workdir
    task = {**TASK, "mapping": {"strategy": "candidates_contrast", "order": "ascending",
                                "batch_size": 16}}
    commands = {
        "corpus": ({**TINY_CORPUS, "concentration": 0.5, "seed": 0}, ["gen-corpus"]),
        "pretrain": ({"corpus": TINY_CORPUS, "preset": "micro", "steps": 1, "batch_size": 2,
                      "lr": 1e-3, "max_len": 24, "mask_rate": 0.15}, ["pretrain"]),
        "task": (task, ["eval-zeroshot", "--data", str(fuzz_dir / "data.jsonl")]),
        "report": ({"task": task_path, "data": str(d / "data.jsonl"),
                    "checkpoint": str(d / "model.nsp"), "mode": "zero_shot_nsp", "k": 1,
                    "seeds": [13], "epochs": 1, "lr": 1e-3, "batch_size": 8,
                    "variant": "coupled_bce"}, ["report"]),
    }
    config, command = commands[data.draw(st.sampled_from(list(commands)), label="config")]
    path = data.draw(st.sampled_from(list(value_paths(config))), label="path")
    old = config
    for key in path:
        old = old[key]
    value = data.draw(JSON_VALUES.filter(lambda v: json_type(v) != json_type(old)),
                      label="value")
    cfg = write_json(tmp_path / "cfg.json", swapped(config, path, value))
    capsys.readouterr()
    code = run(["--config", cfg, "--checkpoint", str(d / "model.nsp"),
                "--out", str(tmp_path / "out"), *command])
    assert code in (0, 2)
    if code == 2:
        assert_one_line_exit_2(code, capsys)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_range_fuzz(tmp_path, capsys, data):
    """A valid corpus or pretrain config with one integer swapped for 0, -3
    or 500 runs or exits 2 with one line; it never exits 1."""
    corpus = {**TINY_CORPUS, "sentence_len_min": 5, "sentence_len_max": 12,
              "shared_styles": 4, "seed": 0}
    commands = {
        "corpus": (corpus, ["gen-corpus"]),
        "pretrain": ({"corpus": corpus, "steps": 1, "batch_size": 2, "max_len": 24},
                     ["pretrain"]),
    }
    config, command = commands[data.draw(st.sampled_from(list(commands)), label="config")]

    def at(path):
        value = config
        for key in path:
            value = value[key]
        return value

    paths = [p for p in value_paths(config) if type(at(p)) is int]
    path = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(st.sampled_from([0, -3, 500]), label="value")
    cfg = write_json(tmp_path / "cfg.json", swapped(config, path, value))
    capsys.readouterr()
    code = run(["--config", cfg, "--out", str(tmp_path / "out"), *command])
    assert code in (0, 2)
    if code == 2:
        assert_one_line_exit_2(code, capsys)


class TestExitCodes:
    def test_help_exits_0(self):
        assert run(["--help"]) == 0

    def test_unknown_command_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_option_exits_2(self):
        assert run(["histogram"]) == 2
