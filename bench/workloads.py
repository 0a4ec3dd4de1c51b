"""Workloads: set-up, timed rounds of every pipeline stage, and output checks.

A round is a fixed list of calls into nspbert, each one a user of the
package makes, and each timed on its own:

1. ``groups`` times, interleaved: a ``pretrain`` call (joint MLM + NSP,
   batch 16, ``max_len`` 28, continuing from a fixed-seed initialisation on
   pairs freshly drawn each step); one ``harness.evaluate`` call per
   zero-shot mode on that group's examples at ``max_len`` 48
   (``zero_shot_nsp`` and ``zero_shot_pet`` on the 4-topic single-sentence
   task, ``samples_contrast`` and ``thresholds`` on the sentence-pair task);
   and ``loads`` calls of ``EncoderModel.load_checkpoint``.
2. One K-shot seed: NSP-tuning (``coupled_bce``) and ``fine_tune_baseline``,
   each timed from checkpoint load to test accuracy, with dev evaluation
   every epoch and best-epoch restore inside the program.

Every name is looked up on its module at call time, so a traced round
sees the wrappers that ``tracing.Tracer`` installs.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import nspbert.harness as harness
import nspbert.scoring as scoring
import nspbert.tuning as tuning
from nspbert.corpus import SyntheticCorpusConfig, generate_corpus
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.prompting import render_single
from nspbert.tokenizer import Tokenizer, Vocab

import reference as ref

# The package re-exports its pretrain() function under the submodule's name.
pretraining = importlib.import_module("nspbert.pretrain")

STANDARD_CORPUS = SyntheticCorpusConfig(seed=7)
# Largest |program - reference| allowed on a probability.  Measured drift of
# the float32 program against the float64 reference is below 4e-7.
TOL = 1e-5
# Accuracy floors for the pre-trained checkpoint; chance is 0.25 (4 topics)
# and 0.5 (pair).  The topic floor sits halfway from chance to 1.  Pooled
# pair accuracies went as low as 0.758 (samples-contrast) and 0.773
# (thresholds) over run seeds 0-199, so the pair floor sits lower: about six
# binomial standard errors above chance for the 384 pair examples a run scores.
TOPIC_FLOOR, PAIR_FLOOR = 0.625, 0.65
TUNE_LR, TUNE_BATCH = 1e-4, 8


@dataclass(frozen=True)
class Spec:
    checkpoint: str  # "micro" (pre-trained) or "tiny" (initialisation)
    init_seed: int  # of the model that the pretrain stage trains
    groups: int  # per round: this many (pretrain call, one zero-shot call per mode)
    pretrain_steps: int  # per pretrain call
    zs_topic: int  # topic examples per group for zero_shot_nsp
    zs_pet: int  # the group's first examples, for zero_shot_pet
    pair_test: int  # pair examples per group for samples_contrast and thresholds
    pair_dev: int  # shared by all groups
    k: int
    epochs: int
    tune_dev: int
    tune_test: int
    loads: int  # checkpoint loads per group
    prefix_steps: int  # pre-training prefix run twice for bit-identity
    prob_sample: int  # examples whose probabilities are compared one call at a time

    @property
    def pretrained(self):
        return self.checkpoint == "micro"


# Timings on a shared 2-core machine move in bursts of up to +-30% on
# sub-second calls.  So each timed call is short (0.05-0.6 s; few-shot seeds
# take seconds), the calls of every stage are interleaved through the round,
# and a run reports the median of many samples per metric.
WORKLOADS = {
    "micro": Spec("micro", 21, groups=8, pretrain_steps=5, zs_topic=24, zs_pet=8,
                  pair_test=48, pair_dev=48, k=16, epochs=3, tune_dev=64, tune_test=96,
                  loads=4, prefix_steps=8, prob_sample=16),
    "tiny": Spec("tiny", 0, groups=3, pretrain_steps=1, zs_topic=6, zs_pet=6,
                 pair_test=16, pair_dev=8, k=2, epochs=2, tune_dev=8, tune_test=8,
                 loads=1, prefix_steps=2, prob_sample=4),
}


@dataclass
class State:
    spec: Spec
    ckpt: str
    vocab: Vocab
    model: EncoderModel  # the checkpoint, for zero-shot evaluation
    docs: list
    pre_model: EncoderModel  # trained in place by the pretrain stage
    topic: list
    task: object
    zs_groups: list
    pair_groups: list
    pair_dev: list
    ptask: object
    base_seed: int
    zs_accuracy: dict = field(default_factory=dict)  # (metric, group) -> accuracy


def _pick(items, n, rng):
    return [items[i] for i in rng.choice(len(items), n, replace=False)]


def setup(spec, ckpt, seed):
    """Everything a run needs before its first timed operation."""
    rng = np.random.default_rng(seed)
    vocab = Vocab.load(ckpt + ".vocab")
    model = EncoderModel.load_checkpoint(ckpt)
    docs = generate_corpus(STANDARD_CORPUS)
    pre_model = EncoderModel(EncoderConfig.preset(spec.checkpoint, len(vocab)),
                             seed=spec.init_seed)
    task_seed = int(rng.integers(1, 1 << 30))
    topic, task = harness.make_synthetic_task(STANDARD_CORPUS, "topic", task_seed)
    pairs, ptask = harness.make_synthetic_task(STANDARD_CORPUS, "pair", task_seed)
    g = spec.groups
    zs = _pick(topic, g * spec.zs_topic, rng)
    pair = _pick(pairs, spec.pair_dev + g * spec.pair_test, rng)
    test = pair[spec.pair_dev :]
    return State(spec, ckpt, vocab, model, docs, pre_model, topic, task,
                 [zs[i::g] for i in range(g)], [test[i::g] for i in range(g)],
                 pair[: spec.pair_dev], ptask, int(rng.integers(0, 1 << 30)))


def zero_shot_ops(state, g):
    """(metric, examples, task, eval mode, dev set) of group g's zero-shot calls."""
    zs, pair = state.zs_groups[g], state.pair_groups[g]
    return (
        ("zs_nsp_ex_per_s", zs, state.task, "zero_shot_nsp", None),
        ("zs_pet_ex_per_s", zs[: state.spec.zs_pet], state.task, "zero_shot_pet", None),
        ("zs_samples_ex_per_s", pair, state.ptask, "samples_contrast", state.pair_dev),
        ("zs_thresholds_ex_per_s", pair, state.ptask, "thresholds", state.pair_dev),
    )


def ops_per_round(spec):
    """Operations attempted per round: pre-training steps, examples scored
    per zero-shot mode, tuning seeds and checkpoint loads."""
    per_group = spec.pretrain_steps + spec.zs_topic + spec.zs_pet + 2 * spec.pair_test
    return spec.groups * (per_group + spec.loads) + 2


# ---------------------------------------------------------------------------
# One round


def run_round(state, r, samples):
    """Time one round; returns (seconds measured, outputs for check_round)."""
    s, v = state.spec, state.vocab
    seed = state.base_seed + r
    measured = 0.0
    zs_accuracy = {}
    for g in range(s.groups):
        t = perf_counter()
        pretraining.pretrain(state.pre_model, state.docs, v, steps=s.pretrain_steps,
                             seed=seed * s.groups + g)
        dt = perf_counter() - t
        measured += dt
        samples["pretrain_step_ms"].append(1e3 * dt / s.pretrain_steps)
        for metric, data, task, mode, dev in zero_shot_ops(state, g):
            t = perf_counter()
            zs_accuracy[metric, g] = harness.evaluate(state.model, v, data, task, mode,
                                                      dev=dev)
            dt = perf_counter() - t
            measured += dt
            samples[metric].append(len(data) / dt)
        for _ in range(s.loads):
            t = perf_counter()
            EncoderModel.load_checkpoint(state.ckpt)
            dt = perf_counter() - t
            measured += dt
            samples["ckpt_load_ms"].append(1e3 * dt)

    split = harness.kshot_split(state.topic, s.k, seed)
    rng = np.random.default_rng(seed)
    dev, test = _pick(split.dev, s.tune_dev, rng), _pick(split.test, s.tune_test, rng)
    tuned = {}
    for metric, variant, train_fn in (("nsp_tune_s", "coupled_bce", "nsp_tune"),
                                      ("fine_tune_s", "fine_tune", "fine_tune_baseline")):
        cfg = tuning.TuningConfig(epochs=s.epochs, lr=TUNE_LR, batch_size=TUNE_BATCH,
                                  variant=variant, seed=seed)
        t = perf_counter()
        model = EncoderModel.load_checkpoint(state.ckpt)
        res = getattr(tuning, train_fn)(model, split.train, dev, state.task, v, cfg)
        acc = tuning.accuracy(res.predict(test, state.task, v), test)
        dt = perf_counter() - t
        measured += dt
        samples[metric].append(dt)
        tuned[metric] = (res, acc)
    return measured, (zs_accuracy, dev, test, tuned)


def check_round(state, outputs, problems):
    """Zero-shot accuracies as checked, best-epoch restore, and (pre-trained
    checkpoint) tuning not worse than zero-shot on the same test set."""
    zs_accuracy, dev, test, tuned = outputs
    v, task = state.vocab, state.task
    if zs_accuracy != state.zs_accuracy:
        problems.append(f"zero-shot accuracies {zs_accuracy} differ from the checked "
                        f"{state.zs_accuracy}")
    for metric, (res, _) in tuned.items():
        best = max(h["dev_acc"] for h in res.history)
        got = tuning.accuracy(res.predict(dev, task, v), dev)
        if got != best:
            problems.append(f"{metric}: restored dev accuracy {got} != best epoch {best}")
    if state.spec.pretrained:
        zs_acc = harness.evaluate(state.model, v, test, task, "zero_shot_nsp")
        tuned_acc = tuned["nsp_tune_s"][1]
        # Near the ceiling, tuning moves one or two test predictions either
        # way; two binomial standard errors of the zero-shot accuracy
        # (Laplace-smoothed) separate that from tuning that does harm.
        n = len(test)
        p = (zs_acc * n + 1) / (n + 2)
        margin = 2 * math.sqrt(p * (1 - p) / n)
        if tuned_acc < zs_acc - margin:
            problems.append(f"NSP-tuned test accuracy {tuned_acc:.4f} below zero-shot "
                            f"{zs_acc:.4f} by more than {margin:.4f}")
    return tuned["nsp_tune_s"][0].model


# ---------------------------------------------------------------------------
# Checks before and after the timed rounds


def check_pretraining(state, build_trace, problems):
    """Bit-identical prefix, initial loss near ln|V| + ln 2, and (micro) the
    build's 2000-step loss falling and matching this process's prefix."""
    s, v = state.spec, state.vocab
    runs = []
    for _ in range(2):
        model = EncoderModel(EncoderConfig.preset(s.checkpoint, len(v)), seed=s.init_seed)
        trace = pretraining.pretrain(model, state.docs, v, steps=s.prefix_steps,
                                     seed=s.init_seed)
        runs.append(([step["total"] for step in trace], model))
    (la, ma), (lb, mb) = runs
    same = la == lb and all(np.array_equal(ma.params[k].data, mb.params[k].data)
                            for k in ma.params)
    if not same:
        problems.append("two pre-training runs of one seed differ")
    start = math.log(len(v)) + math.log(2)
    if abs(la[0] - start) > 0.1 * start:
        problems.append(f"first pre-training loss {la[0]:.3f} not near ln|V|+ln2 = {start:.3f}")
    if build_trace is not None:
        if build_trace[: s.prefix_steps] != la:
            problems.append("pre-training prefix differs from the checkpoint build's")
        window = len(build_trace) // 10
        means = [float(np.mean(build_trace[i : i + window]))
                 for i in range(0, len(build_trace), window)]
        if not all(b < a for a, b in zip(means, means[1:])):
            problems.append(f"build loss not falling window by window: {means}")


def check_checkpoints(state, tuned_model, scratch, problems):
    """Loaded arrays equal the file's bytes; a tuned model round-trips bit-exactly."""
    _, raw = ref.read_checkpoint(state.ckpt)
    for name, p in state.model.params.items():
        if not np.array_equal(p.data, raw[name].astype(np.float32)):
            problems.append(f"loaded tensor {name} differs from the checkpoint bytes")
    tuned_model.save_checkpoint(scratch)
    back = EncoderModel.load_checkpoint(scratch)
    if (back.config != tuned_model.config or back.step != tuned_model.step
            or any(not np.array_equal(back.params[k].data, tuned_model.params[k].data)
                   for k in tuned_model.params)):
        problems.append("tuned checkpoint does not round-trip bit-exactly")


def _ambiguous_argmax(probs):
    top2 = np.sort(probs, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0] <= TOL


def check_outputs(state, problems):
    """Compare zero-shot outputs with the reference encoder and mapping; the
    accuracies found here are the ones every timed round must reproduce."""
    s, v = state.spec, state.vocab
    tok = Tokenizer(v)
    rv = ref.RefVocab(state.ckpt + ".vocab")
    enc = ref.RefEncoder(state.ckpt)
    task, ptask = state.task, state.ptask
    labels = task.labels
    acc = state.zs_accuracy = {
        (metric, g): harness.evaluate(state.model, v, data, t, mode, dev=dev)
        for g in range(s.groups) for metric, data, t, mode, dev in zero_shot_ops(state, g)}

    def layout(a, b, max_len):
        ids, segs = rv.pair_layout(a, b, max_len)
        e = tok.encode_pair(a, b, max_len)
        n = len(ids)
        if not (np.array_equal(e.ids[:n], ids) and np.array_equal(e.segment_ids[:n], segs)
                and e.attention_mask[:n].all() and not e.attention_mask[n:].any()
                and (e.ids[n:] == v.pad_id).all()):
            problems.append(f"encode_pair layout differs from the reference for {(a, b)}")
        return ids, segs

    def close(what, got, want):
        err = float(np.abs(np.asarray(got) - want).max())
        if err > TOL:
            problems.append(f"{what} differ from the reference by {err:.2e}")

    phrases = [task.verbalizer(label) for label in labels]
    gold = [e.label for e in state.pair_dev]
    proportions = [gold.count(label) / len(gold) for label in ptask.labels]
    if ptask.mapping.get("order", "ascending") != "ascending":
        problems.append("the reference rank-and-divide covers ascending order only")
    ref_dev = enc.isnext_many([layout(e.text_a, e.text_b, ptask.max_len)
                               for e in state.pair_dev])
    close("pair dev IsNext probabilities",
          [x.q for x in harness.score_pairs(state.model, v, state.pair_dev, ptask)], ref_dev)
    order, cuts = ref.quantile_cuts(ref_dev, gold)

    for g in range(s.groups):
        zs, pair = state.zs_groups[g], state.pair_groups[g]
        # zero_shot_nsp: probabilities, then predictions against the reference argmax.
        ref_q = enc.isnext_many([
            layout(*render_single(ex.text_a, task.template, task.verbalizer, label),
                   task.max_len) for ex in zs for label in labels]).reshape(len(zs), -1)
        if g == 0:
            for i, ex in enumerate(zs[: s.prob_sample]):
                close(f"IsNext probabilities of {ex.id}",
                      scoring.score_candidates(state.model, v, ex.text_a, task).q, ref_q[i])
        preds = tuning.predict_candidates_batch(state.model, v, zs, task)
        clear = ~_ambiguous_argmax(ref_q)
        wrong = sum(1 for i, p in enumerate(preds)
                    if clear[i] and p != labels[int(ref_q[i].argmax())])
        if wrong:
            problems.append(f"zero_shot_nsp predictions differ from the reference on {wrong}")
        if tuning.accuracy(preds, zs) != acc["zs_nsp_ex_per_s", g]:
            problems.append("zero_shot_nsp accuracy differs from its own predictions")

        # zero_shot_pet: probabilities, and accuracy from the reference argmax.
        pet = zs[: s.zs_pet]
        ref_pet = np.array([enc.pet_probs(rv, ex.text_a, phrases, task.max_len)
                            for ex in pet])
        if g == 0:
            for i, ex in enumerate(pet[: s.prob_sample]):
                close(f"PET probabilities of {ex.id}",
                      scoring.pet_score(state.model, v, ex.text_a, task), ref_pet[i])
        _check_accuracy(problems, "zero_shot_pet", acc["zs_pet_ex_per_s", g],
                        [labels[j] for j in ref_pet.argmax(axis=1)], pet,
                        set(np.flatnonzero(_ambiguous_argmax(ref_pet))))

        # samples_contrast and thresholds from reference probabilities.
        ref_test = enc.isnext_many([layout(e.text_a, e.text_b, ptask.max_len)
                                    for e in pair])
        close("pair test IsNext probabilities",
              [x.q for x in harness.score_pairs(state.model, v, pair, ptask)], ref_test)
        sc_pred, sc_amb = ref.rank_and_divide(ref_test, ptask.labels, proportions,
                                              ptask.mapping.get("batch_size", 16), TOL)
        _check_accuracy(problems, "samples_contrast", acc["zs_samples_ex_per_s", g],
                        sc_pred, pair, sc_amb)
        th_pred, th_amb = ref.threshold_labels(ref_test, order, cuts, TOL)
        _check_accuracy(problems, "thresholds", acc["zs_thresholds_ex_per_s", g],
                        th_pred, pair, th_amb)

    pooled = {m: float(np.mean([a for (mm, _), a in acc.items() if mm == m]))
              for m, _ in acc}
    if s.pretrained:
        floors = {"zs_nsp_ex_per_s": TOPIC_FLOOR, "zs_pet_ex_per_s": TOPIC_FLOOR,
                  "zs_samples_ex_per_s": PAIR_FLOOR, "zs_thresholds_ex_per_s": PAIR_FLOOR}
        for metric, floor in floors.items():
            if pooled[metric] < floor:
                problems.append(f"{metric}: accuracy {pooled[metric]:.3f} below floor {floor}")
    return pooled


def _check_accuracy(problems, mode, got, ref_pred, data, ambiguous):
    """The program's accuracy equals the reference's, up to the examples whose
    reference label a TOL-sized change of probability could flip."""
    n = len(data)
    want = sum(p == ex.label for p, ex in zip(ref_pred, data)) / n
    if abs(got - want) * n > len(ambiguous) + 1e-9:
        problems.append(f"{mode}: accuracy {got:.4f} != reference {want:.4f} "
                        f"({len(ambiguous)} ambiguous)")
