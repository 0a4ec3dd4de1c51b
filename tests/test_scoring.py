"""Answer mapping: candidates-contrast, samples-contrast apportionment,
dev-set thresholds, PET scoring and the histogram/JSONL emitters."""

import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspbert.errors import ValidationError
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.prompting import PromptTemplate, TaskConfig, Verbalizer
from nspbert.scoring import (
    LabelDistribution,
    ScoredSample,
    Thresholds,
    apply_thresholds,
    apportion,
    emit_probability_histogram,
    load_scored_jsonl,
    pet_score,
    predict_candidates_contrast,
    samples_contrast,
    save_scored_jsonl,
    score_candidates,
    thresholds_from_dev,
)
from nspbert.tokenizer import build_vocab


class TestScoredSample:
    def test_scalar_q(self):
        s = ScoredSample(1, 0.4)
        assert s.q == 0.4

    def test_candidate_list(self):
        s = ScoredSample("a", [0.2, 0.9])
        assert s.q == [0.2, 0.9]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ScoredSample(1, 1.2)
        with pytest.raises(ValidationError):
            ScoredSample(1, [0.5, -0.1])


class TestLabelDistribution:
    def test_valid(self):
        d = LabelDistribution(["a", "b"], [0.3, 0.7])
        assert d.majority_label() == "b"

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError, match="sum"):
            LabelDistribution(["a", "b"], [0.3, 0.6])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            LabelDistribution(["a", "b"], [-0.1, 1.1])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length"):
            LabelDistribution(["a"], [0.5, 0.5])

    def test_from_gold(self):
        examples = [SimpleNamespace(label=l) for l in ["a", "a", "b", "a"]]
        d = LabelDistribution.from_gold(examples, ["a", "b"])
        assert d.proportions == [0.75, 0.25]

    def test_from_gold_empty(self):
        with pytest.raises(ValidationError):
            LabelDistribution.from_gold([], ["a"])


class TestCandidatesContrast:
    def test_argmax(self):
        assert predict_candidates_contrast(ScoredSample(0, [0.2, 0.9, 0.5])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert predict_candidates_contrast(ScoredSample(0, [0.4, 0.4, 0.1])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            predict_candidates_contrast(ScoredSample(0, []))


class TestApportion:
    def test_exact_quotas(self):
        # [DERIVED] 10 * (0.5, 0.3, 0.2) is integral.
        d = LabelDistribution(["a", "b", "c"], [0.5, 0.3, 0.2])
        assert apportion(10, d) == [5, 3, 2]

    def test_largest_remainder(self):
        # [DERIVED] quotas 3.5 / 2.1 / 1.4 -> floors 3/2/1, one seat left,
        # largest remainder .5 belongs to the first label.
        d = LabelDistribution(["a", "b", "c"], [0.5, 0.3, 0.2])
        assert apportion(7, d) == [4, 2, 1]

    def test_remainder_tie_goes_to_earlier_label(self):
        # [DERIVED] quotas 1.5 / 1.5: equal remainders, earlier label wins.
        d = LabelDistribution(["a", "b"], [0.5, 0.5])
        assert apportion(3, d) == [2, 1]

    @given(
        n=st.integers(0, 200),
        props=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_sum_and_stay_within_quota_bounds(self, n, props):
        total = sum(props)
        d = LabelDistribution([str(i) for i in range(len(props))],
                              [p / total for p in props])
        counts = apportion(n, d)
        assert sum(counts) == n
        for c, p in zip(counts, d.proportions):
            quota = n * p
            assert math.floor(quota) <= c <= math.ceil(quota)


class TestSamplesContrast:
    DIST = LabelDistribution(["N", "P"], [0.5, 0.5])

    def _samples(self, qs):
        return [ScoredSample(i, q) for i, q in enumerate(qs)]

    def test_ascending_hand_example(self):
        # [DERIVED] ranked ascending by q: ids 1, 3, 2, 0; first two get N.
        labels = samples_contrast(self._samples([0.9, 0.1, 0.8, 0.2]),
                                  "ascending", self.DIST, 4)
        assert labels == ["P", "N", "P", "N"]

    def test_descending_reverses_groups(self):
        labels = samples_contrast(self._samples([0.9, 0.1, 0.8, 0.2]),
                                  "descending", self.DIST, 4)
        assert labels == ["N", "P", "N", "P"]

    def test_q_ties_rank_by_position(self):
        labels = samples_contrast(self._samples([0.5, 0.5, 0.5, 0.5]),
                                  "ascending", self.DIST, 4)
        assert labels == ["N", "N", "P", "P"]

    def test_consecutive_batches_are_independent(self):
        qs = [0.9, 0.1, 0.2, 0.8]
        whole = samples_contrast(self._samples(qs), "ascending", self.DIST, 2)
        first = samples_contrast(self._samples(qs[:2]), "ascending", self.DIST, 2)
        second = samples_contrast(self._samples(qs[2:]), "ascending", self.DIST, 2)
        assert whole == first + second

    def test_skewed_distribution_uses_apportionment(self):
        # [DERIVED] 4 * (0.75, 0.25) = (3, 1): lowest three qs get N.
        dist = LabelDistribution(["N", "P"], [0.75, 0.25])
        labels = samples_contrast(self._samples([0.4, 0.3, 0.2, 0.1]),
                                  "ascending", dist, 4)
        assert labels == ["P", "N", "N", "N"]

    def test_batch_smaller_than_labels_degenerates_to_majority(self):
        dist = LabelDistribution(["N", "P"], [0.4, 0.6])
        labels = samples_contrast(self._samples([0.1, 0.9]), "ascending", dist, 1)
        assert labels == ["P", "P"]

    def test_trailing_partial_batch(self):
        # 5 samples, batch 4: the final singleton falls back to majority.
        dist = LabelDistribution(["N", "P"], [0.4, 0.6])
        labels = samples_contrast(self._samples([0.9, 0.1, 0.8, 0.2, 0.5]),
                                  "ascending", dist, 4)
        assert labels[4] == "P"
        assert sorted(labels[:4]) == ["N", "N", "P", "P"]

    def test_invalid_batch_size(self):
        with pytest.raises(ValidationError, match="batch size"):
            samples_contrast(self._samples([0.5]), "ascending", self.DIST, 0)

    def test_invalid_order(self):
        with pytest.raises(ValidationError, match="order"):
            samples_contrast(self._samples([0.5]), "sideways", self.DIST, 4)


class TestThresholds:
    def _dev(self, spec):
        out = []
        for i, (q, gold) in enumerate(spec):
            out.append(ScoredSample(i, q, gold=gold))
        return out

    def test_two_label_midpoint(self):
        # [DERIVED] sorted qs 0.1 0.2 | 0.8 0.9; cut = (0.2 + 0.8) / 2.
        th = thresholds_from_dev(self._dev([(0.1, "A"), (0.2, "A"),
                                            (0.8, "B"), (0.9, "B")]))
        assert th.label_order == ["A", "B"]
        assert th.cuts == [0.5]

    def test_label_order_by_mean_q(self):
        th = thresholds_from_dev(self._dev([(0.9, "A"), (0.8, "A"),
                                            (0.1, "B"), (0.2, "B")]))
        assert th.label_order == ["B", "A"]

    def test_unequal_counts(self):
        # [DERIVED] cut after the single low-label sample: (0.1 + 0.4) / 2.
        th = thresholds_from_dev(self._dev([(0.1, "A"), (0.4, "B"),
                                            (0.6, "B"), (0.9, "B")]))
        assert th.cuts == [0.25]

    def test_three_labels(self):
        # [DERIVED] cuts (0.2 + 0.5) / 2 and (0.55 + 0.8) / 2.
        th = thresholds_from_dev(self._dev([(0.1, "A"), (0.2, "A"),
                                            (0.5, "B"), (0.55, "B"),
                                            (0.8, "C"), (0.9, "C")]))
        assert th.label_order == ["A", "B", "C"]
        np.testing.assert_allclose(th.cuts, [0.35, 0.675])

    def test_apply_intervals_and_boundary(self):
        th = Thresholds(["A", "B"], [0.5])
        assert apply_thresholds(th, 0.3) == "A"
        assert apply_thresholds(th, 0.7) == "B"
        # a q exactly on the cut goes to the upper label
        assert apply_thresholds(th, 0.5) == "B"

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_dev_assignment_recovers_gold_counts(self, seed):
        # Oracle property: with distinct qs, applying the thresholds back
        # to the dev set assigns each label exactly its gold count.
        rng = np.random.default_rng(seed)
        qs = rng.permutation(np.linspace(0.01, 0.99, 12))
        golds = ["A"] * 5 + ["B"] * 4 + ["C"] * 3
        # gold labels follow q order so the labels are separable
        order = np.argsort(qs)
        dev = [None] * 12
        for rank, idx in enumerate(order):
            dev[idx] = ScoredSample(int(idx), float(qs[idx]), gold=golds[rank])
        th = thresholds_from_dev(dev)
        assigned = [apply_thresholds(th, s.q) for s in dev]
        for label, want in (("A", 5), ("B", 4), ("C", 3)):
            assert assigned.count(label) == want

    def test_empty_dev_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            thresholds_from_dev([])

    def test_missing_gold_rejected(self):
        with pytest.raises(ValidationError, match="gold"):
            thresholds_from_dev([ScoredSample(0, 0.5)])

    def test_single_label_rejected(self):
        with pytest.raises(ValidationError, match="single label"):
            thresholds_from_dev(self._dev([(0.1, "A"), (0.9, "A")]))


@pytest.fixture(scope="module")
def small_setup():
    corpus = ["good game tonight", "bad story here", "this is sports news",
              "this is politics news"]
    vocab = build_vocab(corpus, max_size=64)
    cfg = EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                        vocab_size=len(vocab), max_position=48)
    model = EncoderModel(cfg, seed=1)
    task = TaskConfig(
        task_type="single",
        labels=["sports", "politics"],
        template=PromptTemplate("this is {label} news"),
        verbalizer=Verbalizer({"sports": "sports", "politics": "politics"}),
        max_len=32,
    )
    return model, vocab, task


class TestModelScoring:
    def test_score_candidates_shape_and_range(self, small_setup):
        model, vocab, task = small_setup
        s = score_candidates(model, vocab, "good game tonight", task, sample_id=7)
        assert s.sample_id == 7
        assert len(s.q) == 2
        assert all(0.0 < q < 1.0 for q in s.q)

    def test_score_candidates_needs_two_labels(self, small_setup):
        model, vocab, task = small_setup
        import dataclasses

        with pytest.raises(ValidationError, match="at least 2"):
            solo = dataclasses.replace(task, labels=["sports"],
                                       verbalizer=Verbalizer({"sports": "sports"}))
            score_candidates(model, vocab, "x", solo)

    def test_pet_score_is_distribution(self, small_setup):
        model, vocab, task = small_setup
        probs = pet_score(model, vocab, "good game tonight", task)
        assert probs.shape == (2,)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert np.all(probs > 0)


class TestEmitters:
    def test_histogram_counts(self, tmp_path):
        path = tmp_path / "hist.csv"
        counts, edges = emit_probability_histogram(
            [0.05, 0.1, 0.95, 1.0, 0.51], bins=2, path=path
        )
        # [DERIVED] bins [0, 0.5) and [0.5, 1.0] -> 2 and 3; the last bin
        # is closed so q = 1.0 lands inside it.
        np.testing.assert_array_equal(counts, [2, 3])
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        assert len(rows) == 3
        assert rows[2][2] == "3"

    def test_histogram_needs_two_bins(self, tmp_path):
        with pytest.raises(ValidationError, match="bins"):
            emit_probability_histogram([0.5], bins=1, path=tmp_path / "h.csv")

    def test_scored_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        samples = [ScoredSample(0, 0.25, gold="A"), ScoredSample(1, [0.5, 0.75])]
        save_scored_jsonl(samples, path)
        loaded = load_scored_jsonl(path)
        assert [(s.sample_id, s.q, s.gold) for s in loaded] == \
            [(0, 0.25, "A"), (1, [0.5, 0.75], None)]

    def test_scored_jsonl_malformed_line(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        path.write_text('{"id": 0, "q": 0.5}\n{"q": 0.5}\n')
        with pytest.raises(ValidationError, match=":2"):
            load_scored_jsonl(path)
