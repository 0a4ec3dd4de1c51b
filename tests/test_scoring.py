"""Answer mapping: candidates-contrast, samples-contrast apportionment,
dev-set thresholds, PET scoring, the histogram emitter and the JSONL reader."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspbert import tensor as T
from nspbert.errors import ValidationError
from nspbert.harness import Example, evaluate, make_synthetic_task
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.prompting import PromptTemplate, TaskConfig, Verbalizer, render_pet
from nspbert.scoring import (
    LabelDistribution,
    ScoredSample,
    Thresholds,
    apply_thresholds,
    apportion,
    cloze_inputs,
    emit_probability_histogram,
    load_scored_jsonl,
    pet_head,
    pet_score,
    samples_contrast,
    score_candidates,
    thresholds_from_dev,
)
from nspbert.tokenizer import SPECIAL_TOKENS, Tokenizer, Vocab, build_vocab
from nspbert.tuning import accuracy, predict_candidates_batch, run_head
from conftest import STANDARD_CORPUS


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
        d = LabelDistribution.from_gold(["a", "a", "b", "a"], ["a", "b"])
        assert d.proportions == [0.75, 0.25]

    def test_from_gold_unknown_label(self):
        with pytest.raises(ValidationError, match="'c' not in task labels"):
            LabelDistribution.from_gold(["a", "c"], ["a", "b"])

    def test_from_gold_empty(self):
        with pytest.raises(ValidationError):
            LabelDistribution.from_gold([], ["a"])


class TestCandidatesContrast:
    TEXTS = ["good game tonight", "bad story here", "this is news", "game story"]

    def test_argmax(self, small_setup):
        model, vocab, task = small_setup
        examples = [Example(i, t, "sports") for i, t in enumerate(self.TEXTS)]
        preds = predict_candidates_batch(model, vocab, examples, task)
        assert preds == [task.labels[int(np.argmax(score_candidates(model, vocab, t, task).q))]
                         for t in self.TEXTS]

    def test_tie_breaks_to_lowest_index(self, small_setup):
        model, vocab, task = small_setup
        tied = EncoderModel(model.config, seed=1)
        for name in ("nsp.out.w", "nsp.out.b"):
            tied.params[name].data[:] = 0.0
        examples = [Example(i, t, "sports") for i, t in enumerate(self.TEXTS)]
        assert score_candidates(tied, vocab, self.TEXTS[0], task).q == [0.5, 0.5]
        assert predict_candidates_batch(tied, vocab, examples, task) == [task.labels[0]] * 4


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

    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    def test_batched_pet_predicts_the_per_example_argmax(self, pretrained, pretrained_model,
                                                         position):
        """On the acceptance topic task, PET predictions batched 64 examples
        to a forward are the argmax of each example's own `pet_score`."""
        import dataclasses

        examples, task = make_synthetic_task(STANDARD_CORPUS, "topic", seed=1)
        task = dataclasses.replace(task, template=PromptTemplate("{label}", position))
        data, vocab, model = examples[::9][:130], pretrained["vocab"], pretrained_model
        want = [task.labels[int(np.argmax(pet_score(model, vocab, ex.text_a, task)))]
                for ex in data]
        got = predict_candidates_batch(model, vocab, data, task, head=pet_head,
                                       pairs=cloze_inputs([ex.text_a for ex in data], task,
                                                          vocab))
        assert got == want
        assert evaluate(model, vocab, data, task, "zero_shot_pet") == accuracy(want, data)


class TestHeadRows:
    """Each head asks forward_batch for exactly the rows it reads."""

    @staticmethod
    def _spy(model, monkeypatch):
        asked = []

        def forward_batch(pairs, positions=None):
            asked.append((pairs, positions))
            return EncoderModel.forward_batch(model, pairs, positions)

        monkeypatch.setattr(model, "forward_batch", forward_batch)
        return asked

    def test_pet_head_asks_for_its_mask_positions(self, small_setup, monkeypatch):
        model, vocab, task = small_setup
        task = dataclasses.replace(
            task, verbalizer=Verbalizer({"sports": "good game", "politics": "bad"}))
        inputs = cloze_inputs(["good game tonight", "bad story here", "this is news"],
                              task, vocab)
        asked = self._spy(model, monkeypatch)
        run_head(model, inputs, pet_head, 4)
        assert [len(pairs) for pairs, _ in asked] == [4, 2]
        for pairs, (b, s) in asked:
            want = [(i, p) for i, enc in enumerate(pairs) for p in enc.mask_positions]
            assert len(want) > len(pairs)  # a two-word phrase masks two positions
            assert list(zip(b.tolist(), s.tolist())) == want

    def test_isnext_head_asks_for_cls(self, small_setup, monkeypatch):
        model, vocab, task = small_setup
        examples = [Example(i, text, "sports") for i, text in
                    enumerate(["good game tonight", "bad story here", "this is news"])]
        asked = self._spy(model, monkeypatch)
        predict_candidates_batch(model, vocab, examples, task)
        score_candidates(model, vocab, "good game tonight", task)
        assert len(asked) == 2
        assert all(positions is None for _, positions in asked)  # the default: [CLS]


class TestPetSharedForwards:
    """pet_head forwards each distinct cloze input once, and every input
    still reads its own targets from its group's rows."""

    TEXTS = ["good game tonight", "bad story here", "this is news"]
    SAME_LENGTH = {"sports": "sports", "politics": "politics", "news": "news"}
    MIXED = {"sports": "good game", "politics": "bad", "news": "news"}

    @staticmethod
    def _task(task, phrases, position="suffix"):
        return dataclasses.replace(task, labels=list(phrases), verbalizer=Verbalizer(phrases),
                                   template=PromptTemplate(task.template.pattern, position))

    def _forwarded(self, setup, monkeypatch, phrases, texts):
        """The inputs of pet_head's one forward over every text's cloze inputs."""
        model, vocab, task = setup
        inputs = cloze_inputs(texts, self._task(task, phrases), vocab)
        asked = TestHeadRows._spy(model, monkeypatch)
        run_head(model, inputs, pet_head, len(inputs))
        assert len(asked) == 1
        return asked[0]

    def test_single_token_verbalizers_share_one_input_per_text(self, small_setup,
                                                                monkeypatch):
        pairs, _ = self._forwarded(small_setup, monkeypatch, self.SAME_LENGTH, self.TEXTS)
        assert len(pairs) == len(self.TEXTS)

    def test_two_phrase_lengths_give_two_inputs_per_text(self, small_setup, monkeypatch):
        pairs, _ = self._forwarded(small_setup, monkeypatch, self.MIXED, self.TEXTS)
        assert len(pairs) == 2 * len(self.TEXTS)

    def test_duplicate_texts_share_one_input(self, small_setup, monkeypatch):
        texts = self.TEXTS + self.TEXTS[::-1]
        pairs, _ = self._forwarded(small_setup, monkeypatch, self.SAME_LENGTH, texts)
        assert len(pairs) == len(self.TEXTS)

    def test_each_distinct_input_asks_for_its_mask_positions_once(self, small_setup,
                                                                  monkeypatch):
        texts = self.TEXTS + self.TEXTS[:1]
        pairs, (b, s) = self._forwarded(small_setup, monkeypatch, self.MIXED, texts)
        assert len({enc.ids.tobytes() for enc in pairs}) == len(pairs) == 6
        want = [(i, p) for i, enc in enumerate(pairs) for p in enc.mask_positions]
        assert list(zip(b.tolist(), s.tolist())) == want

    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    @pytest.mark.parametrize("phrases", [SAME_LENGTH, MIXED], ids=["same", "mixed"])
    def test_products_match_forwarding_each_input_alone(self, small_setup, position,
                                                        phrases):
        model, vocab, task = small_setup
        inputs = cloze_inputs(self.TEXTS + self.TEXTS[1:], self._task(task, phrases, position),
                              vocab)
        got = run_head(model, inputs, pet_head, 4)
        want = []
        with T.no_grad():
            for enc in inputs:
                hidden = model.forward_batch([enc], (np.zeros(len(enc.mask_positions), int),
                                                     np.array(enc.mask_positions)))
                probs = T.softmax_rows(model.mlm_logits(hidden)).data
                want.append(np.prod(probs[np.arange(len(probs)), enc.mask_targets]))
        assert np.max(np.abs(got - np.array(want))) <= 1e-6


class TestClozeInputs:
    """`cloze_inputs` equals `render_pet` per (text, label), field by field
    and error for error, while rendering each (text, mask-span length) once."""

    VOCAB = Vocab(SPECIAL_TOKENS + ["good", "news", "sports", "fan", "play", "##ing", "##s",
                                    "is", "a", "report", "the", "game", "bad"])
    # WordPieces and [UNK], a text that any max_len here cuts, and a repeat.
    TEXTS = ["good news", "the game is playing", "zzz good plays",
             " ".join(["good news fan"] * 10), "good news"]
    PHRASES = {"single": {"x": "sports", "y": "fan", "z": "news"},
               "multi": {"x": "good game", "y": "bad news", "z": "playing"},
               "mixed": {"x": "sports", "y": "good game", "z": "playing fan", "w": "news"}}

    @staticmethod
    def _task(phrases, position="suffix", max_len=12, pattern="{label} is a report"):
        return TaskConfig("single", list(phrases), PromptTemplate(pattern, position),
                          Verbalizer(phrases), max_len=max_len)

    @classmethod
    def _per_label(cls, texts, task):
        """The oracle: `render_pet` for every (text, label), errors named by label."""
        tok, out = Tokenizer(cls.VOCAB), []
        for x in texts:
            for j, label in enumerate(task.labels):
                try:
                    out.append(render_pet(x, task.template, task.verbalizer, label, tok,
                                          task.max_len))
                except ValidationError as e:
                    raise ValidationError(f"label {j} ({label!r}): {e}") from e
        return out

    @classmethod
    def _check(cls, texts, task):
        """Every input's fields, or the error's message; the oracle's alike."""
        def outcome(build):
            try:
                return [(e.ids.tolist(), e.segment_ids.tolist(), e.attention_mask.tolist(),
                         e.mask_positions, e.mask_targets) for e in build()]
            except ValidationError as e:
                return str(e)

        got = outcome(lambda: cloze_inputs(texts, task, cls.VOCAB))
        assert got == outcome(lambda: cls._per_label(texts, task))
        return got

    @pytest.mark.parametrize("max_len", [12, 32])
    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    @pytest.mark.parametrize("kind", list(PHRASES))
    def test_equals_render_pet_per_label(self, kind, position, max_len):
        got = self._check(self.TEXTS, self._task(self.PHRASES[kind], position, max_len))
        n_labels = len(self.PHRASES[kind])
        assert len(got) == len(self.TEXTS) * n_labels
        long_text = got[3 * n_labels : 4 * n_labels]
        assert all(sum(attn) == max_len for _, _, attn, _, _ in long_text)  # it was cut

    @given(phrases=st.lists(st.sampled_from(["sports", "good game", "playing", "fan", "zzz",
                                             " ", "?", "news fan good the"]),
                            min_size=2, max_size=4, unique=True),
           texts=st.lists(st.sampled_from(TEXTS), max_size=3),
           pattern=st.sampled_from(["{label}", "{label} is a report", "the {label} news"]),
           position=st.sampled_from(["prefix", "suffix"]),
           max_len=st.integers(8, 16))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_tasks_equal_render_pet_per_label(self, phrases, texts, pattern, position,
                                                     max_len):
        """Refused verbalizations, prompts without room and their order
        included."""
        phrases = {f"l{i}": phrase for i, phrase in enumerate(phrases)}
        self._check(texts, self._task(phrases, position, max_len, pattern))

    @pytest.mark.parametrize("later", ["zzz", " "])
    def test_an_earlier_prompt_without_room_is_reported_first(self, later):
        """On the first text, label 0's prompt leaves no room; label 1's
        verbalization is out of vocabulary or tokenizes to nothing."""
        task = self._task({"x": "good game fan news good", "y": later}, max_len=10)
        with pytest.raises(ValidationError) as e:
            cloze_inputs(self.TEXTS, task, self.VOCAB)
        assert str(e.value) == ("label 0 ('x'): the prompt needs 8 tokens but max_len 10 "
                                "fits at most 7, and it is never truncated")
        self._check(self.TEXTS, task)

    @pytest.mark.parametrize("later", ["zzz", "?"])
    def test_a_refused_verbalization_of_a_rendered_length_is_reported(self, later):
        task = self._task({"x": "sports", "y": later})
        with pytest.raises(ValidationError) as e:
            cloze_inputs(self.TEXTS, task, self.VOCAB)
        assert str(e.value) == (f"label 1 ('y'): verbalization {later!r} has a word "
                                "outside the vocabulary")
        assert cloze_inputs([], task, self.VOCAB) == []  # no text, nothing refused

    def test_renders_once_per_text_and_span_length(self, monkeypatch):
        calls = []

        def counted(x, template, verbalizer, label, *args):
            calls.append((x, label))
            return render_pet(x, template, verbalizer, label, *args)

        monkeypatch.setattr("nspbert.scoring.render_pet", counted)
        # Span lengths 1, 2, 3, 1: "w" shares the input rendered for "x".
        inputs = cloze_inputs(self.TEXTS, self._task(self.PHRASES["mixed"]), self.VOCAB)
        assert calls == [(x, label) for x in self.TEXTS for label in "xyz"]
        for x_input, w_input in zip(inputs[::4], inputs[3::4]):
            for name in ("ids", "segment_ids", "attention_mask", "mask_positions"):
                assert getattr(w_input, name) is getattr(x_input, name)
            assert w_input.mask_targets == [self.VOCAB.index["news"]]
            assert x_input.mask_targets == [self.VOCAB.index["sports"]]


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
        path.write_text("".join(json.dumps({"id": s.sample_id, "q": s.q, "gold": s.gold}) + "\n"
                                for s in samples))
        loaded = load_scored_jsonl(path)
        assert [(s.sample_id, s.q, s.gold) for s in loaded] == \
            [(0, 0.25, "A"), (1, [0.5, 0.75], None)]

    def test_scored_jsonl_malformed_line(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        path.write_text('{"id": 0, "q": 0.5}\n{"q": 0.5}\n')
        with pytest.raises(ValidationError, match=":2"):
            load_scored_jsonl(path)
