"""Templates, verbalizers, rendering, task configs, and PET cloze
construction."""

import json

import numpy as np
import pytest

from nspbert.errors import ValidationError
from nspbert.prompting import (
    PromptTemplate,
    TaskConfig,
    Verbalizer,
    render_pet,
    render_single,
)
from nspbert.tokenizer import Tokenizer, build_vocab
from nspbert.tuning import encode_candidates


class TestVerbalizer:
    def test_lookup(self):
        v = Verbalizer({"pos": "great", "neg": "terrible"})
        assert v("pos") == "great"

    def test_unknown_label(self):
        v = Verbalizer({"pos": "great"})
        with pytest.raises(ValidationError, match="unknown label"):
            v("neg")

    def test_must_be_injective(self):
        with pytest.raises(ValidationError, match="injective"):
            Verbalizer({"a": "same", "b": "same"})

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            Verbalizer({"a": ""})

    def test_multiword_phrases_allowed(self):
        v = Verbalizer({"sci": "computer science news"})
        assert v("sci") == "computer science news"


class TestPromptTemplate:
    def test_requires_label_slot(self):
        with pytest.raises(ValidationError, match="exactly once"):
            PromptTemplate("no slot here")

    def test_rejects_double_label(self):
        with pytest.raises(ValidationError, match="exactly once"):
            PromptTemplate("{label} and {label}")

    def test_rejects_text_slot(self):
        with pytest.raises(ValidationError, match="text"):
            PromptTemplate("news about {label} {text}")

    def test_rejects_bad_position(self):
        with pytest.raises(ValidationError, match="position"):
            PromptTemplate("{label}", position="middle")


class TestRenderSingle:
    TEMPLATE = PromptTemplate("this is {label} news")
    VERB = Verbalizer({"sports": "sports", "tech": "technology"})

    def test_suffix_puts_prompt_in_b(self):
        a, b = render_single("match tonight", self.TEMPLATE, self.VERB, "sports")
        assert a == "match tonight"
        assert b == "this is sports news"

    def test_prefix_puts_prompt_in_a(self):
        t = PromptTemplate("this is {label} news", position="prefix")
        a, b = render_single("match tonight", t, self.VERB, "tech")
        assert a == "this is technology news"
        assert b == "match tonight"


@pytest.fixture()
def tok():
    corpus = ["the game was good news", "bad story about sports",
              "tech nology talk today", "this is a report"]
    return Tokenizer(build_vocab(corpus, max_size=64))


class TestRenderPet:
    TEMPLATE = PromptTemplate("this is {label} news")

    def test_single_mask_span(self, tok):
        verb = Verbalizer({"sports": "sports"})
        enc, targets = render_pet("the game was good", self.TEMPLATE, verb,
                                  "sports", tok, 24)
        assert len(targets) == 1
        assert len(enc.mask_positions) == 1
        pos = enc.mask_positions[0]
        assert enc.ids[pos] == tok.vocab.mask_id
        # context around the mask survives
        context = [i for i in enc.ids if i not in tok.vocab.special_ids]
        assert context == tok.encode("the game was good this is news")

    def test_multi_token_verbalization_gets_multiple_masks(self, tok):
        verb = Verbalizer({"tech": "tech nology"})
        enc, targets = render_pet("talk today", self.TEMPLATE, verb,
                                  "tech", tok, 24)
        assert len(targets) == 2
        assert enc.mask_positions == [enc.mask_positions[0],
                                      enc.mask_positions[0] + 1]
        for pos in enc.mask_positions:
            assert enc.ids[pos] == tok.vocab.mask_id

    def test_targets_match_verbalization(self, tok):
        verb = Verbalizer({"sports": "sports"})
        _, targets = render_pet("the game", self.TEMPLATE, verb, "sports", tok, 24)
        assert targets == tok.encode("sports")

    def test_prefix_position(self, tok):
        t = PromptTemplate("{label} story :", position="prefix")
        verb = Verbalizer({"bad": "bad"})
        enc, _ = render_pet("about sports", t, verb, "bad", tok, 24)
        # mask comes right after [CLS]
        assert enc.mask_positions == [1]
        assert enc.ids[1] == tok.vocab.mask_id

    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    def test_restored_targets_give_the_filled_template(self, tok, position):
        t = PromptTemplate("this is {label} news", position)
        verb = Verbalizer({"tech": "tech nology"})
        enc, targets = render_pet("talk today", t, verb, "tech", tok, 24)
        restored = enc.ids.copy()
        restored[enc.mask_positions] = targets
        a, b = render_single("talk today", t, verb, "tech")
        np.testing.assert_array_equal(restored, tok.encode_single(a + " " + b, 24).ids)

    def test_out_of_vocabulary_verbalization_rejected(self, tok):
        # Its [UNK] target would put a special token under the mask span.
        verb = Verbalizer({"sports": "zzzz"})
        with pytest.raises(ValidationError, match="'zzzz' has a word outside") as e:
            render_pet("the game", self.TEMPLATE, verb, "sports", tok, 24)
        assert "\n" not in str(e.value)

    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    def test_prompt_that_fills_max_len_rejected(self, tok, position):
        """A prompt of max_len - 2 tokens leaves no room for the text."""
        t = PromptTemplate("{label} the game was good news", position)
        verb = Verbalizer({"bad": "bad"})
        with pytest.raises(ValidationError, match="needs 6 tokens but max_len 8 fits at most 5"):
            render_pet("about sports", t, verb, "bad", tok, 8)
        enc, _ = render_pet("about sports", t, verb, "bad", tok, 9)
        text = [i for i in enc.ids if i in tok.encode("about sports")]
        assert text == tok.encode("sports" if position == "suffix" else "about")

    def test_overflow_trims_text_not_prompt(self, tok):
        verb = Verbalizer({"sports": "sports"})
        long_text = " ".join(["game"] * 30)
        enc, targets = render_pet(long_text, self.TEMPLATE, verb, "sports",
                                  tok, 16)
        assert len(enc.ids) == 16
        # the prompt span and mask survive trimming
        tail = [i for i in enc.ids if i not in (tok.vocab.pad_id,)]
        assert tok.vocab.mask_id in tail
        assert len(enc.mask_positions) == len(targets) == 1

    def test_single_segment(self, tok):
        verb = Verbalizer({"sports": "sports"})
        enc, _ = render_pet("the game", self.TEMPLATE, verb, "sports", tok, 24)
        assert np.all(enc.segment_ids == 0)


class TestEncodeCandidates:
    VERB = Verbalizer({"sports": "sports", "tech": "tech nology"})

    def _task(self, pattern, position, max_len):
        return TaskConfig(task_type="single", labels=["sports", "tech"],
                          template=PromptTemplate(pattern, position), verbalizer=self.VERB,
                          max_len=max_len)

    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    def test_cuts_the_text_and_keeps_the_prompt(self, tok, position):
        v = tok.vocab
        text = " ".join(["game"] * 30)
        pairs = encode_candidates(text, self._task("{label} is a report", position, 12), tok)
        for pair, phrase in zip(pairs, ["sports", "tech nology"]):
            prompt = tok.encode(phrase + " is a report")
            kept = tok.encode("game") * (12 - 3 - len(prompt))
            a, b = (kept, prompt) if position == "suffix" else (prompt, kept)
            assert list(pair.ids) == [v.cls_id, *a, v.sep_id, *b, v.sep_id]
            assert list(pair.segment_ids) == [0] * (len(a) + 2) + [1] * (len(b) + 1)

    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    def test_prompt_without_room_for_text_rejected(self, tok, position):
        task = self._task("{label} the game was good news", position, 10)
        with pytest.raises(ValidationError) as e:
            encode_candidates("about sports", task, tok)
        assert str(e.value) == ("candidate 1 ('tech'): the prompt needs 7 tokens but "
                                "max_len 10 fits at most 6, and it is never truncated")


class TestTaskConfig:
    def _task(self):
        return TaskConfig(
            task_type="single",
            labels=["sports", "tech"],
            template=PromptTemplate("this is {label} news"),
            verbalizer=Verbalizer({"sports": "sports", "tech": "technology"}),
        )

    def test_round_trip(self, tmp_path):
        task = self._task()
        path = tmp_path / "task.json"
        path.write_text(json.dumps(task.to_dict()))
        loaded = TaskConfig.load(path)
        assert loaded.to_dict() == task.to_dict()

    def test_max_len_below_8_rejected(self):
        with pytest.raises(ValidationError, match="max_len must be >= 8, got 7"):
            TaskConfig(task_type="pair", labels=["a", "b"], max_len=7)

    def test_unknown_task_type(self):
        with pytest.raises(ValidationError, match="task_type"):
            TaskConfig(task_type="triple", labels=["a"])

    def test_single_requires_template(self):
        with pytest.raises(ValidationError, match="template"):
            TaskConfig(task_type="single", labels=["a"])

    def test_verbalizer_must_cover_labels(self):
        with pytest.raises(ValidationError, match="missing"):
            TaskConfig(
                task_type="single",
                labels=["a", "b"],
                template=PromptTemplate("{label}"),
                verbalizer=Verbalizer({"a": "x"}),
            )

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "task.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="malformed"):
            TaskConfig.load(path)
