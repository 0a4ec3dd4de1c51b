"""Vocab building, WordPiece encoding and the layout of every model input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspbert.errors import ValidationError
from nspbert.prompting import (
    PromptTemplate,
    TaskConfig,
    Verbalizer,
    render_pet,
    render_single,
)
from nspbert.tokenizer import SPECIAL_TOKENS, Tokenizer, Vocab, build_vocab
from nspbert.tuning import encode_candidates


class TestBuildVocab:
    def test_frequency_order(self):
        vocab = build_vocab(["a a b"], max_size=7)
        assert vocab.tokens == SPECIAL_TOKENS + ["a", "b"]

    def test_min_freq_excludes(self):
        vocab = build_vocab(["a a b"], max_size=7, min_freq=2)
        assert "b" not in vocab.index
        assert "a" in vocab.index

    def test_deterministic_rebuild(self):
        corpus = ["the cat sat", "the dog ran", "cat dog cat"]
        v1 = build_vocab(corpus, max_size=64)
        v2 = build_vocab(corpus, max_size=64)
        assert v1.tokens == v2.tokens

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_vocab([], max_size=10)

    def test_specials_have_lowest_ids(self):
        vocab = build_vocab(["x y z"], max_size=100)
        assert [vocab.tokens[i] for i in range(5)] == SPECIAL_TOKENS

    def test_roundtrip_file(self, tmp_path):
        vocab = build_vocab(["alpha beta gamma"], max_size=64)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.tokens == vocab.tokens


@pytest.fixture()
def tok():
    corpus = ["good news today", "bad sports news", "sports fan of sports",
              "play ##ing"]
    return Tokenizer(build_vocab(corpus, max_size=64))


class TestEncodeDecode:
    def test_known_word_single_id(self, tok):
        ids = tok.encode("sports")
        assert len(ids) == 1
        assert tok.vocab.tokens[ids[0]] == "sports"

    def test_round_trip(self, tok):
        ids = tok.encode("good news")
        assert [tok.vocab.tokens[i] for i in ids] == ["good", "news"]

    def test_unknown_word_is_unk(self, tok):
        ids = tok.encode("zzzzz")
        assert ids == [tok.vocab.unk_id]

    def test_wordpiece_continuation(self):
        vocab = Vocab(SPECIAL_TOKENS + ["play", "##ing"])
        t = Tokenizer(vocab)
        assert t.tokenize("playing") == ["play", "##ing"]
        assert t.encode("playing") == [vocab.index["play"], vocab.index["##ing"]]

    def test_id_token_maps_inverse(self, tok):
        for token, idx in tok.vocab.index.items():
            assert tok.vocab.tokens[idx] == token


class TestEncodePair:
    def test_layout(self, tok):
        v = tok.vocab
        pair = tok.encode_pair("good news", "bad sports", 16)
        ids = list(pair.ids)
        assert ids[0] == v.cls_id
        assert ids.count(v.sep_id) == 2
        # terminal sep followed only by pads
        last_sep = max(i for i, x in enumerate(ids) if x == v.sep_id)
        assert all(x == v.pad_id for x in ids[last_sep + 1 :])

    def test_segments_are_blocks(self, tok):
        pair = tok.encode_pair("good news", "bad sports", 16)
        segs = pair.segment_ids[pair.attention_mask == 1]
        # 0-block then 1-block
        flips = np.sum(np.diff(segs) != 0)
        assert flips == 1 and segs[0] == 0 and segs[-1] == 1

    def test_attention_marks_non_pad(self, tok):
        pair = tok.encode_pair("good news", "bad", 16)
        np.testing.assert_array_equal(
            pair.attention_mask == 1, pair.ids != tok.vocab.pad_id
        )

    def test_truncates_a_only(self, tok):
        long_a = " ".join(["sports"] * 30)
        pair = tok.encode_pair(long_a, "good news today", 16)
        b_ids = tok.encode("good news today")
        ids = list(pair.ids)
        # B is intact right before the terminal separator
        last_sep = max(i for i, x in enumerate(ids) if x == tok.vocab.sep_id)
        assert ids[last_sep - len(b_ids) : last_sep] == b_ids

    def test_overlong_b_rejected(self, tok):
        with pytest.raises(ValidationError, match="truncated"):
            tok.encode_pair("x", " ".join(["news"] * 20), 16)

    def test_text_in_b_cuts_b_and_keeps_a(self, tok):
        v = tok.vocab
        pair = tok.encode_pair("good news today", " ".join(["sports"] * 30), 12,
                               text_in_b=True)
        a_ids = tok.encode("good news today")
        assert list(pair.ids) == ([v.cls_id] + a_ids + [v.sep_id]
                                  + tok.encode("sports") * 6 + [v.sep_id])
        assert list(pair.segment_ids) == [0] * 5 + [1] * 7

    def test_a_that_leaves_no_room_rejected(self, tok):
        with pytest.raises(ValidationError, match="needs 9 tokens .* at most 8"):
            tok.encode_pair(" ".join(["news"] * 9), "x", 12, text_in_b=True)

    @given(
        a=st.text(alphabet="abcdefg ", min_size=0, max_size=40),
        b=st.text(alphabet="abcdefg ", min_size=0, max_size=30),
        phrase=st.sampled_from(["a", "b c", "abc def g"]),
        position=st.sampled_from(["prefix", "suffix"]),
        max_len=st.integers(8, 24),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_invariants_hold_for_random_inputs(self, a, b, phrase, position, max_len):
        """Every input is [CLS] first [SEP] (second [SEP]) padded to max_len.
        Only the text `a` is cut: it keeps its first tokens, or its last in a
        suffix cloze; the prompt stays whole and contiguous.  An input is
        refused exactly when its prompt leaves no room for one text token."""
        t = Tokenizer(build_vocab(["a b c d e f g abc def"], max_size=64))
        v = t.vocab
        text = t.encode(a)
        half = len(b) // 2
        template = PromptTemplate(b[:half] + " {label} " + b[half:], position)
        verb = Verbalizer({"x": phrase, "y": phrase + " d"})
        task = TaskConfig("single", ["x", "y"], template, verb, max_len=max_len)

        def check(build, first, second=None, cut_start=False):
            """`first` and `second` hold None where the text goes."""
            pair = second is not None
            prompt = [i for i in first + (second or []) if i is not None]
            room = max_len - (3 if pair else 2) - len(prompt)
            if room < 1:
                with pytest.raises(ValidationError, match="never truncated"):
                    build()
                return None
            kept = text[len(text) - room:] if cut_start and len(text) > room else text[:room]
            first, second = ([kept if i is None else [i] for i in part]
                             for part in (first, second or []))
            real = [v.cls_id, *sum(first, []), v.sep_id]
            if pair:
                real += [*sum(second, []), v.sep_id]
            enc = build()
            for arr in (enc.ids, enc.segment_ids, enc.attention_mask):
                assert len(arr) == max_len
            assert list(enc.ids) == real + [v.pad_id] * (max_len - len(real))
            assert list(enc.attention_mask) == [1] * len(real) + [0] * (max_len - len(real))
            n_a = len(sum(first, [])) + 2 if pair else len(real)
            assert list(enc.segment_ids) == ([0] * n_a + [1] * (len(real) - n_a)
                                             + [0] * (max_len - len(real)))
            return enc

        # A pair: B is never cut; the text is A.
        check(lambda: t.encode_pair(a, b, max_len), [None], t.encode(b))
        check(lambda: t.encode_single(a, max_len), [None])
        # NSP candidates: the text is A with a suffix template, B with a prefix one.
        prompts = [t.encode(template.pattern.format(label=verb(y))) for y in task.labels]
        room = min(max_len - 3 - len(p) for p in prompts)
        if room < 1:
            with pytest.raises(ValidationError, match="candidate .* never truncated"):
                encode_candidates(a, task, t)
        else:
            for p, enc in zip(prompts, encode_candidates(a, task, t)):
                parts = ([None], p) if position == "suffix" else (p, [None])
                got = check(lambda: enc, *parts)
                assert got.mask_positions == []
        # PET: the mask span replaces the verbalization; a suffix cloze cuts
        # the start of the text.
        before, after = (t.encode(s) for s in template.pattern.split("{label}"))
        for label in task.labels:
            targets = t.encode(verb(label))
            prompt = before + [v.mask_id] * len(targets) + after
            first = [None] + prompt if position == "suffix" else prompt + [None]
            enc = check(lambda: render_pet(a, template, verb, label, t, max_len),
                        first, cut_start=position == "suffix")
            if enc is not None:
                masks = [i for i, x in enumerate(enc.ids) if x == v.mask_id]
                assert enc.mask_positions == masks and len(masks) == len(targets)
                assert enc.mask_targets == targets

    def test_prefix_stability(self, tok):
        base = tok.encode("good news")
        extended = tok.encode("good news" + " sports fan")
        assert extended[: len(base)] == base


class TestEncodeCandidates:
    """`encode_candidates` equals `encode_pair(*render_single(...))` per label,
    field by field and error for error, from one tokenization of the text."""

    TOK = Tokenizer(Vocab(SPECIAL_TOKENS + ["good", "news", "sports", "fan", "play", "##ing",
                                            "##s", "is", "a", "report", "the", "game", "bad"]))
    # WordPieces and [UNK], a text that any max_len here cuts, and a repeat.
    TEXTS = ["good news", "the game is playing", "zzz good plays",
             " ".join(["good news fan"] * 10), "good news"]
    PHRASES = {"single": {"x": "sports", "y": "fan", "z": "news"},
               "multi": {"x": "good game", "y": "bad news", "z": "playing"},
               "mixed": {"x": "sports", "y": "good game", "z": "playing fan", "w": "zzz"}}

    @staticmethod
    def _task(phrases, position="suffix", max_len=12, pattern="{label} is a report"):
        return TaskConfig("single", list(phrases), PromptTemplate(pattern, position),
                          Verbalizer(phrases), max_len=max_len)

    @classmethod
    def _check(cls, texts, task):
        """Every text's candidates' fields, or the first error's message; the
        oracle's alike."""
        def outcome(encode):
            try:
                return [(e.ids.tolist(), e.segment_ids.tolist(), e.attention_mask.tolist(),
                         e.mask_positions, e.mask_targets) for x in texts for e in encode(x)]
            except ValidationError as e:
                return str(e)

        def per_label(x):
            out = []
            for j, label in enumerate(task.labels):
                try:
                    a, b = render_single(x, task.template, task.verbalizer, label)
                    out.append(cls.TOK.encode_pair(a, b, task.max_len,
                                                   text_in_b=task.template.position == "prefix"))
                except ValidationError as e:
                    raise ValidationError(f"candidate {j} ({label!r}): the prompt {e}") from e
            return out

        got = outcome(lambda x: encode_candidates(x, task, cls.TOK))
        assert got == outcome(per_label)
        return got

    @pytest.mark.parametrize("max_len", [12, 32])
    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    @pytest.mark.parametrize("kind", list(PHRASES))
    def test_equals_encode_pair_per_label(self, kind, position, max_len):
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
    def test_random_tasks_equal_encode_pair_per_label(self, phrases, texts, pattern, position,
                                                      max_len):
        """Prompts without room, and which label is reported first, included."""
        phrases = {f"l{i}": phrase for i, phrase in enumerate(phrases)}
        self._check(texts, self._task(phrases, position, max_len, pattern))

    def test_an_earlier_prompt_without_room_is_reported_first(self):
        task = self._task({"x": "good game fan news good", "y": "zzz"}, max_len=11)
        with pytest.raises(ValidationError) as e:
            encode_candidates("good news", task, self.TOK)
        assert str(e.value) == ("candidate 0 ('x'): the prompt needs 8 tokens but max_len 11 "
                                "fits at most 7, and it is never truncated")

    @pytest.mark.parametrize("position", ["prefix", "suffix"])
    def test_tokenizes_the_text_once(self, monkeypatch, position):
        calls, encode = [], Tokenizer.encode

        def counted(self, text):
            calls.append(text)
            return encode(self, text)

        monkeypatch.setattr(Tokenizer, "encode", counted)
        task = self._task(self.PHRASES["mixed"], position)
        for text in self.TEXTS:
            calls.clear()
            encode_candidates(text, task, self.TOK)
            prompts = [task.template.pattern.format(label=task.verbalizer(label))
                       for label in task.labels]
            assert calls == [text] + prompts


class TestInsertMasks:
    """`layout` writes a masked piece as [MASK]s and records where."""

    def test_single_mask(self, tok):
        span, text = tok.encode("good"), tok.encode("news")
        masked = tok.layout([span, text], 16, text=1, mask=0)
        assert masked.mask_positions == [1]
        assert masked.ids[1] == tok.vocab.mask_id
        assert list(masked.ids[2:4]) == text + [tok.vocab.sep_id]

    def test_two_consecutive_masks(self, tok):
        span, text = tok.encode("good news"), tok.encode("today")
        masked = tok.layout([span, text], 20, text=1, mask=0)
        assert masked.mask_positions == [1, 2]
        assert list(masked.ids[1:3]) == [tok.vocab.mask_id] * 2
        assert masked.ids[3] == text[0]
