"""Vocab building, WordPiece encoding and the layout of every model input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspbert.errors import ValidationError
from nspbert.prompting import PromptTemplate, TaskConfig, Verbalizer, render_pet
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
            enc = check(lambda: render_pet(a, template, verb, label, t, max_len)[0],
                        first, cut_start=position == "suffix")
            if enc is not None:
                masks = [i for i, x in enumerate(enc.ids) if x == v.mask_id]
                assert enc.mask_positions == masks and len(masks) == len(targets)

    def test_prefix_stability(self, tok):
        base = tok.encode("good news")
        extended = tok.encode("good news" + " sports fan")
        assert extended[: len(base)] == base


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
