"""Vocab building, WordPiece encoding, pair encoding and mask insertion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nspbert.errors import ValidationError
from nspbert.tokenizer import (
    SPECIAL_TOKENS,
    EncodedPair,
    Tokenizer,
    Vocab,
    build_vocab,
    insert_masks,
)


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

    @given(
        a=st.text(alphabet="abcdefg ", min_size=0, max_size=40),
        b=st.text(alphabet="abcdefg ", min_size=0, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_hold_for_random_inputs(self, a, b):
        t = Tokenizer(build_vocab(["a b c d e f g abc def"], max_size=64))
        pair = t.encode_pair(a, b, 24)
        assert len(pair) == 24
        segs = pair.segment_ids
        assert np.all(np.diff(np.where(segs == 1)[0]) == 1) if (segs == 1).any() else True
        np.testing.assert_array_equal(pair.attention_mask == 1, pair.ids != t.vocab.pad_id)

    def test_prefix_stability(self, tok):
        base = tok.encode("good news")
        extended = tok.encode("good news" + " sports fan")
        assert extended[: len(base)] == base


class TestInsertMasks:
    def test_single_mask(self, tok):
        pair = tok.encode_pair("good news", "bad sports", 16)
        masked = insert_masks(pair, 1, 1, tok.vocab.mask_id, tok.vocab.special_ids)
        assert masked.mask_positions == [1]
        assert masked.ids[1] == tok.vocab.mask_id

    def test_two_consecutive_masks(self, tok):
        pair = tok.encode_pair("good news today", "bad sports", 20)
        masked = insert_masks(pair, 1, 2, tok.vocab.mask_id, tok.vocab.special_ids)
        assert masked.mask_positions == [1, 2]

    def test_round_trip_restoration(self, tok):
        pair = tok.encode_pair("good news today", "bad sports", 20)
        masked = insert_masks(pair, 1, 2, tok.vocab.mask_id, tok.vocab.special_ids)
        restored = masked.ids.copy()
        for pos in masked.mask_positions:
            restored[pos] = pair.ids[pos]
        np.testing.assert_array_equal(restored, pair.ids)

    def test_special_token_span_rejected(self, tok):
        pair = tok.encode_pair("good news", "bad sports", 16)
        with pytest.raises(ValidationError, match="special"):
            insert_masks(pair, 0, 1, tok.vocab.mask_id, tok.vocab.special_ids)
