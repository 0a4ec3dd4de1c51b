"""Synthetic corpus generation, NSP pair sampling, MLM masking and the
pre-training loop."""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

import nspbert.tensor as T
from nspbert.corpus import (
    ISNEXT_LABEL,
    NOTNEXT_LABEL,
    SyntheticCorpusConfig,
    generate_corpus,
    load_corpus,
    mask_tokens,
    sample_nsp_pairs,
    save_corpus,
)
from nspbert.errors import DivergenceError, ValidationError
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.pretrain import (
    _encode_masked_batch,
    nsp_accuracy,
    pretrain,
    vocab_from_documents,
)
from nspbert.tokenizer import Tokenizer

pretrain_module = importlib.import_module("nspbert.pretrain")

SMALL = SyntheticCorpusConfig(n_documents=20, seed=1)


class TestGenerateCorpus:
    def test_deterministic(self):
        d1 = generate_corpus(SMALL)
        d2 = generate_corpus(SMALL)
        assert [d.sentences for d in d1] == [d.sentences for d in d2]
        assert [d.topic for d in d1] == [d.topic for d in d2]

    def test_seed_changes_output(self):
        d1 = generate_corpus(SMALL)
        d2 = generate_corpus(dataclasses.replace(SMALL, seed=2))
        assert [d.sentences for d in d1] != [d.sentences for d in d2]

    def test_shapes_and_lengths(self):
        docs = generate_corpus(SMALL)
        assert len(docs) == SMALL.n_documents
        for doc in docs:
            assert 0 <= doc.topic < SMALL.n_topics
            assert len(doc.sentences) == SMALL.sentences_per_document
            for sent in doc.sentences:
                n = len(sent.split())
                assert SMALL.sentence_len_min <= n <= SMALL.sentence_len_max

    def test_concentration_one_uses_only_topic_words(self):
        cfg = dataclasses.replace(SMALL, concentration=1.0)
        for doc in generate_corpus(cfg):
            lexicon = set(cfg.topic_lexicon(doc.topic))
            words = {w for s in doc.sentences for w in s.split()}
            assert words <= lexicon

    def test_words_per_document_restricts_topic_words(self):
        cfg = dataclasses.replace(SMALL, concentration=1.0, words_per_document=4)
        for doc in generate_corpus(cfg):
            words = {w for s in doc.sentences for w in s.split()}
            assert words <= set(cfg.topic_lexicon(doc.topic))
            assert len(words) <= cfg.words_per_document

    def test_concentration_zero_uses_only_shared_words(self):
        cfg = dataclasses.replace(SMALL, concentration=0.0)
        shared = set(cfg.shared_lexicon())
        for doc in generate_corpus(cfg):
            assert {w for s in doc.sentences for w in s.split()} <= shared

    def test_shared_styles_confine_document_to_one_cluster(self):
        cfg = dataclasses.replace(SMALL, concentration=0.0)
        assert cfg.shared_styles > 1
        size = cfg.shared_words // cfg.shared_styles
        lexicon = cfg.shared_lexicon()
        blocks = [set(lexicon[s * size : (s + 1) * size])
                  for s in range(cfg.shared_styles)]
        for doc in generate_corpus(cfg):
            words = {w for s in doc.sentences for w in s.split()}
            assert any(words <= block for block in blocks)

    def test_shared_styles_zero_uses_full_pool(self):
        cfg = dataclasses.replace(SMALL, concentration=0.0, shared_styles=0,
                                  n_documents=5)
        size = cfg.shared_words // 20
        lexicon = cfg.shared_lexicon()
        blocks = [set(lexicon[s * size : (s + 1) * size]) for s in range(20)]
        for doc in generate_corpus(cfg):
            words = {w for s in doc.sentences for w in s.split()}
            # with ~60+ draws from 120 words, one 6-word block cannot hold them
            assert not any(words <= block for block in blocks)

    def test_invalid_concentration_rejected(self):
        with pytest.raises(ValidationError, match="concentration"):
            generate_corpus(dataclasses.replace(SMALL, concentration=1.5))

    def test_empty_config_rejected(self):
        with pytest.raises(ValidationError):
            generate_corpus(dataclasses.replace(SMALL, n_documents=0))

    def test_save_load_round_trip(self, tmp_path):
        docs = generate_corpus(SMALL)
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        loaded = load_corpus(path)
        assert [d.sentences for d in loaded] == [d.sentences for d in docs]
        assert [d.topic for d in loaded] == [d.topic for d in docs]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"topic": 0, "sentences": ["a b"]}\nnot json\n')
        with pytest.raises(ValidationError, match=":2"):
            load_corpus(path)


class TestNspPairs:
    def test_label_balance(self):
        docs = generate_corpus(SMALL)
        pairs = sample_nsp_pairs(docs, 1000, seed=5)
        n_isnext = sum(p.label == ISNEXT_LABEL for p in pairs)
        # [DERIVED] Binomial(1000, 0.5): 5 sigma = 5 * sqrt(250) ~= 79.
        assert 421 <= n_isnext <= 579

    def test_isnext_pairs_are_adjacent(self):
        docs = generate_corpus(SMALL)
        by_id = {d.doc_id: d for d in docs}
        for p in sample_nsp_pairs(docs, 300, seed=6):
            if p.label != ISNEXT_LABEL:
                continue
            doc = by_id[p.a_doc]
            assert p.b_doc == p.a_doc and p.b_index == p.a_index + 1
            assert doc.sentences[p.a_index] == p.text_a
            assert doc.sentences[p.b_index] == p.text_b

    def test_notnext_pairs_cross_documents(self):
        docs = generate_corpus(SMALL)
        for p in sample_nsp_pairs(docs, 300, seed=6):
            if p.label == NOTNEXT_LABEL:
                assert p.a_doc != p.b_doc

    def test_single_document_rejected(self):
        docs = generate_corpus(SMALL)[:1]
        with pytest.raises(ValidationError):
            sample_nsp_pairs(docs, 10, seed=0)

    def test_short_document_rejected(self):
        docs = generate_corpus(SMALL)
        docs[3].sentences = docs[3].sentences[:1]
        with pytest.raises(ValidationError):
            sample_nsp_pairs(docs, 10, seed=0)


class TestMaskTokens:
    SPECIALS = frozenset({0, 1, 2, 3, 4})

    def _ids(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(5, 100, size=n).astype(np.int64)

    def test_rate_zero_masks_nothing(self):
        ids = self._ids(50)
        masked, positions, targets = mask_tokens(
            ids, 0.0, np.random.default_rng(0), 4, self.SPECIALS, 100
        )
        assert positions == [] and targets == []
        np.testing.assert_array_equal(masked, ids)

    def test_specials_never_selected(self):
        ids = np.array([2, 10, 3, 11, 0, 0], dtype=np.int64)
        masked, positions, _ = mask_tokens(
            ids, 0.99, np.random.default_rng(1), 4, self.SPECIALS, 100
        )
        assert set(positions) <= {1, 3}
        assert masked[0] == 2 and masked[2] == 3 and masked[4] == 0

    def test_selection_fraction(self):
        ids = self._ids(5000)
        _, positions, _ = mask_tokens(
            ids, 0.15, np.random.default_rng(2), 4, self.SPECIALS, 100
        )
        # [DERIVED] Binomial(5000, 0.15): 5 sigma ~= 126 around mean 750.
        assert 624 <= len(positions) <= 876

    def test_eighty_ten_ten_split(self):
        ids = self._ids(20000)
        masked, positions, targets = mask_tokens(
            ids, 0.5, np.random.default_rng(3), 4, self.SPECIALS, 100
        )
        n = len(positions)
        n_mask = sum(masked[p] == 4 for p in positions)
        n_keep = sum(masked[p] == ids[p] for p in positions)
        # [DERIVED] 5-sigma binomial bounds on the 0.8 / 0.1 fractions;
        # "keep" includes the ~1/95 random replacements that hit the
        # original token, so its upper bound is slightly wider.
        assert abs(n_mask / n - 0.8) < 0.021
        assert -0.016 < n_keep / n - 0.1 < 0.026

    def test_targets_are_originals(self):
        ids = self._ids(200)
        masked, positions, targets = mask_tokens(
            ids, 0.3, np.random.default_rng(4), 4, self.SPECIALS, 100
        )
        assert targets == [int(ids[p]) for p in positions]
        untouched = sorted(set(range(len(ids))) - set(positions))
        np.testing.assert_array_equal(masked[untouched], ids[untouched])

    def test_replacements_stay_in_regular_range(self):
        ids = self._ids(2000)
        masked, positions, _ = mask_tokens(
            ids, 0.5, np.random.default_rng(5), 4, self.SPECIALS, 100
        )
        for p in positions:
            assert 4 <= masked[p] < 100

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValidationError, match="rate"):
            mask_tokens(self._ids(10), 1.0, np.random.default_rng(0), 4,
                        self.SPECIALS, 100)


@pytest.fixture(scope="module")
def setup():
    docs = generate_corpus(SMALL)
    vocab = vocab_from_documents(docs)
    cfg = EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                        vocab_size=len(vocab), max_position=64)
    return docs, vocab, cfg


class TestPretrainLoop:
    def test_trace_and_descent(self, setup):
        docs, vocab, cfg = setup
        model = EncoderModel(cfg, seed=0)
        trace = pretrain(model, docs, vocab, steps=60, batch_size=8, seed=0)
        assert len(trace) == 60
        assert all(np.isfinite(t["total"]) for t in trace)
        first = np.mean([t["total"] for t in trace[:10]])
        last = np.mean([t["total"] for t in trace[-10:]])
        assert last < first
        assert model.step == 60

    def test_deterministic_given_seed(self, setup):
        docs, vocab, cfg = setup

        def run():
            model = EncoderModel(cfg, seed=0)
            return pretrain(model, docs, vocab, steps=5, batch_size=4, seed=0)

        assert run() == run()

    def test_forwards_at_full_max_len(self, setup, monkeypatch):
        """Pre-training keeps its full max_len width, not cut to its longest
        pair as forward_batch is, and forwards packed: `rows` are the real
        tokens, and `keep` names each pair's [CLS] in batch order, then the
        masked rows, none of them a [CLS]."""
        docs, vocab, cfg = setup
        widths, forward = [], EncoderModel.forward_ids

        def spy(self, ids, segment_ids, attention_mask, rows=None, keep=None):
            widths.append(ids.shape[1])
            assert np.array_equal(rows, np.flatnonzero(attention_mask))
            kept = rows[keep]
            assert np.array_equal(kept[:4], np.arange(4) * 40)
            assert len(kept) > 4 and np.all(kept[4:] % 40 > 0)
            assert np.unique(kept).size == kept.size
            return forward(self, ids, segment_ids, attention_mask, rows, keep)

        monkeypatch.setattr(EncoderModel, "forward_ids", spy)
        pretrain(EncoderModel(cfg, seed=0), docs, vocab, steps=3, batch_size=4, seed=0,
                 max_len=40)
        assert widths == [40] * 3

    def test_packed_step_matches_the_padded_layout(self, setup, monkeypatch):
        """A micro pre-training step's loss, packed and cut, and every
        parameter gradient are those of the padded forward_ids on the same
        masked batch."""
        docs, vocab, _ = setup
        model = EncoderModel(EncoderConfig.preset("micro", len(vocab)), seed=0)
        batches, encode = [], pretrain_module._encode_masked_batch
        monkeypatch.setattr(pretrain_module, "_encode_masked_batch",
                            lambda *args: batches.append(encode(*args)) or batches[-1])
        monkeypatch.setattr(T.Adam, "step", lambda opt: None)  # keep the gradients only
        (step,) = pretrain(model, docs, vocab, steps=1, seed=0)
        packed = {name: p.grad for name, p in model.params.items()}

        (batch,) = batches
        ids, segs, attn, bidx, pidx, mlm_t, nsp_t = batch
        assert len(bidx) > 0
        for p in model.params.values():
            p.grad = None
        hidden = model.forward_ids(ids, segs, attn)
        loss = T.add(T.cross_entropy(model.mlm_logits(T.gather_positions(hidden, bidx, pidx)),
                                     mlm_t),
                     T.cross_entropy(model.nsp_logits(T.take_index(hidden, 0, axis=1)), nsp_t))
        T.backward(loss)
        assert abs(step["total"] - loss.item()) < 1e-6
        for name, p in model.params.items():
            assert (packed[name] is None) == (p.grad is None), name
            if p.grad is not None:
                assert np.max(np.abs(packed[name] - p.grad)) < 1e-6, name

    def test_sentence_too_long_for_max_len_rejected_before_step_0(self, setup):
        """Counted in tokens: one word of 13 punctuation-split tokens does not fit 12."""
        docs, vocab, cfg = setup
        long = dataclasses.replace(docs[3], sentences=[*docs[3].sentences, "a,a,a,a,a,a,a"])
        model = EncoderModel(cfg, seed=0)
        before = model.params["embeddings.word"].data.copy()
        with pytest.raises(ValidationError, match=rf"{long.doc_id!r} sentence "
                           rf"{len(docs[3].sentences)} has 13 tokens.*max_len 16"):
            pretrain(model, [*docs[:3], long, *docs[4:]], vocab, steps=1, max_len=16)
        assert model.step == 0 and np.array_equal(model.params["embeddings.word"].data, before)

    def test_divergence_raises(self, setup):
        docs, vocab, cfg = setup
        model = EncoderModel(cfg, seed=0)
        model.params["embeddings.word"].data[:] = np.nan
        with pytest.raises(DivergenceError, match="step 0"):
            pretrain(model, docs, vocab, steps=1, batch_size=4, seed=0)

    def test_corpus_too_small_rejected(self, setup):
        docs, vocab, cfg = setup
        with pytest.raises(ValidationError):
            pretrain(EncoderModel(cfg), docs[:1], vocab, steps=1)

    def test_backward_holds_little_more_than_the_gradients(self, setup):
        """After a micro step's forward and backward, with the loss and the
        hidden states still referenced, the memory still held is the leaf
        gradients and little more: the graph's interior is released."""
        docs, vocab, _ = setup
        model = EncoderModel(EncoderConfig.preset("micro", len(vocab)), seed=0)
        param_bytes = sum(p.data.nbytes for p in model.params.values())
        rng = np.random.default_rng(0)
        pairs = sample_nsp_pairs(docs, 16, seed=5)
        ids, segs, attn, bidx, pidx, mlm_t, nsp_t = _encode_masked_batch(
            Tokenizer(vocab), pairs, 28, 0.15, rng)
        tracemalloc.start()
        try:
            hidden = model.forward_ids(ids, segs, attn)
            mlm_logits = model.mlm_logits(T.gather_positions(hidden, bidx, pidx))
            loss = T.add(T.cross_entropy(mlm_logits, mlm_t),
                         T.cross_entropy(model.nsp_logits(T.take_index(hidden, 0, axis=1)),
                                         nsp_t))
            T.backward(loss)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert hidden.shape == (16, 28, 64) and np.isfinite(loss.item())
        assert held <= 2 * param_bytes, (held, param_bytes)

    def test_nsp_accuracy_bounds(self, setup):
        docs, vocab, cfg = setup
        model = EncoderModel(cfg, seed=0)
        pairs = sample_nsp_pairs(docs, 40, seed=9)
        acc = nsp_accuracy(model, vocab, pairs)
        assert 0.0 <= acc <= 1.0
