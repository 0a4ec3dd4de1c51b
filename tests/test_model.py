"""Encoder forward invariants, heads, presets and checkpoint persistence."""

import numpy as np
import pytest

import nspbert.tensor as T
from nspbert.errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    DimensionError,
    ValidationError,
)
from nspbert.model import PRESETS, EncoderConfig, EncoderModel, ISNEXT, NOTNEXT
from nspbert.tokenizer import Tokenizer, build_vocab
from nspbert.tuning import isnext_head, run_head
from conftest import fd_grad, rel_err


@pytest.fixture(scope="module")
def tok():
    corpus = ["alpha beta gamma delta", "epsilon zeta eta theta",
              "iota kappa lambda mu"]
    return Tokenizer(build_vocab(corpus, max_size=64))


@pytest.fixture(scope="module")
def tiny_model(tok):
    cfg = EncoderConfig(n_layers=2, hidden=16, n_heads=2,
                        vocab_size=len(tok.vocab), max_position=32)
    return EncoderModel(cfg, seed=5)


class TestForward:
    def test_output_shape(self, tiny_model, tok):
        pair = tok.encode_pair("alpha beta", "gamma delta", 16)
        hidden = tiny_model.forward_batch([pair])
        assert hidden.shape == (1, 16, tiny_model.config.hidden)

    def test_pad_id_change_does_not_leak(self, tiny_model, tok):
        pair = tok.encode_pair("alpha beta", "gamma", 16)
        base = tiny_model.forward_batch([pair]).data[0].copy()
        pad_pos = np.where(pair.attention_mask == 0)[0][0]
        pair.ids[pad_pos] = tok.vocab.index["mu"]
        changed = tiny_model.forward_batch([pair]).data[0]
        active = pair.attention_mask == 1
        assert np.max(np.abs(base[active] - changed[active])) < 1e-6

    def test_token_permutation_changes_cls(self, tiny_model, tok):
        p1 = tok.encode_pair("alpha beta", "gamma", 16)
        p2 = tok.encode_pair("beta alpha", "gamma", 16)
        h1 = tiny_model.forward_batch([p1]).data[0, 0]
        h2 = tiny_model.forward_batch([p2]).data[0, 0]
        assert np.max(np.abs(h1 - h2)) > 1e-5

    def test_length_overflow_rejected(self, tok):
        cfg = EncoderConfig(n_layers=1, hidden=16, n_heads=2,
                            vocab_size=len(tok.vocab), max_position=16)
        model = EncoderModel(cfg)
        pair = tok.encode_pair("alpha beta", "gamma", 32)
        with pytest.raises(DimensionError):
            model.forward_batch([pair])


class TestNspHead:
    def test_probability_in_unit_interval(self, tiny_model, tok):
        pair = tok.encode_pair("alpha beta", "gamma delta", 16)
        (q,) = run_head(tiny_model, [pair], isnext_head, 1)
        assert 0.0 < q < 1.0

    def test_two_way_distribution(self, tiny_model, tok):
        pair = tok.encode_pair("alpha beta", "gamma delta", 16)
        with T.no_grad():
            probs = tiny_model.nsp_probs(tiny_model.forward_batch([pair]))
        assert abs(probs.data.sum() - 1.0) < 1e-6
        assert probs.data.shape == (1, 2)
        assert {ISNEXT, NOTNEXT} == {0, 1}


class TestMlmHead:
    def test_mask_position_distribution(self, tiny_model, tok):
        from nspbert.tokenizer import insert_masks

        pair = tok.encode_pair("alpha beta gamma", "delta", 16)
        masked = insert_masks(pair, 1, 1, tok.vocab.mask_id, tok.vocab.special_ids)
        probs = tiny_model.mlm_mask_probs(masked)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert np.all(probs > 0)  # softmax positivity

    def test_requires_recorded_position(self, tiny_model, tok):
        pair = tok.encode_pair("alpha beta", "gamma", 16)
        with pytest.raises(ValidationError, match="no recorded mask positions"):
            tiny_model.mlm_mask_probs(pair)


class TestPresets:
    @pytest.mark.parametrize(
        "name,l,h,a",
        [("tiny", 3, 384, 6), ("small", 6, 512, 8), ("base", 12, 768, 12),
         ("large", 24, 1024, 16), ("micro", 2, 64, 2)],
    )
    def test_preset_table(self, name, l, h, a):
        assert PRESETS[name] == (l, h, a)
        cfg = EncoderConfig.preset(name, vocab_size=100)
        assert (cfg.n_layers, cfg.hidden, cfg.n_heads) == (l, h, a)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValidationError):
            EncoderConfig(n_layers=1, hidden=10, n_heads=3, vocab_size=10)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_model, tok, tmp_path):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        loaded = EncoderModel.load_checkpoint(path)
        pair = tok.encode_pair("alpha beta", "gamma delta", 16)
        h1 = tiny_model.forward_batch([pair]).data
        h2 = loaded.forward_batch([pair]).data
        assert np.array_equal(h1, h2)
        for name, p in tiny_model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data)

    def test_bad_magic(self, tiny_model, tmp_path):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        blob = bytearray(path.read_bytes())
        blob[:8] = b"XXXXXXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            EncoderModel.load_checkpoint(path)

    def test_truncated_file(self, tiny_model, tmp_path):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(CheckpointTruncatedError):
            EncoderModel.load_checkpoint(path)

    def test_shape_mismatch_names_tensor(self, tiny_model, tmp_path):
        import json
        import struct

        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + hlen].decode())
        header["tensors"]["nsp.pool.w"]["shape"] = [1, 1]
        new_header = json.dumps(header).encode()
        path.write_bytes(
            blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + hlen :]
        )
        with pytest.raises(CheckpointShapeError, match="nsp.pool.w"):
            EncoderModel.load_checkpoint(path)

    def test_step_and_seed_recorded(self, tok, tmp_path):
        cfg = EncoderConfig(n_layers=1, hidden=16, n_heads=2, vocab_size=len(tok.vocab))
        model = EncoderModel(cfg, seed=99)
        model.step = 123
        path = tmp_path / "m.nsp"
        model.save_checkpoint(path)
        loaded = EncoderModel.load_checkpoint(path)
        assert loaded.step == 123 and loaded.seed == 99


class TestEncoderGradients:
    def test_nsp_loss_gradient_matches_finite_differences(self, tok):
        # Small encoder; check a sample of parameter entries against FD.
        cfg = EncoderConfig(n_layers=1, hidden=8, n_heads=2,
                            vocab_size=len(tok.vocab), max_position=16)
        model = EncoderModel(cfg, seed=3)
        # run the check in float64 so finite differences can resolve even
        # the smallest parameter gradients
        for p in model.params.values():
            p.data = p.data.astype(np.float64)
        pair = tok.encode_pair("alpha beta", "gamma", 12)

        def loss_fn():
            hidden = model.forward_batch([pair])
            return T.cross_entropy(model.nsp_logits(hidden), np.array([0]))

        model.zero_grad()
        T.backward(loss_fn())
        rng = np.random.default_rng(0)
        names = ["embeddings.word", "layer0.attn.wq", "layer0.ffn.w1",
                 "nsp.pool.w", "nsp.out.w"]
        step = 1e-3
        for name in names:
            p = model.params[name]
            flat_grad = p.grad.reshape(-1)
            idx = rng.choice(flat_grad.size, size=min(6, flat_grad.size), replace=False)
            ad_vec, fd_vec = [], []
            for i in idx:
                orig = p.data.reshape(-1)[i]
                p.data.reshape(-1)[i] = orig + step
                up = loss_fn().item()
                p.data.reshape(-1)[i] = orig - step
                down = loss_fn().item()
                p.data.reshape(-1)[i] = orig
                fd_vec.append((up - down) / (2 * step))
                ad_vec.append(float(flat_grad[i]))
            assert rel_err(np.array(ad_vec), np.array(fd_vec)) < 1e-3, (name, ad_vec, fd_vec)
