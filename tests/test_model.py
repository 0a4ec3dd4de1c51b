"""Encoder forward invariants, heads, presets and checkpoint persistence."""

import copy
import json
import struct

import numpy as np
import pytest

import nspbert.model
import nspbert.tensor as T
from nspbert.errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    DimensionError,
    ValidationError,
)
from nspbert.model import PRESETS, EncoderConfig, EncoderModel, ISNEXT, NOTNEXT
from nspbert.prompting import PromptTemplate, Verbalizer, render_pet
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
    def _mixed(self, tok):
        """Two pairs padded to 16 whose real lengths differ."""
        short = tok.encode_pair("alpha beta", "gamma", 16)
        long = tok.encode_pair("alpha beta gamma", "delta epsilon", 16)
        assert short.attention_mask.sum() < long.attention_mask.sum() < 16
        return short, long

    def test_output_shape(self, tiny_model, tok):
        """The width is the longest real input's length, not the padded 16."""
        short, long = self._mixed(tok)
        hidden = tiny_model.forward_batch([short, long])
        assert hidden.shape == (2, long.attention_mask.sum(), tiny_model.config.hidden)

    def test_pad_id_change_does_not_leak(self, tiny_model, tok):
        short, long = self._mixed(tok)
        base = tiny_model.forward_batch([short, long]).data.copy()
        pad_pos = int(short.attention_mask.sum())  # short's first pad
        assert pad_pos < base.shape[1]  # is forwarded
        short.ids[pad_pos] = tok.vocab.index["mu"]
        changed = tiny_model.forward_batch([short, long]).data
        active = short.attention_mask[: base.shape[1]] == 1
        assert np.max(np.abs(base[0][active] - changed[0][active])) < 1e-6
        assert np.max(np.abs(base[1] - changed[1])) < 1e-6

    def test_cut_batch_matches_each_input_alone_at_full_width(self, tiny_model, tok):
        pairs = [tok.encode_pair(a, b, 16) for a, b in
                 [("alpha", "beta"), ("alpha beta gamma delta", "epsilon zeta"),
                  ("iota kappa", "lambda mu eta"), ("theta", "eta")]]
        together = run_head(tiny_model, pairs, isnext_head, len(pairs))
        with T.no_grad():
            hidden = tiny_model.forward_batch(pairs).data
            for i, pair in enumerate(pairs):
                alone = tiny_model.forward_ids(pair.ids[None], pair.segment_ids[None],
                                               pair.attention_mask[None])
                assert alone.shape[1] == 16
                q = isnext_head(tiny_model, alone)[0]
                assert abs(together[i] - q) < 1e-6
                n = int(pair.attention_mask.sum())
                assert np.max(np.abs(hidden[i, :n] - alone.data[0, :n])) < 1e-6

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
        masked, _ = render_pet("alpha beta gamma", PromptTemplate("{label} delta", "prefix"),
                               Verbalizer({"x": "alpha"}), "x", tok, 16)
        assert masked.mask_positions == [1]
        with T.no_grad():
            logits = tiny_model.mlm_logits(tiny_model.forward_batch([masked]),
                                           [0], masked.mask_positions)
            probs = T.softmax_rows(logits).data
        assert probs.shape == (1, len(tok.vocab))
        assert abs(probs.sum() - 1.0) < 1e-6
        assert np.all(probs > 0)  # softmax positivity


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


DROP = object()


def read_header(path):
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12 : 12 + hlen].decode())


def write_header(path, header):
    """Replace a checkpoint's JSON header, keeping its tensor data."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    new = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen :])


def edited(header, keys, value):
    """A copy of `header` with the entry at the key path set to `value`, or
    deleted when `value` is DROP."""
    header = copy.deepcopy(header)
    node = header
    for key in keys[:-1]:
        node = node[key]
    if value is DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return header


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
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        header = read_header(path)
        header["tensors"]["nsp.pool.w"]["shape"] = [1, 1]
        write_header(path, header)
        with pytest.raises(CheckpointShapeError, match="nsp.pool.w"):
            EncoderModel.load_checkpoint(path)

    @pytest.mark.parametrize("keys,value", [
        (("config",), DROP),
        (("tensors",), DROP),
        (("config", "bogus"), 1),
        ((), "list"),
        (("config", "type_vocab"), DROP),
        (("config", "hidden"), 16.0),
        (("config", "n_heads"), 0),
        (("config", "n_heads"), 3),
        (("seed",), -1),
        (("step",), "3"),
        (("tensors", "nsp.out.b", "offset"), -8),
        (("tensors", "nsp.out.b", "shape"), DROP),
        (("tensors", "nsp.out.b", "shape"), [2.0]),
    ], ids=["no-config", "no-tensors", "unknown-field", "list", "missing-field",
            "float-field", "zero-heads", "indivisible-heads", "negative-seed",
            "string-step", "negative-offset", "no-shape", "float-shape"])
    def test_bad_header_schema(self, tiny_model, tmp_path, keys, value):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        header = read_header(path)
        write_header(path, [header] if value == "list" else edited(header, keys, value))
        with pytest.raises(CheckpointFormatError, match=str(path)):
            EncoderModel.load_checkpoint(path)

    def test_unknown_tensor_refused(self, tiny_model, tmp_path):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        header = read_header(path)
        header["tensors"]["bogus"] = {"shape": [2], "offset": 0}
        write_header(path, header)
        with pytest.raises(CheckpointShapeError, match="unknown tensor 'bogus'"):
            EncoderModel.load_checkpoint(path)

    def test_load_draws_no_random_numbers(self, tiny_model, tmp_path, monkeypatch):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)

        def refuse(*args, **kwargs):
            raise AssertionError("random draw")

        monkeypatch.setattr(nspbert.model, "_trunc_normal", refuse)
        with pytest.raises(AssertionError, match="random draw"):
            EncoderModel(tiny_model.config)
        loaded = EncoderModel.load_checkpoint(path)
        assert list(loaded.params) == list(tiny_model.params)
        for name, p in tiny_model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data)
            assert loaded.params[name].data.dtype == np.float32

    def test_deeply_nested_header(self, tiny_model, tmp_path):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<I", 100_000) + b"[" * 100_000)
        with pytest.raises(CheckpointFormatError, match="unreadable header"):
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
