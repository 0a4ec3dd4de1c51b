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

    def _real(self, pairs):
        """(input index, position) of every real token of the inputs."""
        return np.nonzero(np.stack([p.attention_mask for p in pairs]))

    def test_output_shape(self, tiny_model, tok):
        """One row per input by default, one per named position otherwise."""
        short, long = self._mixed(tok)
        assert tiny_model.forward_batch([short, long]).shape == (2, tiny_model.config.hidden)
        real = self._real([short, long])
        assert tiny_model.forward_batch([short, long], real).shape == \
            (len(real[0]), tiny_model.config.hidden)

    def test_pad_id_change_does_not_leak(self, tiny_model, tok):
        short, long = self._mixed(tok)
        real = self._real([short, long])
        base = tiny_model.forward_batch([short, long], real).data.copy()
        pad_pos = int(short.attention_mask.sum())  # short's first pad
        assert pad_pos < long.attention_mask.sum()  # is forwarded
        short.ids[pad_pos] = tok.vocab.index["mu"]
        changed = tiny_model.forward_batch([short, long], real).data
        assert np.max(np.abs(base - changed)) < 1e-6

    def test_cut_batch_matches_each_input_alone_at_full_width(self, tiny_model, tok):
        pairs = [tok.encode_pair(a, b, 16) for a, b in
                 [("alpha", "beta"), ("alpha beta gamma delta", "epsilon zeta"),
                  ("iota kappa", "lambda mu eta"), ("theta", "eta")]]
        together = run_head(tiny_model, pairs, isnext_head, len(pairs))
        b, s = self._real(pairs)
        with T.no_grad():
            hidden = tiny_model.forward_batch(pairs, (b, s)).data
            for i, pair in enumerate(pairs):
                alone = tiny_model.forward_ids(pair.ids[None], pair.segment_ids[None],
                                               pair.attention_mask[None])
                assert alone.shape[1] == 16
                q = tiny_model.nsp_probs(T.take_index(alone, 0, axis=1)).data[0, ISNEXT]
                assert abs(together[i] - q) < 1e-6
                n = int(pair.attention_mask.sum())
                assert np.max(np.abs(hidden[b == i] - alone.data[0, :n])) < 1e-6

    def _varied(self, tok):
        return [tok.encode_pair(a, b, 16) for a, b in
                [("alpha", "beta"), ("alpha beta gamma delta", "epsilon zeta"),
                 ("iota kappa", "lambda mu eta"), ("theta", "eta"),
                 ("mu lambda kappa", "iota")]]

    def test_rows_are_the_padded_states_at_the_named_positions(self, tiny_model, tok):
        """forward_batch gives each input's [CLS] row, or the rows it is asked
        for in the order asked, as forward_ids without rows computes them."""
        pairs = self._varied(tok)
        rng = np.random.default_rng(0)
        b, s = self._real(pairs)
        pick = rng.permutation(len(b))[:7]
        with T.no_grad():
            padded = tiny_model.forward_ids(*tiny_model._stack(pairs)).data
            cls = tiny_model.forward_batch(pairs).data
            named = tiny_model.forward_batch(pairs, (b[pick], s[pick])).data
        assert np.max(np.abs(cls - padded[:, 0])) < 1e-6
        assert np.max(np.abs(named - padded[b[pick], s[pick]])) < 1e-6

    @pytest.mark.parametrize("where", ["pad", "past the cut", "negative", "no input",
                                       "repeated"])
    def test_position_outside_the_real_tokens_rejected(self, tiny_model, tok, where):
        """Each named position must be a real token, and named once."""
        pairs = self._varied(tok)
        width = max(int(p.attention_mask.sum()) for p in pairs)
        short = min(range(len(pairs)), key=lambda i: pairs[i].attention_mask.sum())
        positions = {"pad": ([short], [int(pairs[short].attention_mask.sum())]),
                     "past the cut": ([0], [width]), "negative": ([0], [-1]),
                     "no input": ([len(pairs)], [0]),
                     "repeated": ([1, 0, 1], [2, 0, 2])}[where]
        with pytest.raises(DimensionError, match="real tokens"):
            tiny_model.forward_batch(pairs, positions)

    @pytest.mark.parametrize("named", [False, True], ids=["cls", "named"])
    def test_last_layer_runs_on_the_kept_rows_only(self, tok, monkeypatch, named):
        """Every layer but the last runs its FFN on every real row; the last
        one on the rows forward_batch returns."""
        cfg = EncoderConfig(n_layers=3, hidden=16, n_heads=2,
                            vocab_size=len(tok.vocab), max_position=32)
        model = EncoderModel(cfg, seed=1)
        pairs = self._varied(tok)
        b, s = self._real(pairs)
        positions = (b[::2], s[::2]) if named else None
        seen, gelu = [], T.gelu
        monkeypatch.setattr(T, "gelu", lambda a: seen.append(a.shape[0]) or gelu(a))
        with T.no_grad():
            out = model.forward_batch(pairs, positions)
        kept = len(b[::2]) if named else len(pairs)
        assert out.shape[0] == kept
        assert seen == [len(b), len(b), kept]

    def test_packed_matches_padded_at_real_rows(self, tiny_model, tok):
        """forward_ids with rows packs; without them it runs every position."""
        pairs = self._varied(tok)
        with T.no_grad():
            ids, segs, attn = tiny_model._stack(pairs)
            packed = tiny_model.forward_ids(ids, segs, attn, np.flatnonzero(attn))
            padded = tiny_model.forward_ids(ids, segs, attn)
            assert np.max(np.abs(packed.data - padded.data[attn == 1])) < 1e-6
            assert np.array_equal(
                tiny_model.nsp_probs(tiny_model.forward_batch(pairs)).data.argmax(axis=1),
                tiny_model.nsp_probs(T.take_index(padded, 0, axis=1)).data.argmax(axis=1))

    def test_token_permutation_changes_cls(self, tiny_model, tok):
        p1 = tok.encode_pair("alpha beta", "gamma", 16)
        p2 = tok.encode_pair("beta alpha", "gamma", 16)
        h1 = tiny_model.forward_batch([p1]).data[0]
        h2 = tiny_model.forward_batch([p2]).data[0]
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
        masked = render_pet("alpha beta gamma", PromptTemplate("{label} delta", "prefix"),
                            Verbalizer({"x": "alpha"}), "x", tok, 16)
        assert masked.mask_positions == [1]
        with T.no_grad():
            logits = tiny_model.mlm_logits(
                tiny_model.forward_batch([masked], ([0], masked.mask_positions)))
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

    @pytest.mark.parametrize("offset", [2**40, 2**70], ids=["2**40", "2**70"])
    def test_offset_past_the_end(self, tiny_model, tmp_path, offset):
        """Refused before any seek: 2**70 does not fit in a file position."""
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        header = read_header(path)
        header["tensors"]["nsp.out.b"]["offset"] = offset
        write_header(path, header)
        with pytest.raises(CheckpointTruncatedError, match="nsp.out.b"):
            EncoderModel.load_checkpoint(path)

    def test_tensors_at_one_offset_share_no_memory(self, tiny_model, tmp_path):
        path = tmp_path / "m.nsp"
        tiny_model.save_checkpoint(path)
        header = read_header(path)
        header["tensors"]["nsp.pool.b"]["offset"] = header["tensors"]["mlm.ln.bias"]["offset"]
        write_header(path, header)
        loaded = EncoderModel.load_checkpoint(path)
        a, b = loaded.params["nsp.pool.b"].data, loaded.params["mlm.ln.bias"].data
        assert np.array_equal(a, tiny_model.params["mlm.ln.bias"].data)
        assert np.array_equal(a, b) and not np.shares_memory(a, b)

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

    @pytest.mark.parametrize("named", [False, True], ids=["cls", "named"])
    def test_cut_gradients_match_the_padded_layout(self, tok, named):
        """A loss through forward_batch's cut last layer has every parameter's
        gradient of the same loss through the padded forward_ids."""
        cfg = EncoderConfig(n_layers=2, hidden=16, n_heads=2,
                            vocab_size=len(tok.vocab), max_position=32)
        model = EncoderModel(cfg, seed=4)
        pairs = [tok.encode_pair(a, b, 16) for a, b in
                 [("alpha", "beta"), ("alpha beta gamma delta", "epsilon zeta"),
                  ("iota kappa", "lambda mu eta"), ("theta", "eta")]]
        b, s = np.nonzero(np.stack([p.attention_mask for p in pairs]))
        pick = np.random.default_rng(2).permutation(len(b))[:9]
        b, s = (b[pick], s[pick]) if named else (np.arange(len(pairs)), np.zeros(len(pairs), int))
        weights = np.random.default_rng(3).standard_normal((len(b), 2)).astype(np.float32)

        def grads(hidden):
            for param in model.params.values():
                param.grad = None
            T.backward(T.sum_all(T.mul(model.nsp_logits(hidden()), weights)))
            return {name: param.grad for name, param in model.params.items()}

        cut = grads(lambda: model.forward_batch(pairs, (b, s) if named else None))
        padded = grads(lambda: T.gather_positions(
            model.forward_ids(*model._stack(pairs)), b, s))
        for name, grad in cut.items():
            other = padded[name]
            assert (grad is None) == (other is None), name
            if grad is not None:
                assert np.max(np.abs(grad - other)) < 1e-6, name
