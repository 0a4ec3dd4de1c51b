"""Tensor engine: forward values, gradients vs finite differences,
optimizer behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nspbert.tensor as T
from nspbert.errors import DimensionError, DivergenceError
from nspbert.tensor import Tensor
from conftest import fd_grad, rel_err


def scalar_loss(t):
    return T.sum_all(t)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_projection(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0], [7.0]])
        np.testing.assert_allclose(T.matmul(a, b).data, [[5.0], [0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_of_sum_is_ones_bT(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)))
        T.backward(scalar_loss(T.matmul(a, b)))
        expected = np.ones((3, 2)) @ b.data.T
        np.testing.assert_allclose(a.grad, expected, rtol=1e-5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        a0 = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2)).astype(np.float32)

        def f(x):
            return float((x @ b).sum())

        a = Tensor(a0, requires_grad=True)
        T.backward(scalar_loss(T.matmul(a, Tensor(b))))
        assert rel_err(a.grad, fd_grad(f, a0)) < 1e-3

    def test_batched_input_times_weight(self):
        """(B, S, H) @ (H, F) runs as one flattened GEMM: its values match
        numpy's stacked matmul, and both gradients match finite differences
        in a float64 pass."""
        rng = np.random.default_rng(2)
        a0, b0 = rng.uniform(-2, 2, (3, 5, 4)), rng.uniform(-2, 2, (4, 6))
        a32, b32 = a0.astype(np.float32), b0.astype(np.float32)
        np.testing.assert_allclose(T.matmul(Tensor(a32), Tensor(b32)).data,
                                   np.matmul(a32, b32), rtol=1e-6)
        weights = rng.uniform(-1, 1, (3, 5, 6))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        T.backward(scalar_loss(T.mul(T.matmul(a, b), weights)))
        assert a.grad.shape == a0.shape and b.grad.shape == b0.shape
        assert rel_err(a.grad, fd_grad(lambda v: float((np.matmul(v, b0) * weights).sum()),
                                       a0)) < 1e-6
        assert rel_err(b.grad, fd_grad(lambda v: float((np.matmul(a0, v) * weights).sum()),
                                       b0)) < 1e-6


class TestSoftmaxRows:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_overflow_stability(self):
        out = T.softmax_rows(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 0.999

    def test_closed_form(self):
        out = T.softmax_rows(Tensor([0.3, 0.4]))
        np.testing.assert_allclose(out.data, [0.4750, 0.5250], atol=5e-5)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = T.softmax_rows(Tensor(row))
        assert abs(out.data.sum() - 1.0) < 1e-6
        assert np.all(out.data >= 0) and np.all(out.data <= 1)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x0 = rng.uniform(-2, 2, (3, 5))
        w = rng.uniform(-1, 1, (3, 5)).astype(np.float32)

        def f(x):
            shifted = x - x.max(axis=-1, keepdims=True)
            p = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
            return float((p * w).sum())

        x = Tensor(x0, requires_grad=True)
        T.backward(scalar_loss(T.mul(T.softmax_rows(x), Tensor(w))))
        assert rel_err(x.grad, fd_grad(f, x0)) < 1e-3


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        x = Tensor(np.full((1, 8), 3.0))
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = T.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_normalizes(self):
        out = T.layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert abs(out.data.mean()) < 1e-5
        assert abs(out.data.var() - 1.0) < 1e-3  # eps shrinks variance slightly

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-2, 2, (2, 6))
        g0 = rng.uniform(0.5, 1.5, 6)
        b0 = rng.uniform(-0.5, 0.5, 6)
        w = rng.uniform(-1, 1, (2, 6)).astype(np.float32)
        eps = 1e-5

        def run(x, g, b):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return float((((x - mu) / np.sqrt(var + eps) * g + b) * w).sum())

        x, gain, bias = (Tensor(a, requires_grad=True) for a in (x0, g0, b0))
        T.backward(scalar_loss(T.mul(T.layer_norm(x, gain, bias), Tensor(w))))
        assert rel_err(x.grad, fd_grad(lambda v: run(v, g0, b0), x0)) < 1e-3
        assert rel_err(gain.grad, fd_grad(lambda v: run(x0, v, b0), g0)) < 1e-3
        assert rel_err(bias.grad, fd_grad(lambda v: run(x0, g0, v), b0)) < 1e-3


class TestElementwise:
    def test_tanh_zero(self):
        assert T.tanh_op(Tensor(0.0)).item() == 0.0

    def test_gelu_zero(self):
        assert T.gelu(Tensor(0.0)).item() == 0.0

    @pytest.mark.parametrize("op", [T.tanh_op, T.gelu])
    def test_gradients(self, op):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-2, 2, 20)
        x = Tensor(x0, requires_grad=True)
        T.backward(scalar_loss(op(x)))
        ref = {T.tanh_op: lambda v: float(np.tanh(v).sum()),
               T.gelu: lambda v: float((v * 0.5 * (1 + np.vectorize(math.erf)(v / math.sqrt(2)))).sum())}
        assert rel_err(x.grad, fd_grad(ref[op], x0)) < 1e-3

    def test_add_mul_gradients(self):
        rng = np.random.default_rng(5)
        a0 = rng.uniform(-2, 2, (3, 4))
        b0 = rng.uniform(-2, 2, (4,))  # broadcast
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        T.backward(scalar_loss(T.mul(T.add(a, b), a)))
        assert rel_err(a.grad, fd_grad(lambda v: float(((v + b0) * v).sum()), a0)) < 1e-3
        assert rel_err(b.grad, fd_grad(lambda v: float(((a0 + v) * a0).sum()), b0)) < 1e-3


class TestEmbeddingLookup:
    def test_repeated_id_accumulates(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
        out = T.embedding_lookup(table, np.array([0, 0]))
        np.testing.assert_array_equal(out.data[0], out.data[1])
        T.backward(scalar_loss(out))
        np.testing.assert_allclose(table.grad[0], 2.0)
        np.testing.assert_allclose(table.grad[1:], 0.0)

    def test_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            T.embedding_lookup(table, np.array([4]))


class TestCrossEntropy:
    def test_uniform(self):
        loss = T.cross_entropy(Tensor([0.0, 0.0]), 0)
        assert abs(loss.item() - math.log(2)) < 1e-6

    def test_confident(self):
        assert T.cross_entropy(Tensor([10.0, -10.0]), 0).item() < 1e-6

    def test_invalid_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor([0.0, 0.0]), 2)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x0 = rng.uniform(-2, 2, 5)

        def f(x):
            m = x.max()
            return float(m + np.log(np.exp(x - m).sum()) - x[2])

        x = Tensor(x0, requires_grad=True)
        T.backward(T.cross_entropy(x, 2))
        assert rel_err(x.grad, fd_grad(f, x0)) < 1e-3


class TestBinaryCrossEntropy:
    def test_half(self):
        assert abs(T.binary_cross_entropy(Tensor(0.5), 1).item() - math.log(2)) < 1e-6

    def test_confident_goes_to_zero(self):
        assert T.binary_cross_entropy(Tensor(0.999999), 1).item() < 1e-5

    def test_wrong_confident(self):
        loss = T.binary_cross_entropy(Tensor(0.9), 0)
        assert abs(loss.item() - (-math.log(0.1))) < 1e-5

    def test_clamps_at_boundary(self):
        loss = T.binary_cross_entropy(Tensor(1.0), 0)
        assert np.isfinite(loss.item())


class TestBackwardEngine:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        T.backward(T.sum_all(x))
        np.testing.assert_allclose(x.grad, 1.0)

    def test_square_grad(self):
        x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(DimensionError):
            T.backward(x)

    def test_diamond_graph_accumulates_once(self):
        x = Tensor([2.0], requires_grad=True)
        y = T.add(T.mul(x, x), T.mul(x, 3.0))  # x^2 + 3x -> grad 2x + 3
        T.backward(T.sum_all(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(9)
            x = Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
            w = Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
            T.backward(T.sum_all(T.tanh_op(T.matmul(x, w))))
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_parents_of_one_add_get_their_own_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        T.backward(T.sum_all(T.add(a, b)))
        assert not np.shares_memory(a.grad, b.grad)

    def test_gradient_has_the_leafs_strides(self):
        """A first gradient takes its parent's layout, not the incoming
        gradient's; BLAS sums in a layout-dependent order."""
        rng = np.random.default_rng(3)
        x = Tensor(np.asfortranarray(rng.uniform(-1, 1, (3, 4)).astype(np.float32)),
                   requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 5)).astype(np.float32))
        T.backward(T.sum_all(T.matmul(x, w)))
        assert x.grad.strides == x.data.strides and x.grad.flags.f_contiguous

    def test_backward_releases_interior_nodes(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 3)), requires_grad=True)
        h = T.tanh_op(T.matmul(x, w))
        y = T.mul(h, h)
        loss = T.sum_all(y)
        T.backward(loss)
        for node in (h, y, loss):
            assert node.grad is None and node._parents == () and node._backward is None
        assert x.grad.shape == (2, 3) and w.grad.shape == (3, 3)


class TestGatherPositions:
    @pytest.mark.parametrize("shape, idx0, idx1", [
        ((3, 4, 5), [0, 2, 1, 2], [3, 0, 1, 0]),  # (B, S, H): rows
        ((4, 3), [1, 3, 0, 1], [2, 0, 1, 2]),  # matrix: entries
    ])
    def test_gradient_matches_finite_differences(self, shape, idx0, idx1):
        """Repeated index pairs (the last and the second) accumulate."""
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-2, 2, shape)
        w = rng.uniform(-2, 2, np.zeros(shape)[idx0, idx1].shape)

        def f(x):
            return float((x[idx0, idx1] * w).sum())

        x = Tensor(x0, requires_grad=True)
        T.backward(T.sum_all(T.mul(T.gather_positions(x, idx0, idx1), Tensor(w))))
        assert rel_err(x.grad, fd_grad(f, x0)) < 1e-6


class TestRowOps:
    ROWS = np.array([5, 0, 3, 6])  # unsorted, distinct

    def test_take_rows_undoes_scatter_rows_exactly(self):
        x = np.random.default_rng(12).standard_normal((4, 3)).astype(np.float32)
        spread = T.scatter_rows(Tensor(x), self.ROWS, 8)
        assert spread.shape == (8, 3)
        np.testing.assert_array_equal(np.delete(spread.data, self.ROWS, axis=0), 0.0)
        np.testing.assert_array_equal(T.take_rows(spread, self.ROWS).data, x)

    @pytest.mark.parametrize("op, shape", [
        (lambda x, rows: T.scatter_rows(x, rows, 8), (4, 3)),
        (T.take_rows, (8, 3)),
    ])
    def test_gradient_matches_finite_differences(self, op, shape):
        rng = np.random.default_rng(13)
        x0 = rng.uniform(-2, 2, shape)
        w = rng.uniform(-2, 2, op(Tensor(x0), self.ROWS).shape)

        def f(x):
            return float((op(Tensor(x), self.ROWS).data * w).sum())

        x = Tensor(x0, requires_grad=True)
        T.backward(T.sum_all(T.mul(op(x, self.ROWS), Tensor(w))))
        assert rel_err(x.grad, fd_grad(f, x0)) < 1e-6


def adam_step_reference(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update as one expression per line, a temporary per op."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    param -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(param.dtype)


class TestAdam:
    def test_bit_identical_to_the_expression(self):
        rng = np.random.default_rng(4)
        shape = (7, 5)
        got = [rng.standard_normal(shape).astype(np.float32), np.zeros(shape, np.float32),
               np.zeros(shape, np.float32)]
        want = [a.copy() for a in got]
        for t in range(1, 6):
            grad = (rng.standard_normal(shape) * 10.0 ** -t).astype(np.float32)
            for step, (param, m, v) in ((T.adam_step, got), (adam_step_reference, want)):
                step(param, grad, m, v, t, 1e-3)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_zero_gradient_keeps_params(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2, dtype=np.float32)
        opt = T.Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0, 2.0])

    def test_descent_on_quadratic(self):
        w = Tensor([1.0], requires_grad=True)
        opt = T.Adam({"w": w}, lr=0.1)
        loss = T.sum_all(T.mul(w, w))
        T.backward(loss)
        opt.step()
        assert float(w.data[0] ** 2) < 1.0

    def test_first_step_is_signed_lr(self):
        # Bias correction at t=1 gives update ~= lr * sign(g).
        w = Tensor([0.0, 0.0], requires_grad=True)
        w.grad = np.array([0.3, -7.0], dtype=np.float32)
        opt = T.Adam({"w": w}, lr=0.01)
        opt.step()
        np.testing.assert_allclose(w.data, [-0.01, 0.01], rtol=1e-4)

    def test_minimize_is_backward_then_step(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal(4).astype(np.float32)
        got, want = Tensor(w0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        opt, ref = T.Adam({"w": got}, lr=0.1), T.Adam({"w": want}, lr=0.1)
        for _ in range(3):
            value = opt.minimize(T.sum_all(T.mul(got, got)), "here")
            loss = T.sum_all(T.mul(want, want))
            ref.zero_grad()
            T.backward(loss)
            ref.step()
            assert value == loss.item()
            assert np.array_equal(got.data, want.data) and np.array_equal(got.grad, want.grad)

    def test_minimize_refuses_a_non_finite_loss_and_changes_nothing(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        opt = T.Adam({"w": w}, lr=0.1)
        opt.minimize(T.sum_all(T.mul(w, w)), "step 0")
        before = [w.data.copy(), w.grad.copy(), opt.m["w"].copy(), opt.v["w"].copy()]
        with pytest.raises(DivergenceError, match="epoch 7"):
            opt.minimize(T.sum_all(T.mul(w, Tensor([np.nan, 1.0]))), "epoch 7")
        after = [w.data, w.grad, opt.m["w"], opt.v["w"]]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert opt.t == 1
