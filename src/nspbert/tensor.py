"""Dense-tensor engine with reverse-mode automatic differentiation.

Values are stored as float32; reductions accumulate in float64 before
casting back.  Every operation that participates in differentiation
records its parents and a backward closure on the output tensor; the
reverse sweep walks the recorded graph once, in reverse topological
order.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf

from .errors import DimensionError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference / scoring passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float32
        self.data = np.asarray(arr, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the free functions hold the actual implementations.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_as_tensor(other), -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        backward(self)


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float32))


def _node(out_data, parents, backward_fn):
    """Wrap an op result, recording the edge if gradients are live."""
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def backward(loss):
    """Reverse sweep from a scalar loss, populating .grad fields."""
    if loss.size != 1:
        raise DimensionError(f"backward requires a scalar loss, got shape {loss.shape}")
    # Iterative topological order over the recorded graph.
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += g.astype(parent.data.dtype, copy=False)


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), back)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), back)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    out = np.matmul(a.data, b.data)

    def back(g):
        ga = np.matmul(g, b.data.swapaxes(-1, -2))
        gb = np.matmul(a.data.swapaxes(-1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), back)


def transpose(a, axes):
    out = a.data.transpose(axes)
    inv = np.argsort(axes)

    def back(g):
        return (g.transpose(inv),)

    return _node(out, (a,), back)


def reshape(a, shape):
    out = a.data.reshape(shape)

    def back(g):
        return (g.reshape(a.shape),)

    return _node(out, (a,), back)


def tanh_op(a):
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def back(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), back)


_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a):
    a = _as_tensor(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT_2))
    out = (x * cdf).astype(x.dtype)

    def back(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.astype(np.float64) ** 2)
        return (g * (cdf + x * pdf).astype(x.dtype),)

    return _node(out, (a,), back)


def softmax_rows(x):
    """Softmax over the last axis, max-subtracted for stability."""
    x = _as_tensor(x)
    if x.shape[-1] < 1:
        raise DimensionError("softmax_rows requires last dimension >= 1")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted, dtype=np.float64)
    p = (e / e.sum(axis=-1, keepdims=True)).astype(x.data.dtype)

    def back(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _node(p, (x,), back)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise DimensionError(
            f"layer_norm gain/bias {gain.shape}/{bias.shape} must match last dim of {x.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = x.data.astype(np.float64).var(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.data.dtype)
    xhat = ((x.data - mu) * inv).astype(x.data.dtype)
    out = xhat * gain.data + bias.data

    def back(g):
        n = x.shape[-1]
        dxhat = g * gain.data
        gx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        ggain = _unbroadcast(g * xhat, gain.shape)
        gbias = _unbroadcast(g, bias.shape)
        return gx, ggain, gbias

    return _node(out, (x, gain, bias), back)


def embedding_lookup(table, ids):
    """Differentiable gather of rows of `table` by integer ids."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    out = table.data[ids]

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _node(out, (table,), back)


def gather_positions(x, idx0, idx1):
    """Select rows x[idx0[i], idx1[i], :] from a (B, S, H) tensor."""
    idx0 = np.asarray(idx0)
    idx1 = np.asarray(idx1)
    out = x.data[idx0, idx1]

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (idx0, idx1), g)
        return (gx,)

    return _node(out, (x,), back)


def take_index(x, index, axis):
    """Select a single index along `axis` (e.g. the [CLS] position)."""
    out = np.take(x.data, index, axis=axis)

    def back(g):
        gx = np.zeros_like(x.data)
        sl = [slice(None)] * x.ndim
        sl[axis] = index
        gx[tuple(sl)] = g
        return (gx,)

    return _node(out, (x,), back)


def sum_all(x, axis=None, keepdims=False):
    out = x.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(x.data.dtype)

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(x.data.dtype),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, x.shape).astype(x.data.dtype),)

    return _node(out, (x,), back)


# ---------------------------------------------------------------------------
# Losses


def cross_entropy(logits, target):
    """Mean negative log-softmax of the target class.

    Accepts a single logit row with an int target, or a (N, C) batch with
    a length-N target vector.
    """
    logits = _as_tensor(logits)
    single = logits.ndim == 1
    rows = logits.data[None, :] if single else logits.data
    targets = np.atleast_1d(np.asarray(target, dtype=np.int64))
    n, c = rows.shape
    if targets.min() < 0 or targets.max() >= c:
        raise IndexError(f"target index out of range [0, {c}): {targets}")
    x = rows.astype(np.float64)
    m = x.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=-1))
    losses = lse - x[np.arange(n), targets]
    out = np.asarray(losses.mean(), dtype=logits.data.dtype)

    def back(g):
        p = np.exp(x - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        grad = (g * p / n).astype(logits.data.dtype)
        return (grad[0] if single else grad,)

    return _node(out, (logits,), back)


BCE_EPS = 1e-7


def binary_cross_entropy(p, y):
    """Mean binary cross-entropy of probabilities p against targets y in {0,1}.

    Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS] before the logs.
    """
    p = _as_tensor(p)
    y = np.asarray(y, dtype=np.float64)
    pc = np.clip(p.data.astype(np.float64), BCE_EPS, 1.0 - BCE_EPS)
    losses = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    n = max(pc.size, 1)
    out = np.asarray(losses.sum() / n, dtype=p.data.dtype)

    def back(g):
        grad = g * (pc - y) / (pc * (1.0 - pc)) / n
        return (grad.astype(p.data.dtype).reshape(p.shape),)

    return _node(out, (p,), back)


# ---------------------------------------------------------------------------
# Optimizer


def adam_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update, in place on `param`, `m`, `v`. `t` is 1-based."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    param -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(param.dtype)


class Adam:
    """Adam over a dict of named parameter tensors."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            adam_step(
                p.data, p.grad, self.m[name], self.v[name], self.t,
                self.lr, self.beta1, self.beta2, self.eps,
            )

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
