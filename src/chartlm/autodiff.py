"""Minimal reverse-mode autodiff over numpy arrays.

Every `Tensor` wraps an ndarray and remembers the op that produced it, so the
recorded graph doubles as the tape: `backward()` walks it once in reverse
topological order and accumulates gradients into `.grad`. Reductions delegate
to numpy's deterministic pairwise summation, so replaying a forward pass with
identical inputs reproduces identical bits, which the determinism tests rely
on. Training runs in float32; oracle and gradient checks build float64 graphs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

Array = np.ndarray

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _tracing(*tensors: "Tensor") -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


class Tensor:
    """ndarray plus the backward closure that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_bw")

    def __init__(self, data, requires_grad: bool = False,
                 _prev: tuple = (), _bw: Callable | None = None):
        self.data = np.asarray(data)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._prev = _prev
        self._bw = _bw

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.requires_grad})"

    # -- graph plumbing -----------------------------------------------------

    def _accum(self, g: Array) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self, seed: Array | None = None) -> None:
        """Reverse-topological sweep from this tensor, filling `.grad`."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar")
            seed = np.ones_like(self.data)
        # Iterative DFS: graphs from long sentences overflow the recursion limit.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen and (p.requires_grad or p._prev):
                    stack.append((p, False))
        self._accum(seed)
        for node in reversed(topo):
            if node._bw is not None and node.grad is not None:
                node._bw(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


class Parameter(Tensor):
    """Named trainable tensor; the name keys checkpoints and gradchecks."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(np.asarray(data), requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape})"


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a plain number or array takes the other
    operand's dtype, so a float32 graph stays float32."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, as_tensor(b, a.dtype)
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return as_tensor(a, b.dtype), b
    return as_tensor(a), as_tensor(b)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum `g` down to `shape` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data + b.data
    if not _tracing(a, b):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a, b))

    def _bw(g):
        if a.requires_grad or a._prev:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad or b._prev:
            b._accum(_unbroadcast(g, b.shape))

    out._bw = _bw
    return out


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data - b.data
    if not _tracing(a, b):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a, b))

    def _bw(g):
        if a.requires_grad or a._prev:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad or b._prev:
            b._accum(_unbroadcast(-g, b.shape))

    out._bw = _bw
    return out


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data * b.data
    if not _tracing(a, b):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a, b))

    def _bw(g):
        if a.requires_grad or a._prev:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad or b._prev:
            b._accum(_unbroadcast(g * a.data, b.shape))

    out._bw = _bw
    return out


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data / b.data
    if not _tracing(a, b):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a, b))

    def _bw(g):
        if a.requires_grad or a._prev:
            a._accum(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad or b._prev:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    out._bw = _bw
    return out


def _unary(a, fwd: Callable[[Array], Array], dfd: Callable[[Array, Array], Array]) -> Tensor:
    a = as_tensor(a)
    out_data = fwd(a.data)
    if not _tracing(a):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))

    def _bw(g):
        a._accum(g * dfd(a.data, out_data))

    out._bw = _bw
    return out


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda x, y: y)


def log(a) -> Tensor:
    return _unary(a, np.log, lambda x, y: 1.0 / x)


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y)


def sigmoid(a) -> Tensor:
    return _unary(a, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, y: y * (1.0 - y))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a) -> Tensor:
    """Exact-erf GELU."""
    return _unary(
        a,
        lambda x: 0.5 * x * (1.0 + erf(x / _SQRT2)),
        lambda x, y: 0.5 * (1.0 + erf(x / _SQRT2)) + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x),
    )


def power(a, exponent: float) -> Tensor:
    return _unary(a, lambda x: x ** exponent, lambda x, y: exponent * x ** (exponent - 1.0))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)
    if not _tracing(a):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))
    out._bw = lambda g: a._accum(g.reshape(a.shape))
    return out


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    if not _tracing(a):
        return Tensor(out_data)
    inv = np.argsort(axes)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))
    out._bw = lambda g: a._accum(np.transpose(g, inv))
    return out


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = np.broadcast_to(a.data, shape)
    if not _tracing(a):
        return Tensor(np.array(out_data))
    out = Tensor(np.array(out_data), requires_grad=True, _prev=(a,))
    out._bw = lambda g: a._accum(_unbroadcast(g, a.shape))
    return out


def index(a, key) -> Tensor:
    """Basic indexing (ints/slices); returns a copy, scatters grad back."""
    a = as_tensor(a)
    out_data = np.array(a.data[key])
    if not _tracing(a):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))

    def _bw(g):
        full = np.zeros_like(a.data)
        full[key] = g
        a._accum(full)

    out._bw = _bw
    return out


def gather(a, idx, axis: int = 0) -> Tensor:
    """Integer-array take along `axis`; duplicate indices accumulate grads."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = np.take(a.data, idx, axis=axis)
    if not _tracing(a):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))

    def _bw(g):
        full = np.zeros_like(a.data)
        if axis == 0:
            np.add.at(full, idx, g)
        else:
            moved = np.moveaxis(full, axis, 0)  # view: writes land in full
            np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        a._accum(full)

    out._bw = _bw
    return out


def take_pairs(a, rows, cols) -> Tensor:
    """a[rows, cols] for index arrays; used for picking label logits."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out_data = a.data[rows, cols]
    if not _tracing(a):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))

    def _bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, cols), g)
        a._accum(full)

    out._bw = _bw
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not (_grad_enabled and any(t.requires_grad for t in tensors)):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad or t._prev:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    out._bw = _bw
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not (_grad_enabled and any(t.requires_grad for t in tensors)):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=tuple(tensors))

    def _bw(g):
        slices = np.moveaxis(g, axis, 0)
        for t, gs in zip(tensors, slices):
            if t.requires_grad or t._prev:
                t._accum(gs)

    out._bw = _bw
    return out


# ---------------------------------------------------------------------------
# reductions and matmul
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _tracing(a):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))

    def _bw(g):
        if axis is None:
            a._accum(np.broadcast_to(g, a.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape))

    out._bw = _bw
    return out


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def matmul(a, b) -> Tensor:
    """Matrix product; both operands must have matching ndim >= 2."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or a.ndim != b.ndim:
        raise ValueError(f"matmul needs equal ndim >= 2, got {a.shape} @ {b.shape}")
    out_data = a.data @ b.data
    if not _tracing(a, b):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a, b))

    def _bw(g):
        if a.requires_grad or a._prev:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accum(ga if ga.shape == a.shape else _unbroadcast(ga, a.shape))
        if b.requires_grad or b._prev:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accum(gb if gb.shape == b.shape else _unbroadcast(gb, b.shape))

    out._bw = _bw
    return out


# ---------------------------------------------------------------------------
# stable softmax family
# ---------------------------------------------------------------------------

def softmax_np(x: Array, axis: int = -1) -> Array:
    """Plain-array stable softmax (shared by ops and tape-free callers)."""
    x = np.asarray(x, dtype=np.result_type(x, np.float32))
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)  # all -inf row: avoid inf - inf
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def logsumexp_np(x: Array, axis: int = -1, keepdims: bool = False) -> Array:
    x = np.asarray(x)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    return out if keepdims else np.squeeze(out, axis=axis)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    s = softmax_np(a.data, axis=axis)
    if not _tracing(a):
        return Tensor(s)
    out = Tensor(s, requires_grad=True, _prev=(a,))

    def _bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        a._accum(s * (g - dot))

    out._bw = _bw
    return out


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    ls = a.data - logsumexp_np(a.data, axis=axis, keepdims=True)
    if not _tracing(a):
        return Tensor(ls)
    out = Tensor(ls, requires_grad=True, _prev=(a,))

    def _bw(g):
        a._accum(g - np.exp(ls) * g.sum(axis=axis, keepdims=True))

    out._bw = _bw
    return out


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = logsumexp_np(a.data, axis=axis, keepdims=keepdims)
    if not _tracing(a):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(a,))

    def _bw(g):
        full = out_data if keepdims else np.expand_dims(out_data, axis)
        gg = g if keepdims else np.expand_dims(g, axis)
        a._accum(np.exp(a.data - full) * gg)

    out._bw = _bw
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last axis with learned gain/bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data
    if not _tracing(x, gain, bias):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True, _prev=(x, gain, bias))
    d = x.shape[-1]

    def _bw(g):
        if gain.requires_grad or gain._prev:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad or bias._prev:
            bias._accum(_unbroadcast(g, bias.shape))
        if x.requires_grad or x._prev:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * term)

    out._bw = _bw
    return out


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

def gradient_check(build_loss: Callable[[], Tensor],
                   params: Iterable[Parameter],
                   rng: np.random.Generator,
                   samples_per_param: int = 6,
                   eps: float = 1e-6,
                   atol: float = 1e-5) -> dict[str, float]:
    """Max relative error between tape gradients and central differences.

    Perturbs up to `samples_per_param` coordinates of each parameter. The
    model should be built in float64 for the stated tolerances to hold.
    Coordinates where both gradients fall below `atol` count as agreeing:
    against an O(1) loss, central differences cannot resolve anything
    smaller, only drown it in rounding noise.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    report: dict[str, float] = {}
    for p in params:
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        flat = p.data.reshape(-1)
        n = flat.size
        k = min(samples_per_param, n)
        coords = rng.choice(n, size=k, replace=False)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            h = eps * max(1.0, abs(float(orig)))
            flat[c] = orig + h
            up = build_loss().item()
            flat[c] = orig - h
            down = build_loss().item()
            flat[c] = orig
            fd = (up - down) / (2.0 * h)
            ad = float(grad.reshape(-1)[c])
            if max(abs(ad), abs(fd)) < atol:
                continue
            rel = abs(ad - fd) / max(abs(ad), abs(fd))
            worst = max(worst, rel)
        report[p.name] = worst
    return report
