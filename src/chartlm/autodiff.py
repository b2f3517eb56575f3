"""Minimal reverse-mode autodiff over numpy arrays.

Every `Tensor` wraps an ndarray and remembers the op that produced it, so the
recorded graph doubles as the tape: `backward()` walks it once in reverse
topological order and accumulates gradients into `.grad`. Reductions delegate
to numpy's deterministic pairwise summation, so replaying a forward pass with
identical inputs reproduces identical bits, which the determinism tests rely
on. Training runs in float32; oracle and gradient checks build float64 graphs.

The op contract: an op computes its output array, then returns
`_node(data, inputs, vjp)`. `vjp(g)` maps the output's gradient `g` to one
gradient per input, in `inputs` order, constants included; None stands for
an input use the op's backward did not reach, and adds nothing. `_node` alone
decides whether the result is recorded, and `Tensor.backward` alone decides
which inputs receive their gradient and adds it up, so an op (a fused one
too) is its forward plus one VJP. An input the op uses k times is passed k
times and gets k gradients, in the order the tape would add them: summing
them inside the VJP instead would reorder float additions.

Fused ops follow this contract outside this module: `nn.TransformerLayer`,
each direction of `nn.BiLstm`, and `inside_outside.CioStack.layer`, one
node per inside-outside layer whose output is the layer's outside vectors.
The layer runs plain-array forwards that each return their VJP
(`TransformerLayer.forward_np`, `CompatHead.inside_scores_np` and
`.sibling_scores_np`) and calls those VJPs. The fused ops own their weights
as fixed tuples of Parameters. Each records one node whose VJP replays the
tape VJPs of the composite it replaced, bit for bit; the composites are
kept as the tests' reference in tests/composites.py. The plain-array
formulas below (layer norm, GELU, sigmoid, tanh) are the one copy they,
the tape ops and the reference share.
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
        """Reverse-topological sweep from this tensor, filling `.grad`. A node
        that no gradient reached (every VJP that could have fed it returned
        None) is skipped."""
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
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accum(seed)
        for node in reversed(topo):
            if node._bw is not None and node.grad is not None:
                for p, g in zip(node._prev, node._bw(node.grad)):
                    if g is not None and p.requires_grad:
                        p._accum(g)

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
        return gather(self, key)


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


def _node(data: Array, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """The op result `data`, recorded on the tape with `vjp` when grad is on
    and some input requires grad; a plain constant otherwise."""
    if _grad_enabled and any(t.requires_grad for t in inputs):
        return Tensor(data, True, inputs, vjp)
    return Tensor(data)


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
# plain-array formulas: the one copy that tape ops, fused ops and the tests'
# reference composites all call
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-5


def sigmoid_np(x: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid_grad(y: Array) -> Array:
    """Derivative of the sigmoid, from its output y."""
    return y * (1.0 - y)


def tanh_grad(y: Array) -> Array:
    """Derivative of tanh, from its output y."""
    return 1.0 - y * y


def gelu_np(x: Array) -> tuple[Array, Array]:
    """Exact-erf GELU: the output, and e = 1 + erf(x / sqrt 2), which
    `gelu_grad` reads so that a backward pass calls `erf` no more."""
    e = 1.0 + erf(x / _SQRT2)
    return 0.5 * x * e, e


def gelu_grad(x: Array, e: Array) -> Array:
    """Derivative of GELU at x, from the forward's e = 1 + erf(x / sqrt 2)."""
    return 0.5 * e + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _mean_last(x: Array) -> Array:
    """`x.mean(axis=-1, keepdims=True)` as `np.mean` computes it (a sum, then
    a division by the count as an intp, cast back), bit for bit, without
    its Python-level overhead."""
    s = np.add.reduce(x, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(x.shape[-1]), out=s, casting="unsafe")


def mT(a: Array) -> Array:
    """`a` with its last two axes swapped (a view), as matmul's VJP reads it."""
    return np.swapaxes(a, -1, -2)


def layer_norm_np(x: Array, gain: Array, bias: Array) -> tuple[Array, Array, Array]:
    """LayerNorm over the last axis: the output, and the normalized input
    and inverse deviation that `layer_norm_vjp` reads."""
    xc = x - _mean_last(x)
    var = _mean_last(xc * xc)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_vjp(g: Array, xhat: Array, inv: Array, gain: Array) -> tuple[Array, Array, Array]:
    """Gradients of x, gain and bias (bias has gain's shape)."""
    dxhat = g * gain
    term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * term, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, gain.shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data - b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _node(a.data / b.data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def gelu(a) -> Tensor:
    """Exact-erf GELU."""
    a = as_tensor(a)
    out, e = gelu_np(a.data)
    return _node(out, (a,), lambda g: (g * gelu_grad(a.data, e),))


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    return _node(np.transpose(a.data, axes), (a,),
                 lambda g: (np.transpose(g, np.argsort(axes)),))


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(np.array(np.broadcast_to(a.data, shape)), (a,),
                 lambda g: (_unbroadcast(g, a.shape),))


def gather(a, key) -> Tensor:
    """`a[key]` for any numpy key: ints and slices, an index array of rows,
    or a tuple of them. The result never aliases `a`; the VJP scatters back,
    summing the gradients of repeated indices."""
    a = as_tensor(a)
    out = a.data[key]
    if out.base is not None:  # basic indexing returns a view
        out = out.copy()

    def vjp(g):
        full = np.zeros_like(a.data)
        if all(isinstance(k, (int, np.integer, slice)) and not isinstance(k, bool)
               for k in (key if isinstance(key, tuple) else (key,))):
            full[key] += g  # a basic key: the same 0 + g as np.add.at, but fast
        else:
            np.add.at(full, key, g)
        return (full,)

    return _node(out, (a,), vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 lambda g: np.split(g, np.cumsum([t.shape[axis] for t in tensors[:-1]]),
                                    axis=axis))


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    return _node(np.stack([t.data for t in tensors], axis=axis), tensors,
                 lambda g: np.moveaxis(g, axis, 0))


# ---------------------------------------------------------------------------
# reductions and matmul
# ---------------------------------------------------------------------------

def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape),)

    return _node(a.data.sum(axis=axis), (a,), vjp)


def tmean(a) -> Tensor:
    """Mean over every element."""
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / float(a.data.size))


def matmul(a, b) -> Tensor:
    """Matrix product; both operands must have matching ndim >= 2."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or a.ndim != b.ndim:
        raise ValueError(f"matmul needs equal ndim >= 2, got {a.shape} @ {b.shape}")
    return _node(a.data @ b.data, (a, b),
                 lambda g: (_unbroadcast(g @ mT(b.data), a.shape),
                            _unbroadcast(mT(a.data) @ g, b.shape)))


# ---------------------------------------------------------------------------
# stable softmax family
# ---------------------------------------------------------------------------

def softmax_np(x: Array, axis: int = -1) -> Array:
    """Plain-array stable softmax (shared by ops and tape-free callers)."""
    x = np.asarray(x, dtype=np.result_type(x, np.float32))
    if x.shape[axis] == 3 and axis % x.ndim == x.ndim - 1:
        # the compose block's 3x3 scores: numpy's max and sum over a last
        # axis of width 3, elementwise (its sum adds (e0 + e1) + e2)
        x0, x1, x2 = x[..., 0:1], x[..., 1:2], x[..., 2:3]
        m = np.maximum(np.maximum(x0, x1), x2)
        m = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(x - m)
        return e / ((e[..., 0:1] + e[..., 1:2]) + e[..., 2:3])
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
    return _node(s, (a,), lambda g: (s * (g - (g * s).sum(axis=axis, keepdims=True)),))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    ls = a.data - logsumexp_np(a.data, axis=axis, keepdims=True)
    return _node(ls, (a,), lambda g: (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),))


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

FD_STEP = 1e-6   # central-difference step, relative to the coordinate's size
FD_ATOL = 1e-5   # gradients below this on both sides count as agreeing


def gradient_check(build_loss: Callable[[], Tensor],
                   params: Iterable[Parameter],
                   rng: np.random.Generator,
                   samples_per_param: int = 6) -> dict[str, float]:
    """Max relative error between tape gradients and central differences.

    Perturbs up to `samples_per_param` coordinates of each parameter. The
    model should be built in float64 for the stated tolerances to hold.
    Coordinates where both gradients fall below `FD_ATOL` count as agreeing:
    against an O(1) loss, central differences cannot resolve anything
    smaller, only drown it in rounding noise.
    """
    params = list(params)
    for p in params:
        p.grad = None
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
            h = FD_STEP * max(1.0, abs(float(orig)))
            flat[c] = orig + h
            up = build_loss().item()
            flat[c] = orig - h
            down = build_loss().item()
            flat[c] = orig
            fd = (up - down) / (2.0 * h)
            ad = float(grad.reshape(-1)[c])
            if max(abs(ad), abs(fd)) < FD_ATOL:
                continue
            rel = abs(ad - fd) / max(abs(ad), abs(fd))
            worst = max(worst, rel)
        report[p.name] = worst
    return report
