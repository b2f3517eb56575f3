"""Parameterized layers built on the autodiff tape.

Modules register parameters with explicit path-style names ("cio.0.alpha.wq")
so checkpoints and gradchecks can address them deterministically. Weight init
is normal(0, 0.02), biases zero, norm gains one. Parameters are built at
float64; `Module.astype` casts a whole module to its working precision.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor

INIT_STD = 0.02


class Module:
    """Tiny container: tracks own parameters and child modules by name."""

    def __init__(self) -> None:
        self._params: list[Parameter] = []
        self._children: list["Module"] = []

    def _param(self, name: str, data: np.ndarray) -> Parameter:
        p = Parameter(name, data)
        self._params.append(p)
        return p

    def _child(self, module: "Module") -> "Module":
        self._children.append(module)
        return module

    def parameters(self) -> list[Parameter]:
        out = list(self._params)
        for c in self._children:
            out.extend(c.parameters())
        return out

    def parameter_map(self) -> dict[str, Parameter]:
        m: dict[str, Parameter] = {}
        for p in self.parameters():
            if p.name in m:
                raise ValueError(f"duplicate parameter name: {p.name}")
            m[p.name] = p
        return m

    def astype(self, dtype) -> None:
        """Cast every parameter's data to `dtype` in place."""
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)


def _normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) * INIT_STD


class Linear(Module):
    def __init__(self, name: str, din: int, dout: int, rng: np.random.Generator,
                 zero_init: bool = False):
        super().__init__()
        w = np.zeros((din, dout)) if zero_init else _normal(rng, (din, dout))
        self.w = self._param(f"{name}.w", w)
        self.b = self._param(f"{name}.b", np.zeros(dout))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b


class LayerNorm(Module):
    def __init__(self, name: str, d: int):
        super().__init__()
        self.gain = self._param(f"{name}.gain", np.ones(d))
        self.bias = self._param(f"{name}.bias", np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias)


class Mlp(Module):
    """Two-layer GELU MLP (parser boundary head)."""

    def __init__(self, name: str, din: int, dhid: int, dout: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = self._child(Linear(f"{name}.fc1", din, dhid, rng))
        self.fc2 = self._child(Linear(f"{name}.fc2", dhid, dout, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class ResidualMlp(Module):
    """x + W2 gelu(W1 x): zero-init W2 makes it the identity at init.

    Used for the compatibility feature maps, whose tests rely on the
    zero-weight = identity property.
    """

    def __init__(self, name: str, d: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = self._child(Linear(f"{name}.fc1", d, d, rng))
        self.fc2 = self._child(Linear(f"{name}.fc2", d, d, rng, zero_init=True))

    def __call__(self, x: Tensor) -> Tensor:
        return x + self.fc2(ad.gelu(self.fc1(x)))


class MultiHeadAttention(Module):
    def __init__(self, name: str, d: int, n_heads: int, rng: np.random.Generator):
        super().__init__()
        if d % n_heads != 0:
            raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
        self.d, self.h = d, n_heads
        self.dh = d // n_heads
        self.wq = self._child(Linear(f"{name}.wq", d, d, rng))
        self.wk = self._child(Linear(f"{name}.wk", d, d, rng))
        self.wv = self._child(Linear(f"{name}.wv", d, d, rng))
        self.wo = self._child(Linear(f"{name}.wo", d, d, rng))

    def __call__(self, x: Tensor) -> Tensor:
        b, t, d = x.shape
        def heads(lin):
            y = lin(ad.reshape(x, (b * t, d)))
            return ad.transpose(ad.reshape(y, (b, t, self.h, self.dh)), (0, 2, 1, 3))
        q, k, v = heads(self.wq), heads(self.wk), heads(self.wv)
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(self.dh))
        ctx = ad.matmul(ad.softmax(scores, axis=-1), v)  # (b, h, t, dh)
        merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b * t, d))
        return ad.reshape(self.wo(merged), (b, t, d))


class TransformerLayer(Module):
    """Pre-norm self-attention + GELU feed-forward of width 4d."""

    def __init__(self, name: str, d: int, n_heads: int, rng: np.random.Generator):
        super().__init__()
        self.ln1 = self._child(LayerNorm(f"{name}.ln1", d))
        self.attn = self._child(MultiHeadAttention(f"{name}.attn", d, n_heads, rng))
        self.ln2 = self._child(LayerNorm(f"{name}.ln2", d))
        self.fc1 = self._child(Linear(f"{name}.ffn1", d, 4 * d, rng))
        self.fc2 = self._child(Linear(f"{name}.ffn2", 4 * d, d, rng))

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        b, t, d = x.shape
        h = ad.reshape(x, (b * t, d))
        ff = self.fc2(ad.gelu(self.fc1(self.ln2(h))))
        return x + ad.reshape(ff, (b, t, d))


class AttentionBlock(Module):
    """Stack of `depth` transformer layers; no positional encodings."""

    def __init__(self, name: str, d: int, n_heads: int, depth: int, rng: np.random.Generator):
        super().__init__()
        self.layers = [self._child(TransformerLayer(f"{name}.{i}", d, n_heads, rng))
                       for i in range(depth)]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Embedding(Module):
    def __init__(self, name: str, vocab: int, d: int, rng: np.random.Generator):
        super().__init__()
        self.table = self._param(name, _normal(rng, (vocab, d)))

    def __call__(self, ids) -> Tensor:
        return ad.gather(self.table, np.asarray(ids, dtype=np.intp))


class BiLstm(Module):
    """Bidirectional LSTM returning per-position [fwd; bwd] states."""

    def __init__(self, name: str, din: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.hidden = hidden
        self.cells: list[dict] = []
        for direction in ("f", "b"):
            prefix = f"{name}.0.{direction}"  # the names checkpoints address
            self.cells.append({
                "wx": self._param(f"{prefix}.wx", _normal(rng, (din, 4 * hidden))),
                "wh": self._param(f"{prefix}.wh", _normal(rng, (hidden, 4 * hidden))),
                "b": self._param(f"{prefix}.b", np.zeros(4 * hidden)),
            })

    def _run_direction(self, x: Tensor, cell: dict, reverse: bool) -> Tensor:
        n = x.shape[0]
        h = self.hidden
        zx = ad.matmul(x, cell["wx"]) + cell["b"]  # (n, 4h): input part hoisted
        h_t = c_t = Tensor(np.zeros((1, h), dtype=cell["wh"].dtype))  # a constant: never written
        order = range(n - 1, -1, -1) if reverse else range(n)
        outs: list[Tensor | None] = [None] * n
        for t in order:
            z = zx[t:t + 1, :] + ad.matmul(h_t, cell["wh"])  # (1, 4h)
            i = ad.sigmoid(z[:, 0 * h:1 * h])
            f = ad.sigmoid(z[:, 1 * h:2 * h])
            g = ad.tanh(z[:, 2 * h:3 * h])
            o = ad.sigmoid(z[:, 3 * h:4 * h])
            c_t = f * c_t + i * g
            h_t = o * ad.tanh(c_t)
            outs[t] = h_t
        return ad.concat(outs, axis=0)  # (n, h)

    def __call__(self, x: Tensor) -> Tensor:
        fwd = self._run_direction(x, self.cells[0], reverse=False)
        bwd = self._run_direction(x, self.cells[1], reverse=True)
        return ad.concat([fwd, bwd], axis=1)  # (n, 2h)
