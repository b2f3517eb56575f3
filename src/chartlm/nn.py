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

    def _linear(self, name: str, din: int, dout: int, rng: np.random.Generator,
                zero_init: bool = False) -> tuple[Parameter, Parameter]:
        """Register `{name}.w` (din, dout) and `{name}.b` (dout,) of x @ w + b."""
        w = np.zeros((din, dout)) if zero_init else _normal(rng, (din, dout))
        return self._param(f"{name}.w", w), self._param(f"{name}.b", np.zeros(dout))

    def _norm(self, name: str, d: int) -> tuple[Parameter, Parameter]:
        """Register `{name}.gain` and `{name}.bias` of a LayerNorm over d."""
        return self._param(f"{name}.gain", np.ones(d)), self._param(f"{name}.bias", np.zeros(d))

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
    def __init__(self, name: str, din: int, dout: int, rng: np.random.Generator):
        super().__init__()
        self.w, self.b = self._linear(name, din, dout, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w) + self.b


class Mlp(Module):
    """Two-layer GELU MLP (parser boundary head)."""

    def __init__(self, name: str, din: int, dhid: int, dout: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = self._child(Linear(f"{name}.fc1", din, dhid, rng))
        self.fc2 = self._child(Linear(f"{name}.fc2", dhid, dout, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))


class TransformerLayer(Module):
    """Pre-norm self-attention + GELU feed-forward of width 4d, one tape node.

    The VJP replays the tape's VJPs of the composite (tests/composites.py)
    in the tape's order, so gradients match it bit for bit. x feeds the
    residual and ln1, so it is an input twice: residual gradient first.
    The layer owns its 16 weights, in `params`: ln1's gain and bias, the
    (w, b) of wq, wk, wv and wo, ln2's gain and bias, then ffn1's and ffn2's.
    """

    def __init__(self, name: str, d: int, n_heads: int, rng: np.random.Generator):
        super().__init__()
        if d % n_heads != 0:
            raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
        self.h, self.dh = n_heads, d // n_heads
        self._norm(f"{name}.ln1", d)
        for proj in ("wq", "wk", "wv", "wo"):
            self._linear(f"{name}.attn.{proj}", d, d, rng)
        self._norm(f"{name}.ln2", d)
        self._linear(f"{name}.ffn1", d, 4 * d, rng)
        self._linear(f"{name}.ffn2", 4 * d, d, rng)
        self.params = tuple(self._params)

    def __call__(self, x: Tensor) -> Tensor:
        """x (b, t, d) -> (b, t, d), as one tape node (see `forward_np`)."""
        out, vjp = self.forward_np(x.data)
        return ad._node(out, (x, x) + self.params, vjp)

    def forward_np(self, x: np.ndarray, read: list[int] | None = None):
        """The layer on a plain array: its output and its VJP, which maps the
        output's gradient to those of x (residual path, then ln1) and of
        the 16 weights. Attention runs over all t positions; `wo`, the
        residual, ln2 and the feed-forward only on the read ones.

        Two BLAS facts keep this equal to the full layer followed by a read
        (tests/test_fused.py): rows of X @ W are the full product's rows
        when X has two or more of them, so a one-row read runs every
        position; and X.T @ G is the same without G's zero rows. Rows of
        G @ W.T do depend on the row count, so the VJP puts the read rows
        back in the full (b*t)-row shape, zeros elsewhere, before those.
        """
        b, t, d = x.shape
        h, dh = self.h, self.dh
        whole = read is None
        read = list(range(t)) if whole else read
        keep = read if b * len(read) > 1 else list(range(t))  # the rows computed
        r = len(keep)
        (gain1, bias1, wq, bq, wk, bk, wv, bv, wo, bo,
         gain2, bias2, w1, b1, w2, b2) = (p.data for p in self.params)
        scale = x.dtype.type(1.0 / np.sqrt(dh))

        y1, xhat1, inv1 = ad.layer_norm_np(x, gain1, bias1)
        rows = y1.reshape(b * t, d)

        def heads(w, bias):  # (b*t, d) rows -> (b, h, t, dh) view
            return np.transpose((rows @ w + bias).reshape(b, t, h, dh), (0, 2, 1, 3))

        q, k, v = heads(wq, bq), heads(wk, bk), heads(wv, bv)
        kt = np.transpose(k, (0, 1, 3, 2))
        att = ad.softmax_np((q @ kt) * scale, axis=-1)
        merged = np.transpose(att @ v, (0, 2, 1, 3))[:, keep].reshape(b * r, d)
        x1 = x[:, keep] + (merged @ wo + bo).reshape(b, r, d)
        y2, xhat2, inv2 = ad.layer_norm_np(x1.reshape(b * r, d), gain2, bias2)
        a1 = y2 @ w1 + b1
        act, e1 = ad.gelu_np(a1)
        out = x1 + (act @ w2 + b2).reshape(b, r, d)
        if keep is not read:
            out = out[:, read]

        def through(gr, w):  # kept rows @ w.T, computed in the (b*t)-row shape
            full = np.zeros((b, t, gr.shape[-1]), dtype=gr.dtype)
            full[:, keep] = gr.reshape(b, r, -1)
            return (full.reshape(b * t, -1) @ ad.mT(w)).reshape(b, t, -1)

        def vjp(g):
            if whole:  # x1 feeds the output, then ln2; g stays as it is
                gx1 = np.array(g, copy=True)
            else:  # the read's scatter adds g into zeros
                gx1 = np.zeros((b, t, d), dtype=g.dtype)
                gx1[:, read] += g
            gff = gx1[:, keep].reshape(b * r, d)
            ga1 = through(gff, w2)[:, keep].reshape(b * r, -1) * ad.gelu_grad(a1, e1)
            gx2, ggain2, gbias2 = ad.layer_norm_vjp(
                through(ga1, w1)[:, keep].reshape(b * r, d), xhat2, inv2, gain2)
            gx1[:, keep] += gx2.reshape(b, r, d)
            go = gx1[:, keep].reshape(b * r, d)
            gctx = np.transpose((gx1.reshape(b * t, d) @ ad.mT(wo)).reshape(b, t, h, dh),
                                (0, 2, 1, 3))
            gatt = gctx @ ad.mT(v)
            gs = att * (gatt - (gatt * att).sum(axis=-1, keepdims=True)) * scale
            gq, gk, gv = (np.transpose(gh, (0, 2, 1, 3)).reshape(b * t, d)  # back to rows
                          for gh in (gs @ ad.mT(kt),
                                     np.transpose(ad.mT(q) @ gs, (0, 1, 3, 2)),
                                     ad.mT(att) @ gctx))
            gy1 = (gq @ ad.mT(wq)).reshape(b, t, d)  # ln1 output: q's, then k's, then v's
            gy1 += (gk @ ad.mT(wk)).reshape(b, t, d)
            gy1 += (gv @ ad.mT(wv)).reshape(b, t, d)
            gx, ggain1, gbias1 = ad.layer_norm_vjp(gy1, xhat1, inv1, gain1)
            return (gx1, gx, ggain1, gbias1,
                    ad.mT(rows) @ gq, gq.sum(axis=0), ad.mT(rows) @ gk, gk.sum(axis=0),
                    ad.mT(rows) @ gv, gv.sum(axis=0), ad.mT(merged) @ go, go.sum(axis=0),
                    ggain2, gbias2, ad.mT(y2) @ ga1, ga1.sum(axis=0), ad.mT(act) @ gff,
                    gff.sum(axis=0))

        return out, vjp


class AttentionBlock(Module):
    """Stack of `depth` transformer layers; no positional encodings."""

    def __init__(self, name: str, d: int, n_heads: int, depth: int, rng: np.random.Generator):
        super().__init__()
        self.layers = [self._child(TransformerLayer(f"{name}.{i}", d, n_heads, rng))
                       for i in range(depth)]
        self.params = tuple(p for layer in self.layers for p in layer.params)

    def forward_np(self, x: np.ndarray, read: list[int] | None = None):
        """`__call__` on a plain array, reading the positions `read` (all when
        None) of the output: the read reaches the last layer only, since
        every layer before it feeds all t positions to the next. Returns the
        output and its VJP, which maps the output's gradient to x's and to a
        list of the weights' (`params` order), summing each layer's two input
        gradients as the tape does."""
        vjps = []
        for i, layer in enumerate(self.layers):
            x, vjp = layer.forward_np(x, read if i == len(self.layers) - 1 else None)
            vjps.append(vjp)
        if not self.layers and read is not None:
            x, full = x[:, read], x
        else:
            full = None

        def vjp(g):
            if full is not None:  # the read's scatter
                g, g_read = np.zeros_like(full), g
                np.add.at(g, (slice(None), read), g_read)
            weights = []
            for layer_vjp in reversed(vjps):
                g_res, g_ln, *g_w = layer_vjp(g)
                g = np.array(g_res, copy=True)
                g += g_ln
                weights[:0] = g_w
            return g, weights

        return x, vjp

    def __call__(self, x: Tensor) -> Tensor:
        """x (b, t, d) -> (b, t, d)."""
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
        """One direction's (n, h) states as one tape node.

        wh serves every step, so it is an input once per step and its step
        gradients come in the tape's order, the last step's first; the
        tests' composite (tests/composites.py) is the reference.
        """
        n, hd = x.shape[0], self.hidden
        wx, wh, bias = cell["wx"], cell["wh"], cell["b"]
        zx = x.data @ wx.data + bias.data  # (n, 4h): input part hoisted
        h_t = c_t = np.zeros((1, hd), dtype=wh.dtype)
        steps = range(n - 1, -1, -1) if reverse else range(n)
        out = np.empty((n, hd), dtype=zx.dtype)
        saved = []
        for t in steps:
            z = zx[t:t + 1] + h_t @ wh.data
            i, f, o = (ad.sigmoid_np(z[:, q * hd:(q + 1) * hd]) for q in (0, 1, 3))
            g = np.tanh(z[:, 2 * hd:3 * hd])
            c_next = f * c_t + i * g
            tc = np.tanh(c_next)
            saved.append((h_t, c_t, i, f, g, o, tc))
            h_t, c_t = o * tc, c_next
            out[t] = h_t

        def vjp(gout):
            gzx = np.zeros_like(zx)
            gwh = []
            gh_next = gc_next = None
            for t, (h_prev, c_prev, i, f, g, o, tc) in zip(reversed(steps), reversed(saved)):
                gh = gout[t:t + 1] if gh_next is None else gout[t:t + 1] + gh_next
                gc = (gh * o) * ad.tanh_grad(tc)
                if gc_next is not None:
                    gc = gc + gc_next
                # the tape scattered each gate into zeros: adding into zeros
                # keeps its bits, -0.0 turned to +0.0 included
                gz = np.zeros((1, 4 * hd), dtype=zx.dtype)
                gz[:, 0:hd] += (gc * g) * ad.sigmoid_grad(i)
                gz[:, hd:2 * hd] += (gc * c_prev) * ad.sigmoid_grad(f)
                gz[:, 2 * hd:3 * hd] += (gc * i) * ad.tanh_grad(g)
                gz[:, 3 * hd:4 * hd] += (gh * tc) * ad.sigmoid_grad(o)
                gwh.append(ad.mT(h_prev) @ gz)
                gh_next, gc_next = gz @ ad.mT(wh.data), gc * f
                gzx[t:t + 1] += gz
            return (gzx @ ad.mT(wx.data), ad.mT(x.data) @ gzx, gzx.sum(axis=0), *gwh)

        return ad._node(out, (x, wx, bias) + (wh,) * n, vjp)

    def __call__(self, x: Tensor) -> Tensor:
        fwd = self._run_direction(x, self.cells[0], reverse=False)
        bwd = self._run_direction(x, self.cells[1], reverse=True)
        return ad.concat([fwd, bwd], axis=1)  # (n, 2h)
