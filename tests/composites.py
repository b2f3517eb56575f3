"""The tape composites behind chartlm's fused ops, kept as their reference.

`nn.TransformerLayer`, `inside_outside.CompatHead` (a score, and the outside
sweep's sibling scores) and each direction of `nn.BiLstm` record one tape
node whose VJP replays these composites' tape VJPs in the tape's order. The
functions here build the same computations from many tape nodes, the way
the model did before the fusion, so tests can check that each fused op
equals its composite: to rounding at float64 and bit for bit at float32.
They share every formula with the fused ops (`autodiff.layer_norm_np`,
`gelu_np`, `sigmoid_np`, ...); no formula is written here.
"""

import numpy as np

from chartlm import autodiff as ad
from chartlm import inside_outside, nn


# -- tape ops the fused ops replaced -------------------------------------------

def _unary(a, fwd, dfd):
    """Elementwise op whose derivative `dfd(y)` reads its output."""
    a = ad.as_tensor(a)
    out = fwd(a.data)
    return ad._node(out, (a,), lambda g: (g * dfd(out),))


def sigmoid(a):
    return _unary(a, ad.sigmoid_np, ad.sigmoid_grad)


def tanh(a):
    return _unary(a, np.tanh, ad.tanh_grad)


def layer_norm(x, gain, bias):
    """LayerNorm over the last axis with learned gain/bias."""
    x, gain, bias = ad.as_tensor(x), ad.as_tensor(gain), ad.as_tensor(bias)
    out, xhat, inv = ad.layer_norm_np(x.data, gain.data, bias.data)
    return ad._node(out, (x, gain, bias),
                    lambda g: ad.layer_norm_vjp(g, xhat, inv, gain.data))


# -- composites ------------------------------------------------------------------

def residual_mlp(m, x):
    """x + W2 gelu(W1 x) for an `nn.ResidualMlp`."""
    return x + m.fc2(ad.gelu(m.fc1(x)))


def attention(attn, x):
    """Multi-head self-attention of an `nn.MultiHeadAttention` over x (b, t, d)."""
    b, t, d = x.shape

    def heads(lin):
        y = lin(ad.reshape(x, (b * t, d)))
        return ad.transpose(ad.reshape(y, (b, t, attn.h, attn.dh)), (0, 2, 1, 3))

    q, k, v = heads(attn.wq), heads(attn.wk), heads(attn.wv)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(attn.dh))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)  # (b, h, t, dh)
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b * t, d))
    return ad.reshape(attn.wo(merged), (b, t, d))


def transformer_layer(layer, x, read=None):
    """`nn.TransformerLayer.__call__` as a composite: the whole layer, then a
    read of the positions `read`."""
    x = x + attention(layer.attn, layer_norm(x, layer.ln1.gain, layer.ln1.bias))
    b, t, d = x.shape
    h = ad.reshape(x, (b * t, d))
    ff = layer.fc2(ad.gelu(layer.fc1(layer_norm(h, layer.ln2.gain, layer.ln2.bias))))
    out = x + ad.reshape(ff, (b, t, d))
    return out if read is None else ad.gather(out, (slice(None), read))


def compat(head, x, y, which):
    """`inside_outside.CompatHead.__call__` as a composite."""
    ml, mr = head.maps[which]
    return ad.tsum(residual_mlp(ml, x) * residual_mlp(mr, y), axis=-1) * (1.0 / np.sqrt(head.d))


def sibling_scores(head, parent, parent_b, left, right, left_a, right_a):
    """`inside_outside.CompatHead.sibling_scores` as a composite: two
    `compat` calls and their adds."""
    b_left = right_a + compat(head, parent, right, "outside") + parent_b
    b_right = left_a + compat(head, parent, left, "outside") + parent_b
    return ad.concat([b_left, b_right], axis=0)


def lstm_direction(lstm, x, cell, reverse):
    """`nn.BiLstm._run_direction` as a composite."""
    n = x.shape[0]
    h = lstm.hidden
    zx = ad.matmul(x, cell["wx"]) + cell["b"]  # (n, 4h): input part hoisted
    h_t = c_t = ad.Tensor(np.zeros((1, h), dtype=cell["wh"].dtype))  # a constant
    order = range(n - 1, -1, -1) if reverse else range(n)
    outs = [None] * n
    for t in order:
        z = zx[t:t + 1, :] + ad.matmul(h_t, cell["wh"])  # (1, 4h)
        i = sigmoid(z[:, 0 * h:1 * h])
        f = sigmoid(z[:, 1 * h:2 * h])
        g = tanh(z[:, 2 * h:3 * h])
        o = sigmoid(z[:, 3 * h:4 * h])
        c_t = f * c_t + i * g
        h_t = o * tanh(c_t)
        outs[t] = h_t
    return ad.concat(outs, axis=0)  # (n, h)


# each fused method and the composite that can stand in for it
FUSED = [(nn.TransformerLayer, "__call__", transformer_layer),
         (inside_outside.CompatHead, "__call__", compat),
         (inside_outside.CompatHead, "sibling_scores", sibling_scores),
         (nn.BiLstm, "_run_direction", lstm_direction)]


def use_composites(monkeypatch) -> None:
    """Run every fused op as its composite until the test ends."""
    for owner, attr, composite in FUSED:
        monkeypatch.setattr(owner, attr, composite)
