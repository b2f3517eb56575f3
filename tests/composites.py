"""The tape composites behind chartlm's fused ops, kept as their reference.

`nn.TransformerLayer`, each direction of `nn.BiLstm` and
`inside_outside.CioStack.layer` (one inside-outside layer) record one tape
node whose VJP replays these composites' tape VJPs in the tape's order. So
do the plain-array entry points the layer calls, `TransformerLayer.forward_np`
with a read, and the compatibility head's `CompatHead.inside_scores_np` (the
inside sweep's split totals) and `.sibling_scores_np` (the outside sweep's
two child scores per pair): `record` makes each of those one tape node, so
tests can take its gradients. The fused ops own their weights, and the
functions here read the same Parameters (`TransformerLayer.params`,
`CompatHead.inside` and `.outside`, `ComposeParams.roles`) to build the same
computations from many tape nodes, the way the model did before the fusion,
so tests can check that each fused op equals its composite: to rounding at
float64 and bit for bit at float32. `cio_layer` is the per-op engine: each
wave's gathers, compose, scores and pools on the tape, and arenas grown by a
concat per wave. They share every formula with the fused ops
(`autodiff.layer_norm_np`, `gelu_np`, `sigmoid_np`, ...); no formula is
written here.
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


# -- plain-array forwards as tape nodes -----------------------------------------

def record(forward, inputs):
    """A plain-array forward's `(out, vjp)` as one tape node whose VJP's
    gradients go to `inputs`, in order: an input used k times is listed k
    times."""
    out, vjp = forward
    return ad._node(out, tuple(inputs), vjp)


def layer_read(layer, x, read):
    """`nn.TransformerLayer.forward_np(x, read)` on tensor x: x feeds the
    residual and ln1, so it is an input twice."""
    return record(layer.forward_np(x.data, read), (x, x) + layer.params)


def block_read(block, x, read):
    """`nn.AttentionBlock` on tensor x, reading the positions `read` (all
    when None) of the output through its last layer's `layer_read`."""
    if read is None:
        return block(x)
    *body, last = block.layers
    for layer in body:
        x = layer(x)
    return layer_read(last, x, read)


def fused_inside_scores(head, left, right, left_a, right_a):
    """`inside_outside.CompatHead.inside_scores_np` on tensors: left and
    right each feed a map's residual path and its fc1, so each is an input
    twice."""
    return record(head.inside_scores_np(left.data, right.data, left_a.data, right_a.data),
                  (left, left, right, right) + head.inside[0] + head.inside[1]
                  + (left_a, right_a))


def fused_sibling_scores(head, parent, parent_b, left, right, left_a, right_a):
    """`inside_outside.CompatHead.sibling_scores_np` on tensors, its inputs
    listed in the order the composite's tape reaches them: the left child's
    terms, the right child's, then parent_b."""
    weights = head.outside[0] + head.outside[1]
    return record(head.sibling_scores_np(parent.data, parent_b.data, left.data, right.data,
                                         left_a.data, right_a.data),
                  (right_a, parent, parent, right, right) + weights
                  + (left_a, parent, parent, left, left) + weights + (parent_b, parent_b))


# -- composites ------------------------------------------------------------------

def linear(x, w, b):
    """x @ w + b, as `nn.Linear` computes it."""
    return ad.matmul(x, w) + b


def residual_mlp(m, x):
    """x + W2 gelu(W1 x) for a `CompatHead` map's weights m = (W1, b1, W2, b2)."""
    w1, b1, w2, b2 = m
    return x + linear(ad.gelu(linear(x, w1, b1)), w2, b2)


def attention(layer, x):
    """Multi-head self-attention with an `nn.TransformerLayer`'s projections
    over x (b, t, d)."""
    b, t, d = x.shape
    wq, bq, wk, bk, wv, bv, wo, bo = layer.params[2:10]

    def heads(w, bias):
        y = linear(ad.reshape(x, (b * t, d)), w, bias)
        return ad.transpose(ad.reshape(y, (b, t, layer.h, layer.dh)), (0, 2, 1, 3))

    q, k, v = heads(wq, bq), heads(wk, bk), heads(wv, bv)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(layer.dh))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)  # (b, h, t, dh)
    merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b * t, d))
    return ad.reshape(linear(merged, wo, bo), (b, t, d))


def transformer_layer(layer, x, read=None):
    """`nn.TransformerLayer.__call__` as a composite, and with `read`,
    `forward_np(x, read)` as one: the whole layer, then a read of the
    positions `read`."""
    gain1, bias1 = layer.params[:2]
    gain2, bias2, w1, b1, w2, b2 = layer.params[10:]
    x = x + attention(layer, layer_norm(x, gain1, bias1))
    b, t, d = x.shape
    h = ad.reshape(x, (b * t, d))
    ff = linear(ad.gelu(linear(layer_norm(h, gain2, bias2), w1, b1)), w2, b2)
    out = x + ad.reshape(ff, (b, t, d))
    return out if read is None else ad.gather(out, (slice(None), read))


def compat(head, maps, x, y):
    """MLP_L(x) . MLP_R(y) / sqrt(d) for `maps`, a `CompatHead`'s `inside`
    or `outside` pair of maps."""
    ml, mr = maps
    return ad.tsum(residual_mlp(ml, x) * residual_mlp(mr, y), axis=-1) * (1.0 / np.sqrt(head.d))


def inside_scores(head, left, right, left_a, right_a):
    """`inside_outside.CompatHead.inside_scores_np` as a composite: a
    `compat` call under the inside maps and its adds."""
    return compat(head, head.inside, left, right) + left_a + right_a


def sibling_scores(head, parent, parent_b, left, right, left_a, right_a):
    """`inside_outside.CompatHead.sibling_scores_np` as a composite: two
    `compat` calls under the outside maps and their adds."""
    b_left = right_a + compat(head, head.outside, parent, right) + parent_b
    b_right = left_a + compat(head, head.outside, parent, left) + parent_b
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


def compose(params, slots, read=None):
    """`inside_outside.ComposeParams` as a composite on a (B, 3, d) slots
    tensor: the role add, then the block, whose last layer reads the slots
    `read` (all three when None)."""
    if slots.shape[-2:] != (3, params.d):
        raise ValueError(f"compose expects (*, 3, {params.d}) slots, got {slots.shape}")
    return block_read(params.block, slots + ad.reshape(params.roles, (1, 3, params.d)), read)


def softmax_pool(vecs, scores, pool):
    """`inside_outside._pool` as a composite: the (C, d) vectors and the (C,)
    expected scores of `pool`'s rows, as tensors."""
    pad = pool.pad
    if pool.mask is None:  # a one-candidate softmax weighs exactly 1
        idx = pad[:, 0]
        return ad.gather(vecs, idx), ad.gather(scores, idx)
    s = ad.gather(scores, pad)                                    # (C, W)
    w = ad.softmax(s + np.where(pool.keep, 0.0, -np.inf), axis=1)
    vec = ad.tsum(ad.reshape(w, w.shape + (1,)) * ad.gather(vecs, pad), axis=1)
    return vec, ad.tsum(w * s, axis=1)


def cio_layer(stack, l, x, prev_out, plan):
    """`inside_outside.CioStack.layer` as a composite: the per-op engine, each
    wave's gathers, compose, score and pool on the tape, and each arena
    grown by a concat per wave."""
    n, d = plan.n, stack.d
    dtype = x.data.dtype
    # ---- inside sweep: each batch's cells pool their splits' candidates
    arena = x
    scores = ad.Tensor(np.zeros(n, dtype=dtype))
    pair_scores = []
    for bp in plan.batches:
        left = ad.gather(arena, bp.pair_left)
        right = ad.gather(arena, bp.pair_right)
        parent_slot = ad.gather(prev_out, bp.pair_cell)
        composed = compose(stack.alpha[l], ad.stack([left, right, parent_slot], axis=1),
                           [inside_outside.ROLE_PARENT])
        composed = ad.reshape(composed, (len(bp.pair_cell), d))
        totals = inside_scores(stack.compat, left, right, ad.gather(scores, bp.pair_left),
                               ad.gather(scores, bp.pair_right))
        cell_vec, cell_score = softmax_pool(composed, totals, bp.split_pool)
        arena = ad.concat([arena, cell_vec], axis=0)
        scores = ad.concat([scores, cell_score], axis=0)
        pair_scores.append(totals.data)

    # ---- outside sweep ------------------------------------------------
    cand_v = ad.reshape(stack.roots[l], (1, d))
    cand_s = ad.Tensor(np.zeros(1, dtype=dtype))
    out_vecs, out_scores = [], []
    for bp in reversed(plan.batches):
        out_vec, out_b = softmax_pool(cand_v, cand_s, bp.parent_pool)
        out_vecs.append(out_vec)
        out_scores.append(out_b)
        # emit candidates: one compose per (parent, split) serves both
        # children through slots 0 and 1
        left = ad.gather(arena, bp.pair_left)
        right = ad.gather(arena, bp.pair_right)
        parent_out = ad.gather(out_vec, bp.pair_cell_pos)
        parent_b = ad.gather(out_b, bp.pair_cell_pos)
        y = compose(stack.beta[l], ad.stack([left, right, parent_out], axis=1),
                    [inside_outside.ROLE_LEFT, inside_outside.ROLE_RIGHT])
        cand_b = sibling_scores(
            stack.compat, parent_out, parent_b, left, right,
            ad.gather(scores, bp.pair_left), ad.gather(scores, bp.pair_right))
        cand_v = ad.concat([cand_v, y[:, 0, :], y[:, 1, :]], axis=0)  # y's left, right
        cand_s = ad.concat([cand_s, cand_b], axis=0)

    leaf_out, leaf_b = softmax_pool(cand_v, cand_s, plan.leaf_pool)
    return inside_outside.LayerState(
        inside=arena.data, inside_score=scores.data,
        outside=ad.concat([leaf_out] + out_vecs[::-1], axis=0),
        outside_score=ad.concat([leaf_b] + out_scores[::-1], axis=0).data,
        pair_scores=np.concatenate([np.zeros(0, dtype)] + pair_scores))


# each fused method and the composite that can stand in for it
FUSED = [(nn.TransformerLayer, "__call__", transformer_layer),
         (inside_outside.CioStack, "layer", cio_layer),
         (nn.BiLstm, "_run_direction", lstm_direction)]


def use_composites(monkeypatch) -> None:
    """Run every fused op as its composite until the test ends."""
    for owner, attr, composite in FUSED:
        monkeypatch.setattr(owner, attr, composite)
