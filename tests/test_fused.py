"""Each fused op equals the tape composite it replaced (tests/composites.py):
to 1e-10 at float64, and bit for bit at float32 where inputs and parameters
are shared, which pins the rule that an input used k times is passed k
times."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composites
from chartlm import autodiff as ad
from chartlm import nn
from chartlm.autodiff import Parameter
from chartlm.inside_outside import CioStack, CompatHead, plan_engine, run_stack
from chartlm.model import ChartLM, ReCatConfig
from chartlm.pruning import (apply_nonsplittable, build_cell_batches, prune_schedule,
                             split_order, tree_schedule)
from chartlm.training import MASK_TOKEN, TrainConfig, Trainer, Vocab

TOL = 1e-10


def _perturbed(module, seed):
    """Move every parameter off its init (zero weights, unit gains), so no
    term of the VJP multiplies out to zero."""
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data = p.data + rng.standard_normal(p.data.shape).astype(p.data.dtype) * 0.3
    return module


def _run(build, inputs):
    """Forward value of `build()`, then every input's gradient of a random
    weighting of it."""
    for t in inputs:
        t.grad = None
    out = build()
    w = np.random.default_rng(99).standard_normal(out.shape).astype(out.data.dtype)
    ad.tsum(out * w).backward()
    return out.data, [t.grad for t in inputs]


def _assert_close(fused, composite, inputs):
    out_f, grads_f = _run(fused, inputs)
    out_c, grads_c = _run(composite, inputs)
    np.testing.assert_allclose(out_f, out_c, rtol=0, atol=TOL)
    for t, gf, gc in zip(inputs, grads_f, grads_c):
        assert gf is not None and gc is not None, getattr(t, "name", t)
        np.testing.assert_allclose(gf, gc, rtol=0, atol=TOL, err_msg=getattr(t, "name", ""))


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _assert_same_bits(fused, composite, inputs):
    out_f, grads_f = _run(fused, inputs)
    out_c, grads_c = _run(composite, inputs)
    assert _bits(out_f) == _bits(out_c)
    for t, gf, gc in zip(inputs, grads_f, grads_c):
        assert _bits(gf) == _bits(gc), getattr(t, "name", t)


def _assert_bit_identical(build, inputs, monkeypatch):
    def composite():
        with monkeypatch.context() as m:
            composites.use_composites(m)
            return build()

    _assert_same_bits(build, composite, inputs)


# ---------------------------------------------------------------------------
# float64: forward and every input's gradient
# ---------------------------------------------------------------------------

def _assert_block_close(b, t, depth, read):
    block = _perturbed(nn.AttentionBlock("blk", 8, 2, depth, np.random.default_rng(0)), 1)
    x = Parameter("x", np.random.default_rng(2).standard_normal((b, t, 8)))

    def composite():
        y = x
        for layer in block.layers[:-1]:
            y = composites.transformer_layer(layer, y)
        return composites.transformer_layer(block.layers[-1], y, read)

    _assert_close(lambda: composites.block_read(block, x, read), composite,
                  [x] + block.parameters())


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("b,t", [(1, 3), (5, 3), (1, 15)])
def test_transformer_layers_equal_the_composite(b, t, depth):
    _assert_block_close(b, t, depth, None)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("b,t,read", [(1, 3, [2]), (5, 3, [2]), (1, 3, [0, 1]),
                                      (5, 3, [0, 1]), (2, 15, [9, 3, 4])])
def test_transformer_layers_read_equals_the_composite_read(b, t, read, depth):
    # (1, 3, [2]) reads one row: the fused layer then runs every position
    _assert_block_close(b, t, depth, read)


@pytest.mark.parametrize("head", ["inside", "outside"])
@pytest.mark.parametrize("b", [1, 5, 15])
def test_compat_head_equals_the_composite(b, head):
    # each head's fused op on two vectors x, y; the outside head scores x
    # as the parent of y (left) and of x itself (right)
    compat = _perturbed(CompatHead("c", 8, np.random.default_rng(3)), 4)
    rng = np.random.default_rng(5)
    x = Parameter("x", rng.standard_normal((b, 8)))
    y = Parameter("y", rng.standard_normal((b, 8)))
    s, s_l, s_r = (Parameter(name, rng.standard_normal(b)) for name in ("s", "s_l", "s_r"))
    if head == "inside":
        name, args, inputs = "inside_scores", (x, y, s_l, s_r), [x, y, s_l, s_r]
    else:
        name, args, inputs = "sibling_scores", (x, s, y, x, s_l, s_r), [x, y, s, s_l, s_r]
    _assert_close(lambda: getattr(composites, "fused_" + name)(compat, *args),
                  lambda: getattr(composites, name)(compat, *args),
                  inputs + [p for m in getattr(compat, head) for p in m])


@pytest.mark.parametrize("b", [1, 5, 15])
def test_sibling_scores_equal_the_composite(b):
    compat = _perturbed(CompatHead("c", 8, np.random.default_rng(3)), 4)
    rng = np.random.default_rng(6)
    parent, left, right = (Parameter(name, rng.standard_normal((b, 8)))
                           for name in ("parent", "left", "right"))
    parent_b, left_a, right_a = (Parameter(name, rng.standard_normal(b))
                                 for name in ("parent_b", "left_a", "right_a"))
    args = (parent, parent_b, left, right, left_a, right_a)
    _assert_close(lambda: composites.fused_sibling_scores(compat, *args),
                  lambda: composites.sibling_scores(compat, *args),
                  list(args) + [p for m in compat.outside for p in m])


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [1, 2, 17])
def test_bilstm_direction_equals_the_composite(n, reverse):
    lstm = _perturbed(nn.BiLstm("b", din=5, hidden=3, rng=np.random.default_rng(6)), 7)
    x = Parameter("x", np.random.default_rng(8).standard_normal((n, 5)))
    cell = lstm.cells[int(reverse)]
    _assert_close(lambda: lstm._run_direction(x, cell, reverse),
                  lambda: composites.lstm_direction(lstm, x, cell, reverse),
                  [x, cell["wx"], cell["wh"], cell["b"]])


# ---------------------------------------------------------------------------
# float32, bit for bit: an input that feeds the op and another op, and a
# parameter that serves two calls
# ---------------------------------------------------------------------------

def _float32(module, seed):
    module = _perturbed(module, seed)
    module.astype(np.float32)
    return module


def _input(shape, seed):
    return Parameter("x", np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


def _assert_layer_bit_identical(b, read, monkeypatch):
    layer = _float32(nn.TransformerLayer("t", 8, 2, np.random.default_rng(10)), 11)
    x = _input((b, 3, 8), 12)

    def build(layer_read):
        u = x * 1.5
        if read is None:
            return layer(u) * u + layer(layer(u))
        return layer_read(layer, u, read) * u[:, read] + layer_read(layer, layer(u), read)

    def composite():
        with monkeypatch.context() as m:
            composites.use_composites(m)
            return build(composites.transformer_layer)

    _assert_same_bits(lambda: build(composites.layer_read), composite,
                      [x] + layer.parameters())


def test_transformer_layer_is_bit_identical_when_shared(monkeypatch):
    _assert_layer_bit_identical(3, None, monkeypatch)


@pytest.mark.parametrize("b,read", [(3, [2]), (1, [2]), (3, [0, 1]), (1, [0, 1])])
def test_transformer_layer_read_is_bit_identical_when_shared(b, read, monkeypatch):
    _assert_layer_bit_identical(b, read, monkeypatch)


def _assert_compat_bit_identical(build, compat, inputs):
    """`build(inside_scores, sibling_scores)` on the compatibility head's
    plain-array ops recorded as nodes, then on their composites."""
    _assert_same_bits(
        lambda: build(composites.fused_inside_scores, composites.fused_sibling_scores),
        lambda: build(composites.inside_scores, composites.sibling_scores),
        inputs + compat.parameters())


def test_compat_head_is_bit_identical_when_shared():
    # both heads on the same vectors, each vector on both sides of a score,
    # and score inputs that are reads of one shared tensor
    compat = _float32(CompatHead("c", 8, np.random.default_rng(13)), 14)
    x, y = _input((6, 8), 15), _input((6, 8), 16)
    a = _input((6,), 17)
    pick = np.arange(6)[::-1].copy()

    def build(inside_scores, sibling_scores):
        u, s = x * 1.5, a * a
        inside = (inside_scores(compat, u, y, s[:], ad.gather(s, pick))
                  + inside_scores(compat, y, u, a[:], s[:]) + ad.tsum(u * y, axis=-1))
        outside = (sibling_scores(compat, u, s[:], u, y, ad.gather(a, pick), s[:])
                   * inside_scores(compat, u, u, a[:], a[:])[0])
        return ad.concat([inside, outside], axis=0)

    _assert_compat_bit_identical(build, compat, [x, y, a])


@pytest.mark.parametrize("b", [1, 6])
def test_sibling_scores_are_bit_identical_when_shared(b):
    # as in the outside sweep, the score inputs are reads of shared scores,
    # and the vectors feed other ops too
    compat = _float32(CompatHead("c", 8, np.random.default_rng(13)), 14)
    x, y = _input((b, 8), 15), _input((b, 8), 16)
    a = _input((b,), 17)
    pick = np.arange(b)[::-1].copy()

    def build(_, sibling_scores):
        u, s = x * 1.5, a * a
        scores = sibling_scores(compat, u, ad.gather(s, pick), y, u, s[:], ad.gather(a, pick))
        again = sibling_scores(compat, y, ad.gather(a, pick), u, y, a[:], ad.gather(s, pick))
        return ad.concat([scores, again, ad.tsum(u * y, axis=-1) + s], axis=0)

    _assert_compat_bit_identical(build, compat, [x, y, a])


@pytest.mark.parametrize("n", [1, 2, 17])
def test_bilstm_is_bit_identical_when_shared(n, monkeypatch):
    lstm = _float32(nn.BiLstm("b", din=5, hidden=3, rng=np.random.default_rng(17)), 18)
    x = _input((n, 5), 19)

    def build():
        u = x * 1.5
        return lstm(u) + lstm(u * u) + ad.concat([u, u], axis=1)[:, :6]

    _assert_bit_identical(build, [x] + lstm.parameters(), monkeypatch)


@pytest.mark.parametrize("forward", ["forward_pretrain", "fast_encode"])
def test_model_step_is_bit_identical_to_the_composites(forward, monkeypatch):
    model = ChartLM(ReCatConfig(d=16, heads=2, parser_dim=8, parser_hidden=8),
                    np.random.default_rng(20))
    ids = np.array([3, 17, 5, 41, 8, 22, 9, 30, 12])
    masked = ids.copy()
    masked[[2, 6]] = 0
    params = model.parameters()

    def run():
        for p in params:
            p.grad = None
        out = getattr(model, forward)(ids, masked=masked, target_positions=np.array([2, 6]),
                                      target_ids=ids[[2, 6]], forbidden={4})
        (out.parser_loss + out.mlm_loss).backward()
        return [out.logits.data] + [p.grad for p in params]

    fused = run()
    with monkeypatch.context() as m:
        composites.use_composites(m)
        composite = run()
    for name, a, b in zip(["logits"] + [p.name for p in params], fused, composite):
        assert _bits(a) == _bits(b), name


@pytest.mark.parametrize("phase", ["masked", "fast"])
def test_train_step_is_bit_identical_to_the_composites(phase, monkeypatch):
    # a float32 step on a small corpus: the same record, and every gradient
    # the same bytes, signed zeros included
    vocab = Vocab([MASK_TOKEN] + [f"w{i}" for i in range(14)])
    rng = np.random.default_rng(23)
    corpus = [[f"w{int(i)}" for i in rng.integers(0, 14, size=rng.integers(1, 10))]
              for _ in range(12)]

    def step():
        model = ChartLM(ReCatConfig(d=16, heads=2, parser_dim=8, parser_hidden=8,
                                    vocab_size=len(vocab)), np.random.default_rng(24))
        trainer = Trainer(model, TrainConfig(seed=25, phase=phase, batch_tokens=48),
                          corpus, vocab)
        record = trainer.train_step(trainer.batches[0])
        del record["wall_ms"]
        return record, [(p.name, _bits(p.grad)) for p in model.parameters()]

    fused = step()
    with monkeypatch.context() as m:
        composites.use_composites(m)
        composite = step()
    assert fused[0] == composite[0]
    assert fused[1] == composite[1]


# ---------------------------------------------------------------------------
# the layer op against the per-op engine, on random charts
# ---------------------------------------------------------------------------

def _random_plan(n, window, forbidden, fast, rng):
    scores = apply_nonsplittable(rng.standard_normal(max(n - 1, 0)), forbidden)
    order = split_order(scores, n)
    if fast:
        return plan_engine(tree_schedule(n, order))
    return plan_engine(build_cell_batches(prune_schedule(n, window, order)))


def _layer_run(build, inputs, w):
    """A layer's four fields and pair scores, then every input's gradient of
    a w-weighted sum of `outside`, the one field with a gradient."""
    for t in inputs:
        t.grad = None
    state = build()
    assert all(isinstance(v, np.ndarray)
               for v in (state.inside, state.inside_score, state.outside_score))
    ad.tsum(state.outside * w).backward()
    return ([state.inside, state.inside_score, state.outside.data, state.outside_score,
             state.pair_scores], [t.grad for t in inputs])


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 6, 20]), window=st.sampled_from([2, 3, None]),
       fast=st.booleans(), share=st.booleans(), seed=st.integers(0, 10 ** 6),
       data=st.data())
def test_layer_op_equals_the_per_op_engine(n, window, fast, share, seed, data):
    # float64 to 1e-10 and float32 bit for bit: the four fields, the pair
    # scores, and the gradients of x, the parent slots and every weight, for
    # a loss over `outside`
    forbidden = set(data.draw(st.lists(st.integers(1, n - 1), max_size=n - 2), "forbidden")
                    if n > 2 else [])
    rng = np.random.default_rng(seed)
    if window is None:  # the full chart, where that stays small
        window = max(n, 2) if n < 8 else 3
    plan = _random_plan(n, window, forbidden, fast, rng)
    for dtype in (np.float64, np.float32):
        stack = _perturbed(CioStack("cio", 2, 8, 2, 1, share, np.random.default_rng(seed)),
                           seed + 1)
        stack.astype(dtype)
        rng = np.random.default_rng(seed + 2)
        x = Parameter("x", rng.standard_normal((n, 8)).astype(dtype))
        prev = Parameter("prev", rng.standard_normal((plan.rows, 8)).astype(dtype))
        w = rng.standard_normal((plan.rows, 8)).astype(dtype)
        inputs = [x, prev] + stack.parameters()
        fused = _layer_run(lambda: stack.layer(1, x, prev, plan), inputs, w)
        composite = _layer_run(lambda: composites.cio_layer(stack, 1, x, prev, plan), inputs, w)
        for a, b in zip(fused[0] + fused[1], composite[0] + composite[1]):
            assert (a is None) == (b is None)
            if a is None:
                continue
            if dtype == np.float32:
                assert _bits(a) == _bits(b)
            else:
                np.testing.assert_allclose(a, b, rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# the BLAS facts the fused transformer layer's read relies on, at float32
# ---------------------------------------------------------------------------

def _shapes(seed, count=60):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng, int(rng.integers(2, 97)), int(rng.choice([16, 64, 256])), \
            int(rng.choice([16, 64, 256]))


def test_row_subsets_of_a_product_keep_their_bits():
    for rng, n, k, m in _shapes(21):
        x = rng.standard_normal((n, k)).astype(np.float32)
        w = rng.standard_normal((k, m)).astype(np.float32)
        rows = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        assert (x[rows] @ w).tobytes() == (x @ w)[rows].tobytes(), (n, k, m, rows)


def test_weight_gradients_ignore_zero_rows():
    for rng, n, k, m in _shapes(22):
        x = rng.standard_normal((n, k)).astype(np.float32)
        g = rng.standard_normal((n, m)).astype(np.float32)
        nonzero = rng.random(n) < 0.5
        nonzero[int(rng.integers(n))] = True
        g[~nonzero] = 0.0
        assert (x[nonzero].T @ g[nonzero]).tobytes() == (x.T @ g).tobytes(), (n, k, m)
        assert g[nonzero].sum(axis=0).tobytes() == g.sum(axis=0).tobytes(), (n, m)


# ---------------------------------------------------------------------------
# tape size
# ---------------------------------------------------------------------------

# Nodes of one default-config forward_pretrain on the sentence below, counted
# from parser_loss + mlm_loss. The composites recorded 2337; the fused ops, 705;
# 655 once the outside sweep's two compat scores per pair became one node, 635
# once the inside sweep's score and its two adds did, 201 once each
# inside-outside layer did, and 199 once that node's one output was `outside`.
TAPE_NODES = 199


def test_forward_tape_stays_fused():
    model = ChartLM(ReCatConfig(), np.random.default_rng(0))
    ids = np.array([3, 17, 5, 41, 8, 22, 9, 30, 12, 1, 44, 6])
    out = model.forward_pretrain(ids, masked=ids, target_positions=np.array([2, 7]),
                                 target_ids=ids[[2, 7]])
    root = out.parser_loss + out.mlm_loss
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop()._prev:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    assert len(seen) <= TAPE_NODES


def _engine_nodes(n):
    """Recorded nodes between a sentence's leaf embeddings and its last
    layer's `outside`: the parameters and x are leaves, so they do not count."""
    stack = CioStack("cio", 2, 8, 2, 1, True, np.random.default_rng(26))
    x = Parameter("x", np.random.default_rng(27).standard_normal((n, 8)))
    plan = _random_plan(n, 2, set(), False, np.random.default_rng(28))
    seen = set()
    todo = [run_stack(x, stack, plan).final.outside]
    while todo:
        node = todo.pop()
        if id(node) not in seen and node._prev:
            seen.add(id(node))
            todo += node._prev
    return len(seen)


def test_engine_nodes_do_not_grow_with_the_sentence():
    # one node per layer, and outside0's reshape and broadcast
    assert _engine_nodes(4) == _engine_nodes(64) == 4
