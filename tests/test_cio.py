"""Inside-outside engine tests against closed forms and the brute-force path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartlm import autodiff as ad
from chartlm import inside_outside
from chartlm.autodiff import Tensor
from chartlm.inside_outside import (ROLE_LEFT, ROLE_PARENT, ROLE_RIGHT,
                                    CioStack, ComposeParams, EngineStats,
                                    induce_order, plan_engine, run_stack)
from chartlm.pruning import (apply_nonsplittable, build_cell_batches,
                             prune_schedule, split_order, tree_schedule)
from chartlm.trees import format_sexpr, tree_from_splits
import composites
from oracle import (ORACLE_MAX_N, ParentEdge, best_tree_exhaustive,
                    cumulative_outside_reference, direct_outside_check,
                    full_chart_reference, parents_from_splits)


def _full_plan(n, seed=0):
    scores = np.random.default_rng(seed).standard_normal(max(n - 1, 0))
    return plan_engine(build_cell_batches(prune_schedule(n, max(n, 2), split_order(scores, n))))


def _stack(layers=1, d=8, seed=0, share=True, depth=1):
    return CioStack("cio", layers=layers, d=d, heads=2, depth=depth,
                    share=share, rng=np.random.default_rng(seed))


def _run(n, stack, seed=1, stats=None):
    x = Tensor(np.random.default_rng(seed).standard_normal((n, stack.d)))
    plan = _full_plan(n)
    return x, run_stack(x, stack, plan, stats=stats)


def compose(left, right, third, params, mode="inside", target_slot=None):
    """One composition of d-vectors; `third` fills the parent slot.

    Inside mode reads the parent slot; outside mode reads the slot of the
    child being contextualized (0 = left, 1 = right).
    """
    slots = ad.stack([ad.reshape(left, (1, params.d)),
                      ad.reshape(right, (1, params.d)),
                      ad.reshape(third, (1, params.d))], axis=1)
    out = composites.compose(params, slots)
    if mode == "inside":
        slot = ROLE_PARENT
    elif mode == "outside":
        if target_slot not in (ROLE_LEFT, ROLE_RIGHT):
            raise ValueError("outside compose needs target_slot 0 or 1")
        slot = target_slot
    else:
        raise ValueError(f"unknown compose mode {mode!r}")
    return ad.reshape(out[:, slot, :], (params.d,))


def compatibility(x, y, head_pair, head="inside"):
    """Scalar compatibility of two d-vectors under the head's `head` maps."""
    out = composites.compat(head_pair, getattr(head_pair, head),
                            ad.reshape(x, (1, head_pair.d)), ad.reshape(y, (1, head_pair.d)))
    return ad.reshape(out, ())


# ---------------------------------------------------------------------------
# composition function
# ---------------------------------------------------------------------------

def test_compose_depth0_returns_slot_plus_role():
    rng = np.random.default_rng(0)
    params = ComposeParams("c", d=6, heads=2, depth=0, rng=rng)
    l, r, p = (Tensor(rng.standard_normal(6)) for _ in range(3))
    np.testing.assert_allclose(
        compose(l, r, p, params, mode="inside").data,
        p.data + params.roles.data[ROLE_PARENT], atol=1e-12)
    np.testing.assert_allclose(
        compose(l, r, p, params, mode="outside", target_slot=ROLE_LEFT).data,
        l.data + params.roles.data[ROLE_LEFT], atol=1e-12)
    np.testing.assert_allclose(
        compose(l, r, p, params, mode="outside", target_slot=ROLE_RIGHT).data,
        r.data + params.roles.data[ROLE_RIGHT], atol=1e-12)
    slots = np.stack([v.data[None] for v in (l, r, p)], axis=1)
    np.testing.assert_array_equal(params(slots, [ROLE_RIGHT, ROLE_LEFT])[0],
                                  params(slots)[0][:, [ROLE_RIGHT, ROLE_LEFT]])


def test_compose_mode_errors():
    params = ComposeParams("c", 4, 2, 1, np.random.default_rng(1))
    v = Tensor(np.zeros(4))
    with pytest.raises(ValueError, match="target_slot"):
        compose(v, v, v, params, mode="outside")
    with pytest.raises(ValueError, match="mode"):
        compose(v, v, v, params, mode="sideways")
    with pytest.raises(ValueError, match="slots"):
        params(np.zeros((1, 2, 4)))


def test_compose_equal_roles_makes_children_exchangeable():
    # with identical role embeddings attention cannot tell left from right,
    # so the parent readout is symmetric in the children
    rng = np.random.default_rng(2)
    params = ComposeParams("c", d=6, heads=2, depth=1, rng=rng)
    params.roles.data[...] = params.roles.data[0]
    l, r, p = (Tensor(rng.standard_normal(6)) for _ in range(3))
    a = compose(l, r, p, params, mode="inside").data
    b = compose(r, l, p, params, mode="inside").data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_compose_role_embeddings_break_symmetry():
    rng = np.random.default_rng(3)
    params = ComposeParams("c", d=6, heads=2, depth=1, rng=rng)
    l, r, p = (Tensor(rng.standard_normal(6)) for _ in range(3))
    a = compose(l, r, p, params, mode="inside").data
    b = compose(r, l, p, params, mode="inside").data
    assert not np.allclose(a, b)


# ---------------------------------------------------------------------------
# compatibility score
# ---------------------------------------------------------------------------

def test_compat_at_init_is_scaled_dot():
    # residual maps start as the identity
    rng = np.random.default_rng(4)
    stack = _stack(d=4)
    e1 = Tensor(np.array([1.0, 0, 0, 0]))
    e2 = Tensor(np.array([0.0, 1, 0, 0]))
    assert float(compatibility(e1, e2, stack.compat).data) == pytest.approx(0.0)
    assert float(compatibility(e1, e1, stack.compat).data) == pytest.approx(0.5)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    got = float(compatibility(Tensor(x), Tensor(y), stack.compat, "outside").data)
    assert got == pytest.approx(float(x @ y) / 2.0, abs=1e-12)


def test_compat_heads_are_independent():
    stack = _stack(d=4, seed=5)
    for _, _, w2, _ in stack.compat.inside + stack.compat.outside:
        w2.data[...] = np.random.default_rng(6).standard_normal((4, 4)) * 0.3
    x = Tensor(np.ones(4))
    a = float(compatibility(x, x, stack.compat, "inside").data)
    b = float(compatibility(x, x, stack.compat, "outside").data)
    assert a != b


def test_compat_gradients():
    rng = np.random.default_rng(7)
    stack = _stack(d=4, seed=8)
    for p in stack.compat.parameters():
        if not p.data.any():
            p.data[...] = rng.standard_normal(p.data.shape) * 0.2
    x = Tensor(rng.standard_normal((3, 4)))
    y = Tensor(rng.standard_normal((3, 4)))
    a = Tensor(rng.standard_normal(3))
    # both fused ops: the inside totals of (x, y), and x's outside score as
    # y's parent from both sides
    report = ad.gradient_check(
        lambda: ad.tsum(composites.fused_inside_scores(stack.compat, x, y, a, a))
        + ad.tsum(composites.fused_sibling_scores(stack.compat, y, a, x, x, a, a)),
        stack.compat.parameters(), rng, samples_per_param=4)
    assert max(report.values()) < 1e-4


# ---------------------------------------------------------------------------
# candidate fold
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10 ** 6))
def test_incremental_fold_equals_direct_softmax(u, seed):
    rng = np.random.default_rng(seed)
    cands = rng.standard_normal((u, 5))
    scores = rng.standard_normal(u) * 3
    vec, total = cumulative_outside_reference(cands, scores)
    w = ad.softmax_np(scores, axis=-1)
    np.testing.assert_allclose(vec, w @ cands, atol=1e-12)
    assert total == pytest.approx(float(w @ scores), abs=1e-12)


def test_fold_single_candidate_is_identity():
    vec, total = cumulative_outside_reference(np.array([[1.0, 2.0]]), np.array([-3.0]))
    np.testing.assert_array_equal(vec, [1.0, 2.0])
    assert total == -3.0


# ---------------------------------------------------------------------------
# candidate pools and routing
# ---------------------------------------------------------------------------

_POOL = inside_outside._pool


def _pad_row_pool(vecs, scores, pool):
    """Reference pool: empty slots (those after a row's candidates, which
    repeat its first index) read an appended constant row instead, with a
    -inf score for the softmax and 0 in the weighted sums. Its VJP is the
    tape's for that composite, with the appended row's gradient dropped."""
    if pool.mask is None:
        return _POOL(vecs, scores, pool)
    idx = np.where(pool.keep, pool.pad, len(scores))

    def padded(values, fill):
        row = np.full((1,) + values.shape[1:], fill, dtype=values.dtype)
        return np.concatenate([values, row])[idx]

    s_inf, s_zero, v = padded(scores, -np.inf), padded(scores, 0.0), padded(vecs, 0.0)
    w = ad.softmax_np(s_inf, axis=1)
    w3 = w.reshape(w.shape + (1,))
    prod, ws = w3 * v, w * s_zero

    def scatter(g, values):
        full = np.zeros((len(values) + 1,) + values.shape[1:], dtype=values.dtype)
        np.add.at(full, idx, g)
        return full[:-1][pool.rows]

    def vjp(g_vec, g_score):
        g_w, g_s, g_rows = [], [], None
        if g_vec is not None:
            g_prod = np.array(np.broadcast_to(np.expand_dims(g_vec, 1), prod.shape), copy=True)
            g_w.append(ad._unbroadcast(g_prod * v, w3.shape).reshape(w.shape))
            g_rows = scatter(g_prod * w3, vecs)
        if g_score is not None:
            g_ws = np.array(np.broadcast_to(np.expand_dims(g_score, 1), ws.shape), copy=True)
            g_w.append(g_ws * s_zero)
            g_s.append(scatter(g_ws * w, scores))
        g_w = sum(g_w[1:], g_w[0].copy())
        g_s.append(scatter(w * (g_w - (g_w * w).sum(axis=1, keepdims=True)), scores))
        return g_rows, sum(g_s[1:], g_s[0].copy())

    return prod.sum(axis=1), ws.sum(axis=1), vjp


def _schedules():
    """Waves of pruned charts at several windows plus a tree's, per n."""
    for n in (1, 2, 5, 12, 40):
        order = split_order(np.random.default_rng(n).standard_normal(max(n - 1, 0)), n)
        for m in sorted({2, 3, max(n, 2)}):
            yield pytest.param(n, build_cell_batches(prune_schedule(n, m, order)),
                               id=f"n{n}-m{m}")
        yield pytest.param(n, tree_schedule(n, order), id=f"n{n}-tree")


@pytest.mark.parametrize("n, waves", list(_schedules()))
def test_stack_equals_pad_row_pooling_bit_for_bit(n, waves, monkeypatch):
    # duplicate-index padding must change no bit of any output or gradient
    def run(pool):
        monkeypatch.setattr(inside_outside, "_pool", pool)
        stack = _stack(layers=2, seed=36, share=False)
        rng = np.random.default_rng(37)
        for p in stack.parameters():
            p.data += rng.standard_normal(p.data.shape) * 0.1
        x = Tensor(rng.standard_normal((n, stack.d)), requires_grad=True)
        result = run_stack(x, stack, plan_engine(waves))
        loss = Tensor(np.zeros(()))
        arrays = []
        for state in result.layers:
            loss = loss + ad.tsum(state.outside * rng.standard_normal(state.outside.shape))
            arrays += [state.inside, state.inside_score, state.outside.data, state.outside_score]
        loss.backward()
        arrays.append(result.pair_scores)
        return arrays + [x.grad] + [p.grad for p in stack.parameters()]

    new = run(_POOL)
    ref = run(_pad_row_pool)
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        np.testing.assert_array_equal(a, b)


def _pool_entries(row):
    """A pad row's candidates: its first entry and every later one that does
    not repeat it; the repeats must all come last."""
    first = row[0]
    k = 1 + int(np.sum(row[1:] != first))
    assert np.all(row[k:] == first)
    return [int(r) for r in row[:k]]


def assert_plan_routes_each_parent_edge(waves):
    """Each cell's outside pool holds exactly its parent edges, the root's
    only entry is arena row 0."""
    # candidate-arena row 0 is the root; then each batch, last first, emits
    # one candidate per pair for the left child, then one for the right
    plan = plan_engine(waves)
    emitted = [None]
    for bp in reversed(plan.batches):
        for slot in (ROLE_LEFT, ROLE_RIGHT):
            emitted += [ParentEdge(plan.spans[c], plan.spans[left][1], slot)
                        for c, left in zip(bp.pair_cell, bp.pair_left)]
    pools = {plan.spans[r]: row for r, row in enumerate(plan.leaf_pool.pad)}
    for bp in plan.batches:
        assert bp.parent_pool.pad.shape[0] == len(bp.spans)
        pools.update(zip(bp.spans, bp.parent_pool.pad))
    assert sorted(pools) == sorted(plan.spans)
    edges = parents_from_splits(plan.splits)
    for span, row in pools.items():
        got = _pool_entries(row)
        if span == (1, plan.n):
            assert got == [0]
        else:
            assert len(set(got)) == len(got) and 0 not in got
            assert sorted((emitted[c] for c in got),
                          key=lambda e: (e.parent, e.split, e.slot)) == list(edges[span])


@pytest.mark.parametrize("n, waves", list(_schedules()))
def test_plan_routes_each_parent_edge_to_its_child(n, waves):
    assert_plan_routes_each_parent_edge(waves)


# ---------------------------------------------------------------------------
# engine vs brute force
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,layers,share", [(2, 1, True), (3, 2, True),
                                            (4, 2, False), (5, 3, True)])
def test_engine_matches_full_chart_reference(n, layers, share):
    stack = _stack(layers=layers, seed=n, share=share)
    x, result = _run(n, stack, seed=n + 100)
    oracle = full_chart_reference(x.data, stack)
    plan = result.plan
    worst = 0.0
    for l in range(layers):
        got = result.layers[l]
        ref = oracle.layers[l]
        for span, row in plan.row_of.items():
            worst = max(worst,
                        np.max(np.abs(got.inside[row] - ref.inside[span])),
                        abs(float(got.inside_score[row]) - ref.inside_score[span]),
                        np.max(np.abs(got.outside.data[row] - ref.outside[span])),
                        abs(float(got.outside_score[row]) - ref.outside_score[span]))
    assert worst < 1e-9
    # induced tree agrees with exhaustive search over the last layer's scores
    assert list(induce_order(result).items()) == list(best_tree_exhaustive(
        oracle.final.split_scores, n).items())


def test_engine_direct_outside_recomputation():
    stack = _stack(layers=2, seed=9)
    _, result = _run(6, stack, seed=10)
    assert direct_outside_check(result, stack) < 1e-9


@st.composite
def _chart_inputs(draw, min_n):
    """n, boundary scores, a float64 d = 8 stack of 1-2 layers (shared or
    not) and token vectors, for a sentence of min_n..ORACLE_MAX_N tokens."""
    n = draw(st.integers(min_n, ORACLE_MAX_N))
    scores = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n - 1, max_size=n - 1)))
    stack = _stack(layers=draw(st.integers(1, 2)), d=8, seed=draw(st.integers(0, 10 ** 6)),
                   share=draw(st.booleans()))
    x = Tensor(np.random.default_rng(draw(st.integers(0, 10 ** 6))).standard_normal((n, stack.d)))
    return n, scores, stack, x


# an n = 12, two-layer oracle takes about a second
@settings(max_examples=12, deadline=None)
@given(_chart_inputs(min_n=1), st.integers(0, 2))
def test_engine_equals_the_oracle_at_any_full_window(inputs, extra):
    n, scores, stack, x = inputs
    window = max(n, 2) + extra
    result = run_stack(x, stack, plan_engine(build_cell_batches(
        prune_schedule(n, window, split_order(scores, n)))))
    oracle = full_chart_reference(x.data, stack)
    for got, ref in zip(result.layers, oracle.layers):
        for span, row in result.plan.row_of.items():
            np.testing.assert_allclose(got.inside[row], ref.inside[span], atol=1e-6)
            np.testing.assert_allclose(got.outside.data[row], ref.outside[span], atol=1e-6)
            assert abs(float(got.inside_score[row]) - ref.inside_score[span]) <= 1e-6
            assert abs(float(got.outside_score[row]) - ref.outside_score[span]) <= 1e-6
    assert list(induce_order(result).items()) == list(best_tree_exhaustive(
        oracle.final.split_scores, n).items())


@settings(max_examples=30, deadline=None)
@given(_chart_inputs(min_n=3), st.data())
def test_pruned_engine_pools_outside_directly_and_splits_words_last(inputs, data):
    n, scores, stack, x = inputs
    window = data.draw(st.integers(2, n - 1))
    forbidden = set(data.draw(st.lists(st.integers(1, n - 1), max_size=n - 2, unique=True)))
    masked = apply_nonsplittable(scores, forbidden)
    result = run_stack(x, stack, plan_engine(build_cell_batches(
        prune_schedule(n, window, split_order(masked, n)))))
    assert direct_outside_check(result, stack) <= 1e-9
    splits = result.plan.splits
    for span, k in induce_order(result, forbidden).items():
        assert k not in forbidden or set(splits[span]) <= forbidden, (span, k, splits[span])


def test_tree_schedule_outside_rows_are_the_single_candidate():
    # in a tree schedule every cell has one split and every non-root cell one
    # parent path, so its outside row is that path's candidate, bit for bit:
    # the same batched compose and score, with no softmax in between
    stack = _stack(layers=2, seed=33)
    n = 7
    order = split_order(np.random.default_rng(34).standard_normal(n - 1), n)
    plan = plan_engine(tree_schedule(n, order))
    x = Tensor(np.random.default_rng(35).standard_normal((n, stack.d)))
    result = run_stack(x, stack, plan)
    checked = 0
    for l, state in enumerate(result.layers):
        inside, a = state.inside, state.inside_score
        outside, b = state.outside.data, state.outside_score
        for bp in plan.batches:
            left, right = Tensor(inside[bp.pair_left]), Tensor(inside[bp.pair_right])
            parent = Tensor(outside[bp.pair_cell])
            y = stack.beta[l](np.stack([left.data, right.data, parent.data], axis=1))[0]
            b_left = a[bp.pair_right] \
                + composites.compat(stack.compat, stack.compat.outside, parent, right).data \
                + b[bp.pair_cell]
            b_right = a[bp.pair_left] \
                + composites.compat(stack.compat, stack.compat.outside, parent, left).data \
                + b[bp.pair_cell]
            np.testing.assert_array_equal(outside[bp.pair_left], y[:, ROLE_LEFT])
            np.testing.assert_array_equal(outside[bp.pair_right], y[:, ROLE_RIGHT])
            np.testing.assert_array_equal(b[bp.pair_left], b_left)
            np.testing.assert_array_equal(b[bp.pair_right], b_right)
            checked += 2 * len(bp.pair_left)
    assert checked == stack.num_layers * 2 * (n - 1)  # every non-root cell
    # without a softmax the vectors never reach the scores' compat head
    ad.tsum(result.final.outside).backward()
    assert all(p.grad is None for p in stack.compat.parameters())


def test_leaf_conventions():
    stack = _stack(layers=2, seed=11)
    x, result = _run(3, stack, seed=12)
    for l, state in enumerate(result.layers):
        # leaves keep their embedding and zero score on every layer
        np.testing.assert_array_equal(state.inside[:3], x.data)
        np.testing.assert_array_equal(state.inside_score[:3], 0.0)
        # the root's outside is the layer's learned vector with zero score
        root_row = result.plan.row_of[(1, 3)]
        np.testing.assert_array_equal(state.outside.data[root_row],
                                      stack.roots[l].data)
        assert float(state.outside_score[root_row]) == 0.0


def test_layers_differ():
    stack = _stack(layers=2, seed=13)
    _, result = _run(4, stack, seed=14)
    a, b = result.layers
    assert not np.allclose(a.outside.data, b.outside.data)


def test_changing_one_token_moves_every_final_vector():
    # contextualization: by the final layer of a 2-layer stack, every span
    # has mixed in information from the whole sentence
    stack = _stack(layers=2, seed=15)
    n = 4
    plan = _full_plan(n)
    base = np.random.default_rng(16).standard_normal((n, stack.d))
    bumped = base.copy()
    bumped[2] += 0.5
    r0 = run_stack(Tensor(base), stack, plan)
    r1 = run_stack(Tensor(bumped), stack, plan)
    f0, f1 = r0.final, r1.final
    for span, row in plan.row_of.items():
        if span != (1, n):  # the root's outside is a learned constant
            assert not np.allclose(f0.outside.data[row], f1.outside.data[row]), span
        if span[0] < span[1] and not (span[0] <= 3 <= span[1]):
            # inside at layer 0 is local, but by the last layer the previous
            # outside has leaked the change into every composition (leaves
            # keep their raw embedding throughout, so only check non-leaves)
            assert not np.allclose(f0.inside[row], f1.inside[row]), span
    # layer-0 inside of spans not covering the changed token is untouched
    l0, l1 = r0.layers[0], r1.layers[0]
    row12 = plan.row_of[(1, 2)]
    np.testing.assert_array_equal(l0.inside[row12], l1.inside[row12])


def test_single_split_cell_weight_is_one():
    # a one-candidate softmax cannot reweight: the cell vector equals the
    # composed pair and the score is compat + children scores exactly
    stack = _stack(layers=1, seed=17)
    x, result = _run(2, stack, seed=18)
    state = result.final
    row = result.plan.row_of[(1, 2)]
    with ad.no_grad():
        direct = compose(Tensor(x.data[0]), Tensor(x.data[1]),
                         Tensor(np.asarray(stack.outside0.data)),
                         stack.alpha[0], mode="inside").data
        score = float(compatibility(Tensor(x.data[0]), Tensor(x.data[1]),
                                    stack.compat).data)
    np.testing.assert_allclose(state.inside[row], direct, atol=1e-12)
    assert float(state.inside_score[row]) == pytest.approx(score, abs=1e-12)


def test_equal_candidates_average():
    # duplicate token embeddings make both splits of the top cell identical,
    # so the fold must return the common composed vector unchanged
    stack = _stack(layers=1, seed=19)
    n = 3
    plan = _full_plan(n)
    v = np.random.default_rng(20).standard_normal(stack.d)
    x = Tensor(np.stack([v, v, v]))
    result = run_stack(x, stack, plan)
    state = result.final
    row12 = plan.row_of[(1, 2)]
    row23 = plan.row_of[(2, 3)]
    np.testing.assert_allclose(state.inside[row12], state.inside[row23],
                               atol=1e-12)
    r = plan.row_of[(1, 3)]
    w = result.pair_scores[plan.pair_offset[r]:plan.pair_offset[r + 1]]
    assert w[0] == pytest.approx(w[1], abs=1e-12)


# ---------------------------------------------------------------------------
# tree induction and counters
# ---------------------------------------------------------------------------

def test_induce_trivial_sizes():
    stack = _stack(layers=1, seed=21)
    x = Tensor(np.random.default_rng(22).standard_normal((1, stack.d)))
    result = run_stack(x, stack, _full_plan(1))
    assert induce_order(result) == {}
    assert format_sexpr(tree_from_splits(induce_order(result), ["w1"])) == "(w1)"

    _, r2 = _run(2, stack, seed=23)
    assert list(induce_order(r2).items()) == [((1, 2), 1)]


def test_stats_counters_minimal_case():
    stack = _stack(layers=1, seed=24)
    stats = EngineStats()
    _run(2, stack, seed=25, stats=stats)
    # one (parent, split) pair inside + one serving both children outside
    assert stats.pairs_composed == 2
    assert stats.cells_encoded == 1  # non-leaf cells composed this layer
    assert stats.batched_calls == 2


def test_stats_scale_with_layers():
    s1, s2 = EngineStats(), EngineStats()
    _run(4, _stack(layers=1, seed=26), seed=27, stats=s1)
    _run(4, _stack(layers=2, seed=26), seed=27, stats=s2)
    assert s2.pairs_composed == 2 * s1.pairs_composed
    assert s2.cells_encoded == 2 * s1.cells_encoded
    assert s2.batched_calls == 2 * s1.batched_calls


def test_run_stack_rejects_bad_input_shape():
    stack = _stack(layers=1, seed=28)
    plan = _full_plan(3)
    with pytest.raises(ValueError, match="leaf embeddings"):
        run_stack(Tensor(np.zeros((2, stack.d))), stack, plan)


def test_engine_gradients_flow_to_all_groups():
    rng = np.random.default_rng(29)
    stack = _stack(layers=1, d=4, seed=30, depth=1)
    for p in stack.parameters():
        if not p.data.any():
            p.data[...] = rng.standard_normal(p.data.shape) * 0.1
    plan = _full_plan(3)
    x = Tensor(rng.standard_normal((3, 4)))
    result = run_stack(x, stack, plan)
    state = result.final
    ad.tsum(state.outside * rng.standard_normal(state.outside.shape)).backward()
    for p in stack.parameters():
        assert p.grad is not None and np.any(p.grad != 0), p.name
