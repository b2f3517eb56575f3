"""Parser scoring, top-down decoding, and chart pruning tests."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartlm import autodiff as ad
from chartlm.autodiff import Tensor
from chartlm.inside_outside import plan_engine
from chartlm.pruning import (BoundaryScorer, apply_nonsplittable, build_cell_batches,
                             merge_rounds, parser_nll, prune_schedule, split_order,
                             tree_schedule)
from chartlm.trees import descend, format_sexpr, leaves, tree_from_splits
from oracle import in_order
from test_chart import assert_chart_contract
from test_cio import assert_plan_routes_each_parent_edge


def _tokens(n):
    return [f"w{i}" for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# boundary scorer
# ---------------------------------------------------------------------------

def test_scorer_shapes():
    scorer = BoundaryScorer("p", vocab_size=10, emb_dim=8, hidden=6,
                            rng=np.random.default_rng(0))
    assert scorer(np.array([3])).shape == (0,)
    assert scorer(np.array([3, 4])).shape == (1,)
    assert scorer(np.array([1, 2, 3, 4, 5])).shape == (4,)


def test_scorer_is_deterministic():
    scorer = BoundaryScorer("p", 10, 8, 6, np.random.default_rng(1))
    ids = np.array([1, 2, 3, 4])
    np.testing.assert_array_equal(scorer(ids).data, scorer(ids).data)


def test_scorer_rejects_bad_ids():
    scorer = BoundaryScorer("p", 10, 8, 6, np.random.default_rng(2))
    with pytest.raises(ValueError, match="out of range"):
        scorer(np.array([0, 10]))
    with pytest.raises(ValueError, match="non-empty"):
        scorer(np.array([], dtype=int))


# ---------------------------------------------------------------------------
# non-splittable boundaries
# ---------------------------------------------------------------------------

def test_nonsplittable_noop_when_empty():
    scores = np.array([1.0, 2.0, 3.0])
    out = apply_nonsplittable(scores, set())
    np.testing.assert_array_equal(out, scores)


def test_nonsplittable_masks_requested_boundaries():
    out = apply_nonsplittable(np.array([1.0, 2.0, 3.0]), {2})
    np.testing.assert_array_equal(out, [1.0, -np.inf, 3.0])


def test_nonsplittable_all_forbidden_raises():
    with pytest.raises(ValueError, match="no admissible tree"):
        apply_nonsplittable(np.array([1.0, 2.0]), {1, 2})


def test_nonsplittable_taped_gradient_reaches_admissible():
    p = ad.Parameter("s", np.array([1.0, 2.0, 3.0]))
    masked = apply_nonsplittable(p, {2})
    np.testing.assert_array_equal(masked.data, [1.0, -np.inf, 3.0])
    ad.tsum(ad.softmax(masked, axis=0) * np.array([1.0, 0.0, -1.0])).backward()
    assert p.grad is not None and p.grad[0] != 0.0 and p.grad[2] != 0.0


def test_forced_order_avoids_forbidden_boundary():
    # n=3 with boundary 2 forbidden: the tree must split at 1 first
    scores = apply_nonsplittable(np.array([0.1, 5.0]), {2})
    order = split_order(scores, 3)
    assert list(order.values()) == [1, 2]
    assert next(iter(order)) == (1, 3)
    # the forced inner move spans (2,3) whose only boundary is -inf
    assert parser_nll(Tensor(scores), order).item() == pytest.approx(0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10 ** 6))
def test_random_forbidden_still_yields_full_tree(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n - 1)
    forbidden = {int(k) for k in rng.choice(np.arange(1, n), size=(n - 1) // 2,
                                            replace=False)}
    if forbidden >= set(range(1, n)):
        forbidden.pop()
    masked = apply_nonsplittable(scores, forbidden)
    order = split_order(masked, n)
    tree = tree_from_splits(order, _tokens(n))
    assert [l.token for l in leaves(tree)] == _tokens(n)
    assert len(order) == n - 1


# ---------------------------------------------------------------------------
# top-down decoding
# ---------------------------------------------------------------------------

def test_split_order_increasing_scores():
    order = split_order(np.array([0.1, 0.2, 0.3]), 4)
    assert list(order.values()) == [3, 2, 1]
    assert list(order) == [(1, 4), (1, 3), (1, 2)]


def test_split_order_reference_case():
    # descending-score sequence 3, 4, 2, 5, 1
    scores = np.array([0.1, 0.6, 1.0, 0.8, 0.4])
    order = split_order(scores, 6)
    assert list(order.values()) == [3, 4, 2, 5, 1]
    assert next(iter(order)) == (1, 6)
    tree = tree_from_splits(order, _tokens(6))
    assert format_sexpr(tree) == "(X (X (X w1 w2) w3) (X w4 (X w5 w6)))"


def test_split_order_tie_prefers_smaller_boundary():
    order = split_order(np.zeros(3), 4)
    assert next(iter(order.values())) == 1


def test_split_order_trivial_sizes():
    assert split_order(np.array([]), 1) == {}
    assert list(split_order(np.array([2.0]), 2).items()) == [((1, 2), 1)]
    with pytest.raises(ValueError, match="boundary scores"):
        split_order(np.array([1.0, 2.0]), 2)


def _recursive_argmax(scores, i, j, out):
    if j <= i:
        return
    seg = scores[i - 1:j - 1]
    k = i + int(np.argmax(seg))
    out.append((k, (i, j)))
    _recursive_argmax(scores, i, k, out)
    _recursive_argmax(scores, k + 1, j, out)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10 ** 6))
def test_split_order_matches_recursive_argmax(n, seed):
    scores = np.random.default_rng(seed).standard_normal(n - 1)
    order = split_order(scores, n)
    ref: list = []
    _recursive_argmax(scores, 1, n, ref)
    assert {(k, span) for span, k in order.items()} == set(ref)
    # emission is sorted by descending chosen score
    chosen = [scores[k - 1] for k in order.values()]
    assert chosen == sorted(chosen, reverse=True)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10 ** 6))
def test_split_order_invariant_to_monotone_transform(n, seed):
    scores = np.random.default_rng(seed).standard_normal(n - 1)
    a = split_order(scores, n)
    b = split_order(3.0 * scores + 7.0, n)
    assert list(a.items()) == list(b.items())


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10 ** 6))
def test_split_order_spans_nest(n, seed):
    scores = np.random.default_rng(seed).standard_normal(n - 1)
    order = split_order(scores, n)
    seen = {(1, n)}
    for (i, j), k in order.items():
        assert (i, j) in seen  # parents always decided before children
        seen.add((i, k))
        seen.add((k + 1, j))


def test_long_chain_tree_needs_no_recursion():
    # a right-branching chain is as deep as the sentence is long
    n = 1100
    order = split_order(np.arange(n - 1, 0, -1, dtype=float), n)
    nodes = in_order(tree_from_splits(order, _tokens(n)))
    expect = [span for i in range(1, n) for span in ((i, i), (i, n))] + [(n, n)]
    assert [node.span for node in nodes] == expect
    assert [node.token for node in nodes if node.is_leaf] == _tokens(n)


# ---------------------------------------------------------------------------
# parser NLL
# ---------------------------------------------------------------------------

def test_parser_nll_uniform_closed_form():
    # every node contributes ln(number of boundaries in its span)
    order = split_order(np.array([0.0, 1.0]), 3)
    nll = parser_nll(Tensor(np.zeros(2)), order).item()
    assert nll == pytest.approx(np.log(2), abs=1e-12)


def test_parser_nll_saturated_scores_approach_zero():
    scores = np.array([100.0, 0.0, -100.0])
    order = split_order(scores, 4)
    assert parser_nll(Tensor(scores), order).item() == pytest.approx(0.0, abs=1e-12)


def test_parser_nll_rejects_forbidden_target():
    order = {(1, 3): 2}
    with pytest.raises(ValueError, match="forbidden"):
        parser_nll(Tensor(np.array([0.0, -np.inf])), order)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10 ** 6))
def test_parser_nll_matches_stable_softmax_oracle(n, seed):
    scores = np.random.default_rng(seed).standard_normal(n - 1) * 5
    order = split_order(scores, n)
    expect = 0.0
    for (i, j), k in order.items():
        seg = scores[i - 1:j - 1]
        expect -= np.log(ad.softmax_np(seg)[k - i])
    got = parser_nll(Tensor(scores), order).item()
    assert got == pytest.approx(expect, abs=1e-9)


def test_parser_nll_taped_gradient():
    rng = np.random.default_rng(5)
    p = ad.Parameter("s", rng.standard_normal(5))
    order = split_order(p.data, 6)
    report = ad.gradient_check(lambda: parser_nll(p, order), [p], rng,
                               samples_per_param=5)
    assert max(report.values()) < 1e-6


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_full_chart_when_window_covers_sentence():
    for n in range(2, 9):
        order = split_order(np.arange(n - 1, dtype=float), n)
        result = prune_schedule(n, n, order)
        # every span of width >= 2 with all splits: classic cubic chart
        expect = {(i, j): tuple(range(i, j))
                  for w in range(2, n + 1) for i in range(1, n - w + 2)
                  for j in [i + w - 1]}
        assert result == expect


def test_prune_reference_replay():
    scores = np.array([0.1, 0.6, 1.0, 0.8, 0.4])
    order = split_order(scores, 6)
    rounds = merge_rounds(order)
    assert rounds == [[1, 5], [2, 4], [3]]
    assert [k for group in rounds for k in group] == [1, 5, 2, 4, 3]
    result = prune_schedule(6, 2, order)
    # post-descent cells spanning three ragged units keep the unit boundaries
    assert result[(1, 4)] == (2, 3)
    assert result[(3, 6)] == (3, 4)
    assert result[(1, 6)] == (3,)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.data())
def test_merge_rounds_replay_every_node_after_its_children(n, data):
    order = descend(n, lambda i, j: data.draw(st.integers(i, j - 1)))
    rounds = merge_rounds(order)
    round_of = {k: r for r, group in enumerate(rounds) for k in group}
    assert sorted(round_of) == list(range(1, n))  # each boundary exactly once
    assert sum(map(len, rounds)) == n - 1
    for (i, j), k in order.items():
        for child in ((i, k), (k + 1, j)):
            if child in order:
                assert round_of[order[child]] < round_of[k]
    for window in (2, 3, 4):
        prune_schedule(n, window, order)


def test_prune_rejects_bad_arguments():
    with pytest.raises(ValueError, match="window"):
        prune_schedule(4, 1, split_order(np.zeros(3), 4))
    with pytest.raises(ValueError, match=">= 1"):
        prune_schedule(0, 2, {})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(2, 4), st.integers(0, 10 ** 6))
def test_pruned_schedule_is_valid_and_linear(n, m, seed):
    scores = np.random.default_rng(seed).standard_normal(max(n - 1, 0))
    order = split_order(scores, n)
    result = prune_schedule(n, m, order)
    waves = build_cell_batches(result)
    assert_chart_contract(waves, n)
    plan = plan_engine(waves)
    assert plan.rows <= 2 * m * n
    for span, ks in plan.splits.items():
        assert len(ks) <= m  # per-cell split sets stay within the window
    if n > 1:
        # the top split merges last, so it is a unit boundary in any range
        # that first covers the whole sentence
        assert next(iter(order.values())) in plan.splits[(1, n)]


def test_chain_tree_schedule_cannot_batch():
    n = 8
    order = split_order(np.arange(n - 1, 0, -1, dtype=float), n)
    assert list(order.values()) == list(range(1, n))  # right-branching chain
    waves = build_cell_batches(prune_schedule(n, 2, order))
    assert_chart_contract(waves, n)
    # a maximally unbalanced tree serializes: each suffix span waits on the next
    assert len(waves) >= n - 1


def test_balanced_scores_decode_to_the_midpoint_tree():
    from oracle import balanced_scores
    from chartlm.trees import descend
    for n in range(1, 130):
        order = split_order(balanced_scores(n), n)
        assert order == descend(n, lambda i, j: (i + j) // 2)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_balanced_schedule_batches_logarithmically(n):
    from oracle import balanced_scores
    waves = build_cell_batches(prune_schedule(n, 2, split_order(balanced_scores(n), n)))
    assert plan_engine(waves).rows <= 2 * 2 * n
    assert len(waves) <= 1 + 2 * int(np.ceil(np.log2(n)))
    assert list(waves[-1]) == [(1, n)]


def test_tree_schedule_is_minimal():
    order = split_order(np.array([0.3, 0.9, 0.5]), 4)
    waves = tree_schedule(4, order)
    assert_chart_contract(waves, 4)
    splits = [ks for wave in waves for ks in wave.values()]
    assert len(splits) == 3  # exactly n-1 cells, one split each
    assert all(len(ks) == 1 for ks in splits)


@pytest.mark.parametrize("n, order", [
    (5, {}),
    (5, {(1, 4): 2, (1, 2): 1, (3, 4): 3}),
    (1, {(1, 2): 1}),
], ids=["empty", "short", "long"])
def test_tree_schedule_rejects_a_map_that_is_not_the_sentence(n, order):
    with pytest.raises(ValueError, match=f"not a sentence of {n} tokens"):
        tree_schedule(n, order)


# ---------------------------------------------------------------------------
# references: the best-first heap decoder and the drop-until-stable batcher
# ---------------------------------------------------------------------------

def _heap_split_order(scores, n):
    v = np.asarray(scores, dtype=np.float64)
    heap, order = [], []

    def push(i, j):
        if j > i:
            seg = v[i - 1:j - 1]
            k = i + int(np.argmax(seg))
            heapq.heappush(heap, (-float(seg[k - i]), k, i, j))

    push(1, n)
    while heap:
        _, k, i, j = heapq.heappop(heap)
        order.append(((i, j), k))
        push(i, k)
        push(k + 1, j)
    return order


def _drop_loop_batches(n, cells):
    root = (1, n)
    kept = dict(cells)
    changed = True
    while changed:
        changed = False
        referenced = set()
        for (i, j), splits in kept.items():
            for k in splits:
                referenced.add((i, k))
                referenced.add((k + 1, j))
        for span in list(kept):
            if span != root and span not in referenced:
                del kept[span]
                changed = True
    ready = {(i, i) for i in range(1, n + 1)}
    waves = []
    pending = dict(kept)
    while pending:
        wave = sorted(span for span, splits in pending.items()
                      if all((span[0], k) in ready and (k + 1, span[1]) in ready
                             for k in splits))
        assert wave, "cyclic or unsatisfiable cell dependencies"
        waves.append({span: kept[span] for span in wave})
        ready.update(wave)
        for span in wave:
            del pending[span]
    return waves


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(2, 6), st.integers(0, 10 ** 6),
       st.booleans(), st.booleans())
def test_sort_and_ordered_passes_match_the_references(n, m, seed, ties, forbid):
    rng = np.random.default_rng(seed)
    # small integer scores tie often; ties must break the same way
    scores = (rng.integers(-2, 3, n - 1).astype(float) if ties
              else rng.standard_normal(n - 1))
    if forbid and n > 2:
        size = int(rng.integers(1, n - 1))  # leaves at least one boundary
        scores = apply_nonsplittable(scores, {int(k) for k in rng.choice(
            np.arange(1, n), size=size, replace=False)})
    order = split_order(scores, n)
    assert list(order.items()) == _heap_split_order(scores, n)
    tree_cells = {span: (k,) for span, k in order.items()}
    for got, cells in ((build_cell_batches(prune_schedule(n, m, order)),
                        prune_schedule(n, m, order)),
                       (tree_schedule(n, order), tree_cells)):
        want = _drop_loop_batches(n, cells)
        assert [list(wave.items()) for wave in got] == [list(wave.items()) for wave in want]
        assert_chart_contract(got, n)
        assert_plan_routes_each_parent_edge(got)


def test_split_child_neither_leaf_nor_cell_is_value_error():
    cells = {(1, 4): (2,), (3, 4): (3,)}
    with pytest.raises(ValueError, match=r"\(1, 2\), which is neither a leaf nor a cell"):
        build_cell_batches(cells)
