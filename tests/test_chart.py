"""Chart structure tests: the waves `build_cell_batches` lays out, the checks
it owns, the plan `plan_engine` lowers them to, and the parent relation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartlm.inside_outside import plan_engine
from chartlm.oracle import ParentEdge, parents_from_splits
from chartlm.pruning import build_cell_batches, prune_schedule, split_order, tree_schedule
from chartlm.trees import descend


def _waves(n, window=2, seed=0):
    scores = np.random.default_rng(seed).standard_normal(n - 1) if n > 1 else np.array([])
    order = split_order(scores, n)
    return build_cell_batches(prune_schedule(n, window, order))


def _merged(waves):
    return {span: ks for wave in waves for span, ks in wave.items()}


def assert_chart_contract(waves, n):
    """What a chart must be before `plan_engine` lowers it: disjoint waves in
    sorted-span order, sorted splits inside their span, every read a leaf or a
    cell of an earlier wave, every non-root cell read by a later wave, and the
    root alone in the last wave."""
    root = (1, n)
    wave_of = {(i, i): 0 for i in range(1, n + 1)}
    for t, wave in enumerate(waves, 1):
        assert list(wave) == sorted(wave)
        for span in wave:
            assert span not in wave_of, span
            wave_of[span] = t
    for t, wave in enumerate(waves, 1):
        for (i, j), ks in wave.items():
            assert ks and list(ks) == sorted(ks) and i <= ks[0] and ks[-1] < j, ((i, j), ks)
            for k in ks:
                assert wave_of.get((i, k), t) < t and wave_of.get((k + 1, j), t) < t
    reads = {child for (i, j), ks in _merged(waves).items()
             for k in ks for child in ((i, k), (k + 1, j))}
    assert set(_merged(waves)) - reads <= {root}
    assert (list(waves[-1]) == [root]) if n > 1 else (waves == [])


def test_single_token_chart():
    assert _waves(1) == []
    plan = plan_engine([])
    assert (plan.n, plan.non_leaf_batches(), plan.spans) == (1, 0, [(1, 1)])


def test_two_token_chart():
    waves = _waves(2)
    assert waves == [{(1, 2): (1,)}]
    plan = plan_engine(waves)
    assert plan.n == 2
    assert plan.splits == {(1, 2): (1,)}
    assert plan.spans == [(1, 1), (2, 2), (1, 2)]


def test_parents_invert_splits_exactly():
    parents = parents_from_splits({(1, 2): (1,)})
    assert parents == {
        (1, 1): (ParentEdge((1, 2), 1, 0),),
        (2, 2): (ParentEdge((1, 2), 1, 1),),
    }
    assert parents_from_splits({}) == {}


def test_parent_edge_sibling():
    e0 = ParentEdge((2, 7), 4, 0)   # this child is (2,4)
    e1 = ParentEdge((2, 7), 4, 1)   # this child is (5,7)
    assert e0.sibling == (5, 7)
    assert e1.sibling == (2, 4)


def test_parents_reject_split_outside_span():
    with pytest.raises(ValueError, match="outside span"):
        parents_from_splits({(2, 4): (5,)})


def test_six_token_schedule_replay():
    # scores (0.9, 0.1, 0.8, 0.2, 0.7) decode to the tree (1 ((2 3) ((4 5) 6))).
    # Merge rounds by height: {2,4}, {5}, {3}, {1}. Window-2 seeds plus the
    # post-round unit ranges give candidates; reachability from the root then
    # keeps exactly these cells (derived by hand, frozen here).
    scores = np.array([0.9, 0.1, 0.8, 0.2, 0.7])
    waves = build_cell_batches(prune_schedule(6, 2, split_order(scores, 6)))
    assert_chart_contract(waves, 6)
    splits = _merged(waves)
    assert set(splits) == {(2, 3), (4, 5), (1, 3), (2, 5), (4, 6), (2, 6), (1, 6)}
    assert waves[-1] == {(1, 6): (1, 3)}
    assert splits[(2, 6)] == (3, 5)


def _forbidden_pick(forbidden, rng):
    """A random split of (i, j) that avoids `forbidden` unless every boundary
    of the span is forbidden, as `split_order` does after
    `apply_nonsplittable`."""
    def pick(i, j):
        allowed = [k for k in range(i, j) if k not in forbidden] or list(range(i, j))
        return int(rng.choice(allowed))
    return pick


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 40), st.sampled_from([2, 256])),
       st.integers(2, 5), st.integers(0, 10 ** 6), st.booleans())
def test_waves_keep_the_chart_contract_and_bound_the_rows(n, m, seed, tree):
    # build_cell_batches checks its input, not its output: this holds the
    # output to the contract plan_engine relies on; 256 is the default max_len
    rng = np.random.default_rng(seed)
    forbidden = {int(k) for k in rng.choice(np.arange(1, n), size=int(rng.integers(0, n)),
                                            replace=False)} if n > 1 else set()
    order = descend(n, _forbidden_pick(forbidden, rng))
    cells = {span: (k,) for span, k in order.items()} if tree else prune_schedule(n, m, order)
    waves = tree_schedule(n, order) if tree else build_cell_batches(cells)
    assert_chart_contract(waves, n)
    assert all(cells[span] == ks for span, ks in _merged(waves).items())
    plan = plan_engine(waves)
    assert plan.n == n and plan.splits == _merged(waves)
    assert plan.rows <= (2 * n - 1 if tree else 2 * m * n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10 ** 6))
def test_parent_split_roundtrip(n, seed):
    splits = _merged(_waves(n, window=3, seed=seed))
    parents = parents_from_splits(splits)
    # regenerate splits from parents and compare as sets
    back: dict = {}
    for child, edges in parents.items():
        for e in edges:
            back.setdefault(e.parent, set()).add(e.split)
    assert {s: set(ks) for s, ks in splits.items()} == back
    # every kept non-root span has a parent edge
    for span in set(splits) - {(1, n)}:
        assert span in parents


def test_build_cell_batches_rejects_no_splits_and_unready_reads():
    with pytest.raises(ValueError, match="no splits"):
        build_cell_batches({(1, 2): ()})
    with pytest.raises(ValueError, match=r"reads \(1, 2\), which is neither a leaf nor a cell"):
        build_cell_batches({(1, 3): (2,)})  # (1,2) is never a cell


def test_build_cell_batches_rejects_spans_outside_the_sentence():
    # a cell reaching past the last leaf reads a span that is not there
    with pytest.raises(ValueError, match=r"reads \(2, 3\), which is neither a leaf nor a cell"):
        build_cell_batches({(1, 3): (1,)})


def test_build_cell_batches_rejects_a_missing_root_and_bad_splits():
    with pytest.raises(ValueError, match="sentence span missing"):
        build_cell_batches({(1, 2): (1,), (2, 3): (2,)})
    with pytest.raises(ValueError, match=r"splits of \(1, 3\) not sorted"):
        build_cell_batches({(1, 2): (1,), (2, 3): (2,), (1, 3): (2, 1)})
    with pytest.raises(ValueError, match=r"splits \(3,\) of \(1, 3\) not inside it"):
        build_cell_batches({(1, 3): (3,)})


def test_a_cell_beside_the_root_is_dropped():
    # (2,3) would share the last wave with the root, where no later wave could
    # emit its parent candidate; nothing reads it, so it never reaches a plan
    waves = build_cell_batches({(1, 2): (1,), (1, 3): (2,), (2, 3): (2,)})
    assert waves == [{(1, 2): (1,)}, {(1, 3): (2,)}]
