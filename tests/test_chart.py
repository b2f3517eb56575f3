"""Schedule and chart structure tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartlm.chart import Schedule, validate_schedule
from chartlm.oracle import ParentEdge, parents_from_splits
from chartlm.pruning import build_cell_batches, prune_schedule, split_order


def _schedule(n, window=2, seed=0):
    scores = np.random.default_rng(seed).standard_normal(n - 1) if n > 1 else np.array([])
    order = split_order(scores, n)
    return build_cell_batches(prune_schedule(n, window, order))


def test_single_token_chart():
    sch = _schedule(1)
    assert sch.batches == [[(1, 1)]]
    assert sch.non_leaf_batches() == 0
    assert sch.ordered_spans() == [(1, 1)]


def test_two_token_chart():
    sch = _schedule(2)
    assert sch.batches == [[(1, 1), (2, 2)], [(1, 2)]]
    assert sch.splits[(1, 2)] == (1,)
    assert sch.root == (1, 2)
    assert sch.ordered_spans() == [(1, 1), (2, 2), (1, 2)]


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
    sch = build_cell_batches(prune_schedule(6, 2, split_order(scores, 6)))
    non_leaves = {s for b in sch.batches[1:] for s in b}
    assert sch.batches[-1] == [(1, 6)]
    validate_schedule(sch)
    assert non_leaves == {(2, 3), (4, 5), (1, 3), (2, 5), (4, 6), (2, 6), (1, 6)}
    assert sch.splits[(1, 6)] == (1, 3)
    assert sch.splits[(2, 6)] == (3, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 14), st.integers(2, 5), st.integers(0, 10 ** 6))
def test_schedule_validates_and_bounds_cells(n, m, seed):
    sch = _schedule(n, window=m, seed=seed)
    validate_schedule(sch)
    assert sch.cell_count() <= 2 * m * n
    assert sch.batches[-1] == [(1, n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10 ** 6))
def test_parent_split_roundtrip(n, seed):
    sch = _schedule(n, window=3, seed=seed)
    parents = parents_from_splits(sch.splits)
    # regenerate splits from parents and compare as sets
    back: dict = {}
    for child, edges in parents.items():
        for e in edges:
            back.setdefault(e.parent, set()).add(e.split)
    assert {s: set(ks) for s, ks in sch.splits.items()} == back
    # every scheduled non-root span has a parent edge
    non_leaves = {s for b in sch.batches[1:] for s in b}
    for span in non_leaves - {sch.root}:
        assert span in parents


def test_validate_schedule_rejects_unready_reference():
    sch = Schedule(n=2, batches=[[(1, 1), (2, 2)], [(1, 2)]], splits={})
    with pytest.raises(ValueError, match="no splits"):
        validate_schedule(sch)
    sch = Schedule(n=3,
                   batches=[[(1, 1), (2, 2), (3, 3)], [(1, 3)]],
                   splits={(1, 3): (2,)})  # (1,2) never scheduled
    with pytest.raises(ValueError, match="unready"):
        validate_schedule(sch)


def test_validate_schedule_rejects_duplicates_and_bad_spans():
    with pytest.raises(ValueError, match="twice"):
        validate_schedule(Schedule(
            n=2, batches=[[(1, 1), (2, 2)], [(1, 2)], [(1, 2)]],
            splits={(1, 2): (1,)}))
    with pytest.raises(ValueError, match="outside"):
        validate_schedule(Schedule(
            n=2, batches=[[(1, 1), (2, 2)], [(1, 3)]], splits={(1, 3): (1,)}))

