"""Brute-force reference self-checks."""

import numpy as np
import pytest

from chartlm.inside_outside import CioStack
from oracle import ORACLE_MAX_N, best_tree_exhaustive, full_chart_reference


def _stack(seed=0, d=6, layers=1):
    return CioStack("cio", layers=layers, d=d, heads=2, depth=1, share=True,
                    rng=np.random.default_rng(seed))


def test_oracle_refuses_large_sentences():
    stack = _stack()
    with pytest.raises(ValueError, match="capped"):
        full_chart_reference(np.zeros((ORACLE_MAX_N + 1, 6)), stack)
    with pytest.raises(ValueError, match="capped"):
        best_tree_exhaustive({}, ORACLE_MAX_N + 1)
    with pytest.raises(ValueError, match="dim"):
        full_chart_reference(np.zeros((3, 5)), stack)


def test_oracle_two_tokens_by_hand():
    stack = _stack(seed=1)
    x = np.random.default_rng(2).standard_normal((2, 6))
    out = full_chart_reference(x, stack)
    layer = out.final
    np.testing.assert_array_equal(layer.inside[(1, 1)], x[0])
    assert layer.inside_score[(1, 1)] == 0.0
    # one split: the cell score is the bare compatibility of the two leaves
    from oracle import _compat_np
    assert layer.inside_score[(1, 2)] == pytest.approx(
        _compat_np(stack, "inside", x[0], x[1]), abs=1e-12)
    np.testing.assert_array_equal(layer.outside[(1, 2)], stack.roots[0].data)
    assert layer.split_scores[(1, 2)].shape == (1,)


def test_oracle_outside_scores_softmax_weighted():
    # b of a leaf is the softmax-weighted mean of its parent candidates'
    # scores; recompute one cell by hand from the oracle's own tables
    from chartlm.autodiff import softmax_np
    from oracle import _compat_np

    stack = _stack(seed=3)
    n = 4
    x = np.random.default_rng(4).standard_normal((n, 6))
    out = full_chart_reference(x, stack)
    layer = out.final
    span = (2, 2)
    cand = []
    for k in range(3, n + 1):  # right parents (2, k), sibling (3, k)
        cand.append(layer.inside_score[(3, k)]
                    + _compat_np(stack, "outside", layer.outside[(2, k)],
                                 layer.inside[(3, k)])
                    + layer.outside_score[(2, k)])
    cand.append(layer.inside_score[(1, 1)]
                + _compat_np(stack, "outside", layer.outside[(1, 2)],
                             layer.inside[(1, 1)])
                + layer.outside_score[(1, 2)])
    w = softmax_np(np.array(cand), axis=-1)
    assert layer.outside_score[span] == pytest.approx(float(w @ np.array(cand)),
                                                      abs=1e-9)


def test_best_tree_exhaustive_prefers_top_scores():
    # scores rigged so the greedy root-down choice is unambiguous
    split_scores = {
        (1, 3): np.array([5.0, 1.0]),   # root splits at 1
        (2, 3): np.array([0.0]),
        (1, 2): np.array([0.0]),
    }
    assert list(best_tree_exhaustive(split_scores, 3).items()) == [((1, 3), 1), ((2, 3), 2)]


def test_best_tree_exhaustive_tie_goes_left():
    split_scores = {
        (1, 3): np.array([2.0, 2.0]),
        (2, 3): np.array([0.0]),
        (1, 2): np.array([0.0]),
    }
    assert next(iter(best_tree_exhaustive(split_scores, 3).items())) == ((1, 3), 1)


def test_oracle_layers_chain():
    # layer l>0 must consume layer l-1 outside values: truncating the stack
    # to one layer changes the result
    stack2 = _stack(seed=5, layers=2)
    x = np.random.default_rng(6).standard_normal((3, 6))
    two = full_chart_reference(x, stack2)
    assert not np.allclose(two.layers[0].inside[(1, 3)],
                           two.layers[1].inside[(1, 3)])
