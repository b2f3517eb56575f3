"""Tree structure and s-expression serialization tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartlm import trees
from chartlm.trees import (assign_spans, branch, descend, format_sexpr, in_order, leaf,
                           leaves, left_branching, node_count, parse_sexpr,
                           random_binary, right_branching, tree_from_splits, walk)


def _tokens(n):
    return [f"w{i}" for i in range(1, n + 1)]


def test_single_word_round_trip():
    t = left_branching(["hello"])
    assert t.is_leaf and t.span == (1, 1)
    assert format_sexpr(t) == "(hello)"
    back = parse_sexpr("(hello)")
    assert back.is_leaf and back.token == "hello"


def test_left_right_branching_shapes():
    lt = left_branching(_tokens(4))
    rt = right_branching(_tokens(4))
    assert format_sexpr(lt) == "(X (X (X w1 w2) w3) w4)"
    assert format_sexpr(rt) == "(X w1 (X w2 (X w3 w4)))"
    assert lt.span == rt.span == (1, 4)
    assert [l.token for l in leaves(lt)] == _tokens(4)


def test_parse_preserves_labels_and_unary():
    t = parse_sexpr("(S (NP he) (VP (V runs)))")
    assert t.label == "S"
    assert t.children[0].label == "NP"
    # unary chains survive
    vp = t.children[1]
    assert vp.label == "VP" and len(vp.children) == 1
    assert [l.token for l in leaves(t)] == ["he", "runs"]
    assert t.span == (1, 2)


def test_roundtrip_keeps_structure():
    src = "(S (NP (D the) (N dog)) (VP (sleeps)))"
    t = parse_sexpr(src)
    assert parse_sexpr(format_sexpr(t)).span == t.span
    assert format_sexpr(parse_sexpr(format_sexpr(t))) == format_sexpr(t)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10 ** 6))
def test_random_binary_roundtrip(n, seed):
    t = random_binary(_tokens(n), np.random.default_rng(seed))
    assert node_count(t) == 2 * n - 1
    assert [l.token for l in leaves(t)] == _tokens(n)
    back = parse_sexpr(format_sexpr(t))
    assert format_sexpr(back) == format_sexpr(t)
    assert back.span == (1, n)


def test_parse_errors():
    for bad in ["", "(a (b)", "(a))", "(a) extra", "()", "a b"]:
        with pytest.raises(ValueError):
            parse_sexpr(bad)


def test_in_order_visits_nodes_between_children():
    t = branch([branch([leaf("a", 0), leaf("b", 0)]), leaf("c", 0)])
    assign_spans(t)
    seq = in_order(t)
    spans = [node.span for node in seq]
    assert len(seq) == 5
    assert spans == [(1, 1), (1, 2), (2, 2), (1, 3), (3, 3)]


def test_in_order_rejects_non_binary():
    t = branch([leaf("a", 1), leaf("b", 2), leaf("c", 3)])
    assign_spans(t)
    with pytest.raises(ValueError):
        in_order(t)


def test_assign_spans_returns_width():
    t = branch([leaf("a", 0), branch([leaf("b", 0), leaf("c", 0)])])
    end = assign_spans(t)
    assert end == 4  # next unused position
    assert t.span == (1, 3)
    assert t.children[1].span == (2, 3)


def test_tree_file_roundtrip(tmp_path):
    path = str(tmp_path / "trees.txt")
    src = [left_branching(_tokens(3)), right_branching(_tokens(5)),
           left_branching(["only"])]
    trees.write_tree_file(path, src)
    back = list(trees.numbered_trees(path))
    assert [line_no for line_no, _ in back] == [1, 2, 3]
    assert [format_sexpr(t) for _, t in back] == [format_sexpr(t) for t in src]


def test_deep_tree_survives_iteration():
    # traversal and serialization must not recurse once per token
    t = left_branching(_tokens(5000))
    assert len(leaves(t)) == 5000
    assert node_count(t) == 9999
    back = parse_sexpr(format_sexpr(t))
    assert back.span == (1, 5000)


def _recursive_random_binary(tokens, rng):
    def build(lo, hi):
        if lo == hi:
            return leaf(tokens[lo - 1], lo)
        k = lo + int(rng.integers(0, hi - lo))
        return branch([build(lo, k), build(k + 1, hi)])

    return build(1, len(tokens))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10 ** 6))
def test_random_binary_draws_like_the_recursive_builder(n, seed):
    # same trees and the same rng stream after them
    a_rng, b_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    a = random_binary(_tokens(n), a_rng)
    b = _recursive_random_binary(_tokens(n), b_rng)
    assert format_sexpr(a) == format_sexpr(b)
    assert [node.span for node in in_order(a)] == [node.span for node in in_order(b)]
    assert a_rng.integers(0, 10 ** 9) == b_rng.integers(0, 10 ** 9)


def test_walk_yields_every_node_in_preorder():
    t = parse_sexpr("(S (NP a b) (VP c (X d e)))")
    assert [n.token or n.label for n in walk(t)] == ["S", "NP", "a", "b", "VP", "c", "X", "d", "e"]
    assert [n.token for n in walk(left_branching(["w"]))] == ["w"]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10 ** 6))
def test_descend_picks_each_span_once_in_preorder(n, seed):
    rng = np.random.default_rng(seed)
    calls = []

    def pick(i, j):
        calls.append((i, j))
        return i + int(rng.integers(0, j - i))

    split_of = descend(n, pick)
    assert list(split_of) == calls  # the map is filled in pick order
    tree = tree_from_splits(split_of, _tokens(n))
    assert calls == [node.span for node in walk(tree) if not node.is_leaf]
