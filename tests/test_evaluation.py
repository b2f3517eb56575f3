"""Bracket F1, label recall, word-piece projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartlm.evaluation import (bracket_spans, collapse_spans, corpus_scores, labeled_spans,
                                piece_to_word)
from chartlm.trees import (left_branching, parse_sexpr, random_binary,
                           right_branching)


def _words(n):
    return [f"w{i}" for i in range(1, n + 1)]


def sentence_f1(pred, gold):
    """One pair's F1: the corpus mean over that pair alone."""
    return corpus_scores([pred], [gold])[0]


# ---------------------------------------------------------------------------
# bracket sets
# ---------------------------------------------------------------------------

def test_bracket_spans_exclude_trivial():
    tree = parse_sexpr("(S (NP the cat) (VP sat (PP on (NP the mat))))")
    spans = bracket_spans(tree)
    assert spans == {(1, 2), (3, 6), (4, 6), (5, 6)}  # no width-1, no (1,6)


def test_labeled_spans():
    tree = parse_sexpr("(S (NP the cat) (VP sat (PP on (NP the mat))))")
    assert sorted(labeled_spans(tree)) == [("NP", (1, 2)), ("NP", (5, 6)),
                                           ("PP", (4, 6)), ("VP", (3, 6))]


def test_gold_may_be_nary():
    flat = parse_sexpr("(S a b (X c d) e)")
    assert bracket_spans(flat) == {(3, 4)}


# ---------------------------------------------------------------------------
# sentence / corpus F1
# ---------------------------------------------------------------------------

@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_self_f1_is_perfect(n, seed):
    t = random_binary(_words(n), np.random.default_rng(seed))
    assert sentence_f1(t, t) == 100.0


def test_left_vs_right_is_zero():
    n = 5
    left = left_branching(_words(n))
    right = right_branching(_words(n))
    assert sentence_f1(left, right) == 0.0


def test_left_vs_balanced_frozen():
    # n=5: left brackets {(1,2),(1,3),(1,4)}, balanced ((w1 w2 w3)(w4 w5))
    # brackets {(1,3),(4,5),(1,2)}... derive via parse for clarity
    left = left_branching(_words(5))
    balanced = parse_sexpr("(X (X (X w1 w2) w3) (X w4 w5))")
    # shared: (1,2), (1,3); pred 3, gold 3 -> P=R=2/3
    assert sentence_f1(balanced, left) == pytest.approx(200.0 / 3.0)


def test_tiny_sentences_vacuously_agree():
    for n in (1, 2):
        a = left_branching(_words(n))
        b = right_branching(_words(n))
        assert sentence_f1(a, b) == 100.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        sentence_f1(left_branching(_words(4)), left_branching(_words(5)))


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_f1_symmetric_for_binary_trees(n, seed):
    rng = np.random.default_rng(seed)
    a = random_binary(_words(n), rng)
    b = random_binary(_words(n), rng)
    assert sentence_f1(a, b) == pytest.approx(sentence_f1(b, a))


def test_corpus_f1_is_mean_and_thread_safe():
    rng = np.random.default_rng(0)
    preds, golds = [], []
    for n in (3, 4, 5, 6, 7, 8):
        preds.append(random_binary(_words(n), rng))
        golds.append(random_binary(_words(n), rng))
    serial, _ = corpus_scores(preds, golds)
    expected = np.mean([sentence_f1(p, g) for p, g in zip(preds, golds)])
    assert serial == pytest.approx(float(expected))


def test_corpus_f1_errors():
    t = left_branching(_words(3))
    with pytest.raises(ValueError, match="predicted trees vs"):
        corpus_scores([t], [t, t])
    with pytest.raises(ValueError, match="empty corpus"):
        corpus_scores([], [])


# ---------------------------------------------------------------------------
# word pieces
# ---------------------------------------------------------------------------

def test_piece_to_word_mapping():
    assert piece_to_word(["play", "##ing", "the", "gui", "##tar"]) == [1, 1, 2, 3, 3]
    assert piece_to_word(["a", "b"]) == [1, 2]
    assert piece_to_word([]) == []


def test_collapse_spans_drops_trivial():
    mapping = [1, 1, 2, 3, 3]
    spans = {(1, 2), (1, 3), (4, 5), (3, 5), (1, 5)}
    # (1,2)->word(1,1) dropped; (1,3)->(1,2) kept; (4,5)->(3,3) dropped;
    # (3,5)->(2,3) kept; (1,5)->(1,3) is full sentence, dropped
    assert collapse_spans(spans, mapping) == {(1, 2), (2, 3)}


def test_sentence_f1_with_pieces():
    # piece-level prediction ((play ##ing) ((the) (gui ##tar))) style
    pred = parse_sexpr("(X (X play ##ing) (X the (X gui ##tar)))")
    gold = parse_sexpr("(X playing (X the guitar))")     # 3 words
    # pred word spans: (1,2)->trivial(1,1)? no: pieces 1,2 -> word 1 only ->
    # dropped; (3,5)->(2,3) kept; (4,5)->(3,3) dropped. gold: (2,3).
    assert sentence_f1(pred, gold) == 100.0


# ---------------------------------------------------------------------------
# label recall
# ---------------------------------------------------------------------------

def test_constituent_recall_full_and_partial():
    gold = [parse_sexpr("(S (NP a b) (VP c (NP d e)))")]
    exact = [parse_sexpr("(X (X a b) (X c (X d e)))")]
    assert corpus_scores(exact, gold)[1]["NP"] == 100.0
    assert corpus_scores(exact, gold)[1]["VP"] == 100.0
    # right-branching misses (1,2) but keeps (4,5) and (3,5)
    rb = [right_branching(["a", "b", "c", "d", "e"])]
    assert corpus_scores(rb, gold)[1]["NP"] == 50.0
    assert corpus_scores(rb, gold)[1]["VP"] == 100.0


def test_label_recalls_covers_gold_labels():
    gold = [parse_sexpr("(S (NP a b) (VP c (NP d e)))")]
    pred = [parse_sexpr("(X (X a b) (X c (X d e)))")]
    _, out = corpus_scores(pred, gold)
    assert list(out) == ["NP", "VP"]  # sorted; S spans only (1,5), excluded
    assert out == {"NP": 100.0, "VP": 100.0}



def test_label_recall_collapses_pieces_as_f1_does():
    pred = [parse_sexpr("(X (X the (X un ##able)) (X story))")]
    gold = [parse_sexpr("(S (NP the unable) (NP story))")]
    assert corpus_scores(pred, gold) == (100.0, {"NP": 100.0})


def test_label_recall_rejects_a_length_mismatch():
    pred = [parse_sexpr("(X a b)")]
    gold = [parse_sexpr("(S (NP a b) (VP c d))")]
    with pytest.raises(ValueError, match="pred has 2 words, gold has 4"):
        corpus_scores(pred, gold)

