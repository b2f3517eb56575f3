"""Grammar-induction metrics.

Bracket F1 follows the usual induction conventions: width-1 spans and the
full-sentence span are excluded from both sides, and a sentence where both
bracket sets come out empty (n <= 2) counts as vacuous agreement at 100.
Word-piece trees are collapsed to word-level spans before scoring.
"""

from __future__ import annotations

from collections import Counter

from .trees import Node, Span, leaves, walk


def bracket_spans(root: Node) -> set[Span]:
    """Non-trivial bracket set: internal spans minus width-1 and (1, n)."""
    return {span for _, span in labeled_spans(root)}


def labeled_spans(root: Node) -> list[tuple[str, Span]]:
    """Non-trivial labeled spans, same exclusions as bracket_spans."""
    return [(node.label, node.span) for node in walk(root)
            if not node.is_leaf and node.span[1] > node.span[0] and node.span != root.span]


def piece_to_word(pieces: list[str]) -> list[int]:
    """1-based word index per word piece; '##'-prefixed pieces continue a word."""
    out: list[int] = []
    word = 0
    for piece in pieces:
        if word == 0 or not piece.startswith("##"):
            word += 1
        out.append(word)
    return out


def collapse_spans(spans: set[Span], mapping: list[int]) -> set[Span]:
    """Project piece-level spans to word level, dropping spans that become
    trivial (width 1 or the full sentence) after projection."""
    if not mapping:
        return set()
    n_words = mapping[-1]
    out: set[Span] = set()
    for i, j in spans:
        wi, wj = mapping[i - 1], mapping[j - 1]
        if wj > wi and (wi, wj) != (1, n_words):
            out.add((wi, wj))
    return out


def _f1(pred: set[Span], gold_spans: list[tuple[str, Span]]) -> float:
    """Unlabeled F1 of one pair as `word_level` returns it."""
    gold = {span for _, span in gold_spans}
    if not pred and not gold:
        return 100.0
    hits = len(pred & gold)
    if hits == 0:
        return 0.0
    precision = hits / len(pred)
    recall = hits / len(gold)
    return 200.0 * precision * recall / (precision + recall)


def word_level(pred: Node, gold: Node) -> tuple[set[Span], list[tuple[str, Span]]]:
    """Pred's brackets collapsed to words (a '##' leaf continues the word before
    it) and gold's labeled spans; ValueError if the word counts differ."""
    mapping = piece_to_word([leaf.token or "" for leaf in leaves(pred)])
    n_pred, n_gold = mapping[-1], len(leaves(gold))
    if n_pred != n_gold:
        raise ValueError(f"length mismatch: pred has {n_pred} words, gold has {n_gold}")
    return collapse_spans(bracket_spans(pred), mapping), labeled_spans(gold)


class PairError(ValueError):
    """Pair `index` (0-based) of a corpus cannot be scored, for `reason`."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"pair {index}: {reason}")
        self.index, self.reason = index, reason


def corpus_scores(preds: list[Node], golds: list[Node]) -> tuple[float, dict[str, float]]:
    """Mean sentence F1, and the recall (in %) of each label in the gold trees:
    the share of gold spans carrying it found in the predicted bracket sets.
    Both are at word level, from one `word_level` call per pair; a pair whose
    word counts differ raises PairError. Only non-trivial gold spans can ever
    match, so the recall denominator uses the same exclusions as
    bracket_spans."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predicted trees vs {len(golds)} gold trees")
    if not preds:
        raise ValueError("empty corpus")
    scores: list[float] = []
    total, hit = Counter(), Counter()
    for index, (pred, gold) in enumerate(zip(preds, golds)):
        try:
            pred_spans, gold_spans = word_level(pred, gold)
        except ValueError as exc:
            raise PairError(index, str(exc)) from None
        scores.append(_f1(pred_spans, gold_spans))
        for label, span in gold_spans:
            total[label] += 1
            hit[label] += span in pred_spans
    recalls = {label: 100.0 * hit[label] / total[label] for label in sorted(total)}
    return float(sum(scores) / len(scores)), recalls
