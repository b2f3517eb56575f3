"""Fixed synthetic grammar for toy pretraining and evaluation.

Twenty productions over nine word classes, 49 words plus the mask token for
an even 50-entry vocabulary. Sentences come with their derivation trees, so
induced structures can be scored against a known gold standard.
"""

from __future__ import annotations

import numpy as np

from .training import MASK_TOKEN
from .trees import Node, assign_spans, leaves

DET =["the", "a", "every", "some"]
NOUN = ["dog", "cat", "bird", "fox", "man", "woman", "child", "king",
        "boat", "tree", "stone", "river"]
ADJ = ["big", "small", "old", "young", "red", "quiet", "bright", "green"]
VERB_T = ["sees", "likes", "finds", "takes", "keeps"]
VERB_I = ["sleeps", "runs", "falls", "sings"]
PREP = ["in", "on", "near", "with", "under", "above"]
ADV = ["often", "quickly", "never", "always"]
PRON = ["he", "she", "it"]
NAME = ["alice", "bob", "carol"]

VOCAB_TOKENS = ([MASK_TOKEN] + DET + NOUN + ADJ + VERB_T + VERB_I
                + PREP + ADV + PRON + NAME)
assert len(VOCAB_TOKENS) == 50

# Productions (20):
#  1 S    -> NP VP          8 NP  -> Name          15 Noun -> lexicon
#  2 NP   -> Det Noun       9 PP  -> Prep NP       16 Adj  -> lexicon
#  3 NP   -> Det NBar      10 VP  -> VI            17 VT   -> lexicon
#  4 NBar -> Adj Noun      11 VP  -> VT NP         18 VI   -> lexicon
#  5 NBar -> Adj NBar      12 VP  -> VP PP         19 Prep -> lexicon
#  6 NP   -> NP PP         13 VP  -> Adv VP        20 Adv  -> lexicon
#  7 NP   -> Pron          14 Det -> lexicon


def _word(rng: np.random.Generator, words: list[str]) -> Node:
    return Node(token=words[int(rng.integers(0, len(words)))])


def _np(rng: np.random.Generator, depth: int) -> Node:
    damp = 0.55 ** depth  # recursion damping keeps lengths in range
    r = float(rng.random())
    if r < 0.15 * damp:
        return Node("NP", [_np(rng, depth + 1), _pp(rng, depth + 1)])
    r = float(rng.random())
    if r < 0.42:
        return Node("NP", [_word(rng, DET), _word(rng, NOUN)])
    if r < 0.64:
        return Node("NP", [_word(rng, DET), _nbar(rng, depth + 1)])
    if r < 0.84:
        return Node("NP", [_word(rng, PRON)])
    return Node("NP", [_word(rng, NAME)])


def _nbar(rng: np.random.Generator, depth: int) -> Node:
    if float(rng.random()) < 0.3 * 0.55 ** depth:
        return Node("NBar", [_word(rng, ADJ), _nbar(rng, depth + 1)])
    return Node("NBar", [_word(rng, ADJ), _word(rng, NOUN)])


def _pp(rng: np.random.Generator, depth: int) -> Node:
    return Node("PP", [_word(rng, PREP), _np(rng, depth + 1)])


def _vp(rng: np.random.Generator, depth: int) -> Node:
    damp = 0.55 ** depth
    r = float(rng.random())
    if r < 0.18 * damp:
        return Node("VP", [_vp(rng, depth + 1), _pp(rng, depth + 1)])
    if r < 0.18 * damp + 0.12 * damp:
        return Node("VP", [_word(rng, ADV), _vp(rng, depth + 1)])
    r = float(rng.random())
    if r < 0.35:
        return Node("VP", [_word(rng, VERB_I)])
    return Node("VP", [_word(rng, VERB_T), _np(rng, depth + 1)])


def sample_sentence(rng: np.random.Generator, min_len: int = 4, max_len: int = 16
                    ) -> tuple[list[str], Node]:
    """Rejection-sample one sentence with its derivation tree."""
    while True:
        tree = Node("S", [_np(rng, 0), _vp(rng, 0)])
        assign_spans(tree)
        tokens = [l.token for l in leaves(tree)]
        if min_len <= len(tokens) <= max_len:
            return tokens, tree


def generate_corpus(rng: np.random.Generator, count: int, min_len: int = 4,
                    max_len: int = 16) -> list[tuple[list[str], Node]]:
    return [sample_sentence(rng, min_len, max_len) for _ in range(count)]

