"""Split scoring and chart pruning.

A small recurrent scorer assigns one logit per token boundary. Decoding those
logits top down (recursive argmax) yields a binary tree as a split map, each
internal span mapped to the boundary it splits after; replaying the same
tree bottom up as a sequence of merges decides which chart cells survive and
which split points each cell keeps, so chart size stays linear in sentence
length for a fixed window m.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import BiLstm, Embedding, Mlp, Module
from .trees import Span, descend


class BoundaryScorer(Module):
    """Bidirectional recurrent encoder with a two-layer head per boundary.

    Scores are produced from unmasked token ids and are consumed in two
    places that must not exchange gradients: tree decoding (no gradient) and
    the tree log-likelihood (gradient to these parameters only).
    """

    def __init__(self, name: str, vocab_size: int, emb_dim: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.vocab_size = vocab_size
        self.hidden = hidden
        self.emb = self._child(Embedding(f"{name}.emb", vocab_size, emb_dim, rng))
        self.rnn = self._child(BiLstm(f"{name}.rnn", emb_dim, hidden, rng))
        self.head = self._child(Mlp(f"{name}.head", 2 * hidden, hidden, 1, rng))

    def __call__(self, token_ids: np.ndarray) -> Tensor:
        """Logits for boundaries 1..n-1; shape (n-1,). n = 1 gives shape (0,)."""
        ids = np.asarray(token_ids)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("token_ids must be a non-empty 1d array")
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ValueError(f"token id out of range for vocab size {self.vocab_size}")
        n = ids.size
        if n == 1:
            return Tensor(np.zeros((0,), dtype=self.emb.table.data.dtype))
        states = self.rnn(self.emb(ids))  # (n, 2*hidden)
        h = self.hidden
        # boundary k sits between tokens k and k+1: forward state of the
        # prefix, backward state of the suffix
        feats = ad.concat([states[0:n - 1, 0:h], states[1:n, h:2 * h]], axis=1)
        return ad.reshape(self.head(feats), (n - 1,))


def apply_nonsplittable(scores, forbidden: set[int] | frozenset[int]):
    """Force boundaries in `forbidden` (1-based) to -inf.

    Works on a plain array or a taped tensor alike: the -inf mask is added,
    so gradients still reach the admissible positions. Raises when nothing
    admissible remains for a multi-token sentence.
    """
    data = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    n_boundaries = data.shape[0]
    if n_boundaries and forbidden >= set(range(1, n_boundaries + 1)):
        raise ValueError("no admissible tree: every boundary is non-splittable")
    bad = [k - 1 for k in forbidden if 1 <= k <= n_boundaries]
    if not bad:
        return scores
    mask = np.zeros(n_boundaries, dtype=data.dtype)
    mask[bad] = -np.inf
    return scores + mask


def split_order(scores: np.ndarray, n: int) -> dict[Span, int]:
    """Top-down greedy decoding of boundary scores into a split map.

    The sentence span picks its argmax boundary, then each sub-span does the
    same; the map holds the picks in descending score order, ties to the
    smaller boundary index. A child's pick never outranks its parent's, so
    sorting all picks gives the order a best-first search would pop them in.
    """
    v = np.asarray(scores, dtype=np.float64)
    if v.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} boundary scores, got shape {v.shape}")
    split_of = descend(n, lambda i, j: i + int(np.argmax(v[i - 1:j - 1])))
    picks = sorted((-float(v[k - 1]), k, span) for span, k in split_of.items())
    return {span: k for _, k, span in picks}


def parser_nll(scores, order: dict[Span, int]) -> Tensor | float:
    """Negative log-likelihood of a split map under boundary scores.

    Each tree node contributes -log softmax over the boundaries inside its
    span. Spans whose boundaries are all -inf (forced single moves)
    contribute zero. A plain array is scored as a float64 tensor and gives a
    float. The sum is mathematically invariant to the order the nodes are
    visited in, but its terms are added in `order`, left to right: training
    depends on the float32 accumulation order.
    """
    taped = isinstance(scores, Tensor)
    if not taped:
        scores = Tensor(np.asarray(scores, dtype=np.float64))
    total = None
    for (i, j), k in order.items():
        seg = scores.data[i - 1:j - 1]
        if not np.isfinite(seg).any():
            continue
        if not np.isfinite(seg[k - i]):
            raise ValueError(f"target split {k} of span {(i, j)} is forbidden")
        term = -ad.log_softmax(scores[i - 1:j - 1], axis=0)[k - i]
        total = term if total is None else total + term
    if total is None:
        total = Tensor(np.zeros((), dtype=scores.dtype))
    return total if taped else float(total.data)


# ---------------------------------------------------------------------------
# chart pruning
# ---------------------------------------------------------------------------

def merge_rounds(order: dict[Span, int]) -> list[list[int]]:
    """The bottom-up replay of a split map as rounds of boundaries: a node
    merges in round h - 1 for its height h (1 + its taller child's, leaves
    0), and each round is sorted."""
    height: dict[Span, int] = {}
    rounds: list[list[int]] = []
    # a child is narrower than its parent, so its height is known first
    for (i, j), k in sorted(order.items(), key=lambda item: item[0][1] - item[0][0]):
        h = height[(i, j)] = 1 + max(height.get((i, k), 0), height.get((k + 1, j), 0))
        if h > len(rounds):
            rounds.append([])
        rounds[h - 1].append(k)
    return [sorted(group) for group in rounds]


def prune_schedule(n: int, window: int, order: dict[Span, int]) -> dict[Span, tuple[int, ...]]:
    """Decide surviving cells and their split points from a decoded tree.

    Starts from all spans of width <= window with full split sets, then
    replays the tree bottom up in its `merge_rounds`, and after each round
    encodes every newly expressible contiguous group of at most window+1
    units with the unit boundaries as its splits. Returns each cell's kept
    splits, the first set written for its span, in the order the cells
    were first written.
    """
    if window < 2:
        # one-split cells only arise from a decoded tree; see tree_schedule
        raise ValueError("window must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    cells: dict[Span, tuple[int, ...]] = {}

    for width in range(2, min(window, n) + 1):
        for i in range(1, n - width + 2):
            cells[(i, i + width - 1)] = tuple(range(i, i + width - 1))

    if n > window:
        units: list[Span] = [(i, i) for i in range(1, n + 1)]
        span_of = {k: span for span, k in order.items()}
        for group in merge_rounds(order):
            for k in group:
                span = span_of[k]
                first = next(t for t, u in enumerate(units) if u[0] == span[0])
                if units[first][1] != k or units[first + 1] != (k + 1, span[1]):
                    raise ValueError(f"merge at boundary {k} does not cover two units")
                units[first:first + 2] = [span]
            for size in range(2, window + 2):
                for a in range(len(units) - size + 1):
                    span = (units[a][0], units[a + size - 1][1])
                    if span not in cells:
                        cells[span] = tuple(units[t][1] for t in range(a, a + size - 1))

    if (1, n) not in cells and n > 1:
        raise ValueError("pruning never encoded the sentence span")
    return cells


def build_cell_batches(cells: dict[Span, tuple[int, ...]]) -> list[dict[Span, tuple[int, ...]]]:
    """Turn pruned cells into the chart engine's waves, checking the chart.

    The sentence length n is read off the widest span, `(1, n)`, and is 1
    for an empty map. A cell whose outputs no other kept cell reads is
    dropped (the sentence span is exempt); drops cascade. The kept cells
    are laid out in waves: a cell joins the first wave in which every span
    its splits read is a leaf or a cell of an earlier wave. Returns the
    non-leaf waves, each a split map in sorted-span order; the leaves are
    implicit and the last wave is `{(1, n): ...}`. This is the one check
    of a chart: it raises ValueError when the root is missing, or when a
    kept cell has no splits, has splits out of order or outside its span,
    or reads a span that is neither a leaf nor a cell.
    """
    n = max((j for _, j in cells), default=1)
    root: Span = (1, n)
    if n > 1 and root not in cells:
        raise ValueError("sentence span missing from pruned cells")
    # a cell is read only by wider cells, so one widest-first pass from the
    # root finds every cell that a kept cell reads
    read = {root}
    kept: list[Span] = []
    for span in sorted(cells, key=lambda s: s[0] - s[1]):
        if span in read:
            i, j = span
            ks = cells[span]
            if not ks:
                raise ValueError(f"non-leaf span {span} has no splits")
            if list(ks) != sorted(ks):
                raise ValueError(f"splits of {span} not sorted")
            if not (i <= ks[0] and ks[-1] < j):
                raise ValueError(f"splits {ks} of {span} not inside it")
            kept.append(span)
            for k in ks:
                read.update(((i, k), (k + 1, j)))

    # narrowest first: a cell's wave is one past the latest wave it reads
    wave = {(i, i): 0 for i in range(1, n + 1)}
    for span in reversed(kept):
        i, j = span
        try:
            wave[span] = 1 + max(max(wave[(i, k)], wave[(k + 1, j)]) for k in cells[span])
        except KeyError as exc:
            raise ValueError(f"cell {span} reads {exc.args[0]}, "
                             "which is neither a leaf nor a cell") from None
    waves: list[dict[Span, tuple[int, ...]]] = [{} for _ in range(wave[root])]
    for span in sorted(kept):
        waves[wave[span] - 1][span] = cells[span]
    return waves


def tree_schedule(n: int, order: dict[Span, int]) -> list[dict[Span, tuple[int, ...]]]:
    """Single-split-per-cell waves following a decoded tree exactly.

    Used by the fast encoding mode: the chart degenerates to the tree, so
    each layer runs n-1 inside and n-1 outside compositions.
    """
    return build_cell_batches({span: (k,) for span, k in order.items()})
