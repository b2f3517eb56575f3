"""Cubic reference implementations used only by tests and diagnostics.

Everything here recomputes the chart quantities with plain per-span loops and
the direct softmax-weighted formulas, sharing only the parameterized forward
functions with the engine. Span/loop traversal, weighting, and tree search
are written independently so engine bugs cannot hide in shared code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .inside_outside import (ROLE_LEFT, ROLE_PARENT, ROLE_RIGHT, CioStack,
                             StackResult)
from .trees import Span

ORACLE_MAX_N = 12


def _compose_np(stack: CioStack, layer: int, kind: str, left: np.ndarray,
                right: np.ndarray, third: np.ndarray, slot: int) -> np.ndarray:
    params = stack.alpha[layer] if kind == "inside" else stack.beta[layer]
    with ad.no_grad():
        slots = Tensor(np.stack([left, right, third])[None, :, :])
        return params(slots).data[0, slot].copy()


def _compat_np(stack: CioStack, kind: str, x: np.ndarray, y: np.ndarray) -> float:
    with ad.no_grad():
        out = stack.compat(Tensor(x[None, :]), Tensor(y[None, :]), kind)
    return float(out.data[0])


@dataclass
class OracleLayer:
    inside: dict[Span, np.ndarray]
    inside_score: dict[Span, float]
    outside: dict[Span, np.ndarray]
    outside_score: dict[Span, float]
    split_scores: dict[Span, np.ndarray]  # a[k] for k = i..j-1


@dataclass
class OracleResult:
    n: int
    layers: list[OracleLayer]

    @property
    def final(self) -> OracleLayer:
        return self.layers[-1]


def full_chart_reference(x: np.ndarray, stack: CioStack) -> OracleResult:
    """Unpruned chart over all spans and all splits, one cell at a time.

    Cubic in n and loop-per-cell, so hard-capped at n = 12.
    """
    n = x.shape[0]
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {ORACLE_MAX_N}, got {n}")
    if x.shape[1] != stack.d:
        raise ValueError("embedding dim mismatch")

    spans = [(i, j) for w in range(1, n + 1) for i in range(1, n - w + 2)
             for j in [i + w - 1]]
    layers: list[OracleLayer] = []
    prev_outside: dict[Span, np.ndarray] = {}

    for l in range(stack.num_layers):
        if l == 0:
            prev_outside = {s: np.asarray(stack.outside0.data, dtype=x.dtype)
                            for s in spans}

        e: dict[Span, np.ndarray] = {}
        a: dict[Span, float] = {}
        sscore: dict[Span, np.ndarray] = {}
        for i in range(1, n + 1):
            e[(i, i)] = x[i - 1].copy()
            a[(i, i)] = 0.0
        for width in range(2, n + 1):
            for i in range(1, n - width + 2):
                j = i + width - 1
                cand_vecs, cand_scores = [], []
                for k in range(i, j):
                    cand_vecs.append(_compose_np(stack, l, "inside",
                                                 e[(i, k)], e[(k + 1, j)],
                                                 prev_outside[(i, j)], ROLE_PARENT))
                    cand_scores.append(_compat_np(stack, "inside", e[(i, k)], e[(k + 1, j)])
                                       + a[(i, k)] + a[(k + 1, j)])
                scores = np.array(cand_scores, dtype=np.float64)
                w = ad.softmax_np(scores, axis=-1)
                e[(i, j)] = sum(wk * v for wk, v in zip(w, cand_vecs))
                a[(i, j)] = float(w @ scores)
                sscore[(i, j)] = scores

        o: dict[Span, np.ndarray] = {}
        b: dict[Span, float] = {}
        o[(1, n)] = np.asarray(stack.roots[l].data, dtype=x.dtype)
        b[(1, n)] = 0.0
        for width in range(n - 1, 0, -1):
            for i in range(1, n - width + 2):
                j = i + width - 1
                if (i, j) == (1, n):
                    continue
                cand_vecs, cand_scores = [], []
                # parent extends right: (i, k) with k > j, sibling (j+1, k)
                for k in range(j + 1, n + 1):
                    cand_vecs.append(_compose_np(stack, l, "outside",
                                                 e[(i, j)], e[(j + 1, k)],
                                                 o[(i, k)], ROLE_LEFT))
                    cand_scores.append(a[(j + 1, k)]
                                       + _compat_np(stack, "outside", o[(i, k)], e[(j + 1, k)])
                                       + b[(i, k)])
                # parent extends left: (k, j) with k < i, sibling (k, i-1)
                for k in range(i - 1, 0, -1):
                    cand_vecs.append(_compose_np(stack, l, "outside",
                                                 e[(k, i - 1)], e[(i, j)],
                                                 o[(k, j)], ROLE_RIGHT))
                    cand_scores.append(a[(k, i - 1)]
                                       + _compat_np(stack, "outside", o[(k, j)], e[(k, i - 1)])
                                       + b[(k, j)])
                scores = np.array(cand_scores, dtype=np.float64)
                w = ad.softmax_np(scores, axis=-1)
                o[(i, j)] = sum(wk * v for wk, v in zip(w, cand_vecs))
                b[(i, j)] = float(w @ scores)

        layers.append(OracleLayer(inside=e, inside_score=a, outside=o,
                                  outside_score=b, split_scores=sscore))
        prev_outside = o

    return OracleResult(n=n, layers=layers)


def best_tree_exhaustive(split_scores: dict[Span, np.ndarray], n: int
                         ) -> dict[Span, int]:
    """Lexicographic-max tree over all binary trees of the full chart, as a
    split map in preorder.

    Trees are compared by their preorder sequence of (a[k], -k) decisions,
    which is exactly what the greedy root-down argmax maximizes.
    """
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {ORACLE_MAX_N}, got {n}")

    def enumerate_trees(i: int, j: int):
        if i == j:
            yield []
            return
        for k in range(i, j):
            score = float(split_scores[(i, j)][k - i])
            for lt in enumerate_trees(i, k):
                for rt in enumerate_trees(k + 1, j):
                    yield [(score, -k, (i, j))] + lt + rt

    best, best_key = None, None
    for tree in enumerate_trees(1, n):
        key = [(s, mk) for s, mk, _ in tree]
        if best_key is None or key > best_key:
            best, best_key = tree, key
    return {span: -mk for _, mk, span in (best or [])}


@dataclass(frozen=True)
class ParentEdge:
    """One way a cell participates in a larger cell.

    `slot` says which child of `parent` the cell is (0 = left, 1 = right);
    the sibling span and the extension endpoint follow from parent + split.
    """

    parent: Span
    split: int
    slot: int

    @property
    def sibling(self) -> Span:
        i, j = self.parent
        return (self.split + 1, j) if self.slot == 0 else (i, self.split)


def parents_from_splits(splits: dict[Span, tuple[int, ...]]) -> dict[Span, tuple[ParentEdge, ...]]:
    """Invert the split map: every split of (i,j) at k makes (i,j) the parent
    of (i,k) at slot 0 and of (k+1,j) at slot 1."""
    acc: dict[Span, list[ParentEdge]] = {}
    for (i, j), ks in splits.items():
        for k in ks:
            if not (i <= k < j):
                raise ValueError(f"split {k} outside span ({i},{j})")
            acc.setdefault((i, k), []).append(ParentEdge((i, j), k, 0))
            acc.setdefault((k + 1, j), []).append(ParentEdge((i, j), k, 1))
    return {span: tuple(sorted(edges, key=lambda e: (e.parent, e.split, e.slot)))
            for span, edges in acc.items()}


def direct_outside_check(result: StackResult, stack: CioStack) -> float:
    """Max abs deviation between the engine's pooled outside values and a
    direct per-cell softmax recomputation from the same layer states."""
    plan = result.plan
    parents = parents_from_splits(plan.splits)
    worst = 0.0
    for l, state in enumerate(result.layers):
        inside = state.inside.data
        a = state.inside_score.data
        outside = state.outside.data
        b = state.outside_score.data
        for span, edges in parents.items():
            row = plan.row_of[span]
            cand_vecs, cand_scores = [], []
            for edge in edges:
                p_row = plan.row_of[edge.parent]
                sib_row = plan.row_of[edge.sibling]
                if edge.slot == ROLE_LEFT:
                    left, right = inside[row], inside[sib_row]
                else:
                    left, right = inside[sib_row], inside[row]
                cand_vecs.append(_compose_np(stack, l, "outside", left, right,
                                             outside[p_row], edge.slot))
                cand_scores.append(a[sib_row]
                                   + _compat_np(stack, "outside", outside[p_row],
                                                inside[sib_row])
                                   + b[p_row])
            scores = np.array(cand_scores, dtype=np.float64)
            w = ad.softmax_np(scores, axis=-1)
            vec = sum(wk * v for wk, v in zip(w, cand_vecs))
            score = float(w @ scores)
            worst = max(worst,
                        float(np.max(np.abs(vec - outside[row]))),
                        abs(score - float(b[row])))
    return worst


def cumulative_outside_reference(cands: np.ndarray, scores: np.ndarray
                                 ) -> tuple[np.ndarray, float]:
    """Incremental log-sum-exp form of a softmax-weighted candidate sum, for
    equivalence tests.

    cands (U, d), scores (U,) -> softmax(scores)-weighted vector and score,
    accumulated one candidate at a time from a -inf accumulator.
    """
    m = -np.inf
    vec = np.zeros(cands.shape[1], dtype=np.float64)
    total = 0.0
    for u in range(cands.shape[0]):
        m_new = np.logaddexp(m, scores[u])
        keep = np.exp(m - m_new) if np.isfinite(m) else 0.0
        add = np.exp(scores[u] - m_new)
        vec = keep * vec + add * cands[u]
        total = keep * total + add * scores[u]
        m = m_new
    return vec, float(total)
