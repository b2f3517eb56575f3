"""Chart encoder: pruned inside pass, contextual outside pass, tree induction.

Each layer runs one bottom-up (inside) and one top-down (outside) sweep over
the cells `build_cell_batches` kept. Cell vectors live in a flat arena (leaf
rows first, then cells in wave order) so a whole wave is one gather /
compose / scatter round. The outside sweep walks the waves in reverse and
grows a second arena, of outside candidates: row 0 is the layer's learned
root vector, then each wave appends the candidates it emits for its cells'
children. Both sweeps pool a cell's candidates (one per split inside, one
per parent path outside) the same way: one gather from the arena, then a
masked softmax over their scores weights the candidate vectors and scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import AttentionBlock, Module, _normal
from .trees import Span, descend

ROLE_LEFT, ROLE_RIGHT, ROLE_PARENT = 0, 1, 2


class ComposeParams(Module):
    """Composition function: role-tagged 3-slot attention block.

    The three inputs are placed in (left, right, parent) slots, each offset
    by a learned role embedding, and run through a small transformer; the
    caller names the slots its pass reads, and only those leave the last
    layer's feed-forward.
    """

    def __init__(self, name: str, d: int, heads: int, depth: int, rng: np.random.Generator):
        super().__init__()
        self.d = d
        self.roles = self._param(f"{name}.roles", _normal(rng, (3, d)))
        self.block = self._child(AttentionBlock(f"{name}.block", d, heads, depth, rng))

    def __call__(self, slots: Tensor, read: list[int] | None = None) -> Tensor:
        """slots (B, 3, d) -> (B, len(read), d), the slots `read` of the output
        (all three when None): the inside sweep reads the parent slot, the
        outside sweep both child slots."""
        if slots.shape[-2:] != (3, self.d):
            raise ValueError(f"compose expects (*, 3, {self.d}) slots, got {slots.shape}")
        return self.block(slots + ad.reshape(self.roles, (1, 3, self.d)), read)


def _residual_mlp(m: tuple, v: np.ndarray) -> tuple[np.ndarray, tuple]:
    """v + W2 gelu(W1 v) for a map's weights m = (W1, b1, W2, b2), and what
    `_residual_mlp_vjp` reads."""
    w1, b1, w2, b2 = (p.data for p in m)
    pre = v @ w1 + b1
    act, e = ad.gelu_np(pre)
    return v + (act @ w2 + b2), (v, pre, act, e)


def _residual_mlp_vjp(m: tuple, saved: tuple, gm: np.ndarray) -> tuple[list, list]:
    """The input's gradients (residual path, then fc1) and the weights'."""
    v, pre, act, e = saved
    gpre = (gm @ ad.mT(m[2].data)) * ad.gelu_grad(pre, e)
    return ([gm, gpre @ ad.mT(m[0].data)],
            [ad.mT(v) @ gpre, gpre.sum(axis=0), ad.mT(act) @ gm, gm.sum(axis=0)])


class CompatHead(Module):
    """Split/parent plausibility: MLP_L(x) . MLP_R(y) / sqrt(d).

    Each map is a residual MLP x + W2 gelu(W1 x) (zero-init W2: the identity
    at init). `inside` and `outside` hold the (MLP_L, MLP_R) weights, each
    map's as (W1, b1, W2, b2), of the inside sweep's one fused op,
    `inside_scores`, and the outside sweep's, `sibling_scores`. The same
    weights serve every layer of the stack.
    """

    def __init__(self, name: str, d: int, rng: np.random.Generator):
        super().__init__()
        self.d = d

        def residual_mlp(prefix):
            return (self._linear(f"{prefix}.fc1", d, d, rng)
                    + self._linear(f"{prefix}.fc2", d, d, rng, zero_init=True))

        self.inside = (residual_mlp(f"{name}.alpha.l"), residual_mlp(f"{name}.alpha.r"))
        self.outside = (residual_mlp(f"{name}.beta.l"), residual_mlp(f"{name}.beta.r"))

    def _score(self, y, lx, sx, maps):
        """One compat score's forward from MLP_L(x) = lx, and its VJP: the
        gradients of x twice and y twice (residual path first: the tape's
        order for the composite, tests/composites.py), then the weights'."""
        scale = lx.dtype.type(1.0 / np.sqrt(self.d))
        ry, sy = _residual_mlp(maps[1], y.data)

        def vjp(g):
            gp = np.broadcast_to(np.expand_dims(g * scale, -1), lx.shape)
            gx, wx = _residual_mlp_vjp(maps[0], sx, gp * ry)
            gy, wy = _residual_mlp_vjp(maps[1], sy, gp * lx)
            return gx + gy + wx + wy

        return (lx * ry).sum(axis=-1) * scale, vjp

    def inside_scores(self, left: Tensor, right: Tensor, left_a: Tensor,
                      right_a: Tensor) -> Tensor:
        """compat(left, right) + left_a + right_a, (B,), as one tape node: the
        inside sweep's split totals. The VJP is the tape's for the composite
        (tests/composites.py); left and right each feed a map's residual path
        and its fc1, so each is an input twice."""
        if any(t.shape[-1] != self.d for t in (left, right)):
            raise ValueError(f"compatibility expects dim {self.d}")
        maps = self.inside
        score, vjp_score = self._score(right, *_residual_mlp(maps[0], left.data), maps)

        def vjp(g):
            return [*vjp_score(g), g, g]

        return ad._node((score + left_a.data) + right_a.data,
                        (left, left, right, right) + maps[0] + maps[1] + (left_a, right_a),
                        vjp)

    def sibling_scores(self, parent: Tensor, parent_b: Tensor, left: Tensor, right: Tensor,
                       left_a: Tensor, right_a: Tensor) -> Tensor:
        """The outside scores of each pair's left child, then of its right
        child, (2B,), as one tape node: the left child's is its sibling's
        inside score + compat(parent, right) under the outside maps + the
        parent's outside score, and the right child's the same with left.
        MLP_L(parent) runs once.

        The VJP is the tape's for two compat scores and their adds (the
        composite in tests/composites.py), the left child's first. Inputs
        are listed so that a backward pass reaches them in that tape's
        order: the left child's terms, the right child's, then parent_b.
        """
        if any(t.shape[-1] != self.d for t in (parent, left, right)):
            raise ValueError(f"compatibility expects dim {self.d}")
        maps = self.outside
        weights = maps[0] + maps[1]
        lx, sx = _residual_mlp(maps[0], parent.data)
        score_l, vjp_l = self._score(right, lx, sx, maps)
        score_r, vjp_r = self._score(left, lx, sx, maps)
        b = len(score_l)

        def vjp(g):
            g_l, g_r = g[:b], g[b:]
            return [g_l, *vjp_l(g_l), g_r, *vjp_r(g_r), g_l, g_r]

        out = np.concatenate([(right_a.data + score_l) + parent_b.data,
                              (left_a.data + score_r) + parent_b.data])
        return ad._node(out, (right_a, parent, parent, right, right) + weights
                        + (left_a, parent, parent, left, left) + weights
                        + (parent_b, parent_b), vjp)


class CioStack(Module):
    """L inside-outside layers plus the shared scoring and boundary tensors.

    Per layer: inside compose weights alpha_l and outside weights beta_l
    (beta_l is alpha_l when `share`), and a learned root-outside vector.
    Shared across layers: the compatibility head and the layer-0 outside
    tensor broadcast to every cell before the first inside pass.
    """

    def __init__(self, name: str, layers: int, d: int, heads: int, depth: int,
                 share: bool, rng: np.random.Generator):
        super().__init__()
        if layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = layers
        self.d = d
        self.alpha: list[ComposeParams] = []
        self.beta: list[ComposeParams] = []
        for l in range(layers):
            a = self._child(ComposeParams(f"{name}.{l}.alpha", d, heads, depth, rng))
            self.alpha.append(a)
            if share:
                self.beta.append(a)
            else:
                self.beta.append(self._child(
                    ComposeParams(f"{name}.{l}.beta", d, heads, depth, rng)))
        self.compat = self._child(CompatHead(f"{name}.compat", d, rng))
        self.outside0 = self._param(f"{name}.outside0", _normal(rng, (d,)))
        self.roots = [self._param(f"{name}.{l}.root", _normal(rng, (d,)))
                      for l in range(layers)]


# ---------------------------------------------------------------------------
# static per-sentence plan
# ---------------------------------------------------------------------------

@dataclass
class BatchPlan:
    """Precomputed index arrays for one cell batch."""

    spans: list[Span]
    pair_left: np.ndarray       # (P,) arena row of each split's left child
    pair_right: np.ndarray      # (P,)
    pair_cell: np.ndarray       # (P,) arena row of the owning cell
    pair_cell_pos: np.ndarray   # (P,) position of the owning cell inside the batch
    score_pad: np.ndarray       # (C, W) each cell's pair indices (see _pad_matrix)
    pool_pad: np.ndarray | None = None  # (C, U) each cell's rows of the outside
    # candidate arena (see _pad_matrix); set once every batch is planned


@dataclass
class EnginePlan:
    """Everything index-shaped the engine needs, computed once per sentence."""

    n: int
    splits: dict[Span, tuple[int, ...]]  # every kept cell's splits, in wave order
    spans: list[Span]
    row_of: dict[Span, int]
    batches: list[BatchPlan]    # non-leaf batches in execution order
    leaf_pool: np.ndarray       # (n, U) the leaves' rows of the outside candidate arena

    @property
    def rows(self) -> int:
        return len(self.spans)

    def non_leaf_batches(self) -> int:
        return len(self.batches)


def _pad_matrix(groups: list[list[int]]) -> np.ndarray:
    """One row per group, as wide as the widest; a row's empty slots repeat
    its first index, so a gather stays in range and _softmax_pool masks them."""
    out = np.empty((len(groups), max(len(g) for g in groups)), dtype=np.intp)
    for r, g in enumerate(groups):
        out[r, :len(g)] = g
        out[r, len(g):] = g[0]
    return out


def plan_engine(waves: list[dict[Span, tuple[int, ...]]]) -> EnginePlan:
    """Lower `build_cell_batches`' waves to flat gather/scatter index arrays.

    The waves were checked when they were built, so this only lays out
    rows: leaves first, then each wave's cells. It also fixes the outside
    candidate routing. The candidate arena's row 0 is the root; then each
    wave, last first, emits one candidate per child of each of its pairs
    (left children then right children, in pair order), so a cell's
    candidates are exactly the rows its parent paths emitted.
    """
    n = next(iter(waves[-1]))[1] if waves else 1
    splits = {span: ks for wave in waves for span, ks in wave.items()}
    spans = [(i, i) for i in range(1, n + 1)] + list(splits)
    row_of = {s: r for r, s in enumerate(spans)}

    plans: list[BatchPlan] = []
    for wave in waves:
        pl, pr, pc, pp = [], [], [], []
        groups: list[list[int]] = []
        for pos, ((i, j), ks) in enumerate(wave.items()):
            group = []
            for k in ks:
                group.append(len(pl))
                pl.append(row_of[(i, k)])
                pr.append(row_of[(k + 1, j)])
                pc.append(row_of[(i, j)])
                pp.append(pos)
            groups.append(group)
        plans.append(BatchPlan(
            spans=list(wave),
            pair_left=np.array(pl, dtype=np.intp),
            pair_right=np.array(pr, dtype=np.intp),
            pair_cell=np.array(pc, dtype=np.intp),
            pair_cell_pos=np.array(pp, dtype=np.intp),
            score_pad=_pad_matrix(groups),
        ))

    # candidate-arena row c pools into arena row targets[c]
    targets = np.concatenate([[row_of[(1, n)]]] + [
        np.concatenate([bp.pair_left, bp.pair_right]) for bp in reversed(plans)])
    parents: list[list[int]] = [[] for _ in spans]
    for c, r in enumerate(targets):
        parents[r].append(c)
    for bp in plans:
        bp.pool_pad = _pad_matrix([parents[row_of[s]] for s in bp.spans])

    return EnginePlan(n=n, splits=splits, spans=spans, row_of=row_of,
                      batches=plans, leaf_pool=_pad_matrix(parents[:n]))


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Efficiency counters, summed over every run_stack call that shares
    this object: compose pairs ("MLP runs"), batched compose calls, and
    non-leaf cells encoded. run_stack reads them off its plan."""

    pairs_composed: int = 0
    batched_calls: int = 0
    cells_encoded: int = 0


@dataclass
class LayerState:
    """Arena-shaped results of one layer (rows = leaves then batch cells)."""

    inside: Tensor          # (rows, d) e-hat
    inside_score: Tensor    # (rows,)   a
    outside: Tensor         # (rows, d) e-check
    outside_score: Tensor   # (rows,)   b


@dataclass
class StackResult:
    plan: EnginePlan
    layers: list[LayerState]
    pair_scores: dict[Span, np.ndarray]  # last-layer a[k] per kept split
    stats: EngineStats

    @property
    def final(self) -> LayerState:
        return self.layers[-1]


def _softmax_pool(vecs: Tensor, scores: Tensor, pad: np.ndarray) -> tuple[Tensor, Tensor]:
    """Softmax-weighted sum of candidates, one output row per row of `pad`.

    vecs (R, d) and scores (R,) hold the candidates; pad (C, W) indexes them,
    a row's empty slots repeating its first index (_pad_matrix). Returns the
    (C, d) vectors and the (C,) expected scores. An empty slot's softmax
    weight is exactly 0, so its duplicate adds exactly 0 to both outputs and
    to every gradient.
    """
    if pad.shape[1] == 1:  # a one-candidate softmax weighs exactly 1
        idx = pad[:, 0]
        return ad.gather(vecs, idx), ad.gather(scores, idx)
    empty = pad == pad[:, :1]
    empty[:, 0] = False
    s = ad.gather(scores, pad)                                    # (C, W)
    w = ad.softmax(s + np.where(empty, -np.inf, 0.0), axis=1)
    vec = ad.tsum(ad.reshape(w, w.shape + (1,)) * ad.gather(vecs, pad), axis=1)
    return vec, ad.tsum(w * s, axis=1)


def run_stack(x: Tensor, stack: CioStack, plan: EnginePlan,
              stats: EngineStats | None = None) -> StackResult:
    """Run all layers on leaf embeddings x (n, d) under the given plan."""
    n = plan.n
    if x.shape != (n, stack.d):
        raise ValueError(f"expected ({n}, {stack.d}) leaf embeddings, got {x.shape}")
    dtype = x.data.dtype
    rows = plan.rows
    layers: list[LayerState] = []
    pair_scores: dict[Span, np.ndarray] = {}

    prev_out = ad.broadcast_to(ad.reshape(stack.outside0, (1, stack.d)), (rows, stack.d))
    for l in range(stack.num_layers):
        last = l == stack.num_layers - 1
        # ---- inside sweep: each batch's cells pool their splits' candidates
        arena = x
        scores = Tensor(np.zeros(n, dtype=dtype))
        for bp in plan.batches:
            left = ad.gather(arena, bp.pair_left)
            right = ad.gather(arena, bp.pair_right)
            parent_slot = ad.gather(prev_out, bp.pair_cell)
            composed = stack.alpha[l](ad.stack([left, right, parent_slot], axis=1),
                                      [ROLE_PARENT])
            composed = ad.reshape(composed, (len(bp.pair_cell), stack.d))
            totals = stack.compat.inside_scores(left, right, ad.gather(scores, bp.pair_left),
                                                ad.gather(scores, bp.pair_right))
            cell_vec, cell_score = _softmax_pool(composed, totals, bp.score_pad)
            arena = ad.concat([arena, cell_vec], axis=0)
            scores = ad.concat([scores, cell_score], axis=0)
            if last:  # the raw a[k] of each kept split, for tree induction
                for span, pad in zip(bp.spans, bp.score_pad):
                    pair_scores[span] = totals.data[pad[:len(plan.splits[span])]]

        # ---- outside sweep ------------------------------------------------
        cand_v = ad.reshape(stack.roots[l], (1, stack.d))
        cand_s = Tensor(np.zeros(1, dtype=dtype))
        out_vecs, out_scores = [], []
        for bp in reversed(plan.batches):
            out_vec, out_b = _softmax_pool(cand_v, cand_s, bp.pool_pad)
            out_vecs.append(out_vec)
            out_scores.append(out_b)

            # emit candidates: one compose per (parent, split) serves both
            # children through slots 0 and 1
            left = ad.gather(arena, bp.pair_left)
            right = ad.gather(arena, bp.pair_right)
            parent_out = ad.gather(out_vec, bp.pair_cell_pos)
            parent_b = ad.gather(out_b, bp.pair_cell_pos)
            y = stack.beta[l](ad.stack([left, right, parent_out], axis=1),
                              [ROLE_LEFT, ROLE_RIGHT])
            cand_b = stack.compat.sibling_scores(
                parent_out, parent_b, left, right,
                ad.gather(scores, bp.pair_left), ad.gather(scores, bp.pair_right))
            cand_v = ad.concat([cand_v, y[:, 0, :], y[:, 1, :]], axis=0)  # y's left, right
            cand_s = ad.concat([cand_s, cand_b], axis=0)

        leaf_out, leaf_b = _softmax_pool(cand_v, cand_s, plan.leaf_pool)
        outside = ad.concat([leaf_out] + out_vecs[::-1], axis=0)
        outside_b = ad.concat([leaf_b] + out_scores[::-1], axis=0)

        layers.append(LayerState(inside=arena, inside_score=scores,
                                 outside=outside, outside_score=outside_b))
        prev_out = outside

    # per layer: one inside and one outside compose call per batch
    stats = stats if stats is not None else EngineStats()
    stats.batched_calls += 2 * stack.num_layers * len(plan.batches)
    stats.pairs_composed += 2 * stack.num_layers * sum(len(bp.pair_left) for bp in plan.batches)
    stats.cells_encoded += stack.num_layers * (rows - n)
    return StackResult(plan=plan, layers=layers, pair_scores=pair_scores, stats=stats)


# ---------------------------------------------------------------------------
# tree induction
# ---------------------------------------------------------------------------

def induce_order(result: StackResult, forbidden: set[int] | None = None) -> dict[Span, int]:
    """Best-split readout of the last layer's inside scores.

    From the root, each cell picks argmax over its kept splits' cumulative
    scores a[k], ties to the smaller boundary; returns `descend`'s split map,
    in preorder. A forbidden boundary is only chosen when every kept split
    of the span is forbidden (the forced move inside a multi-piece word).
    """
    splits = result.plan.splits

    def pick(i: int, j: int) -> int:
        ks, scores = splits[(i, j)], result.pair_scores[(i, j)]
        best = int(np.argmax(scores))
        if forbidden and ks[best] in forbidden:
            ok = [t for t, k in enumerate(ks) if k not in forbidden]
            if ok:
                best = ok[int(np.argmax(scores[ok]))]
        return ks[best]

    return descend(result.plan.n, pick)
