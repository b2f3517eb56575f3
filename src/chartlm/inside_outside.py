"""Chart encoder: pruned inside pass, contextual outside pass, tree induction.

Each layer runs one bottom-up (inside) and one top-down (outside) sweep over
the cells a Schedule kept. Cell vectors live in a flat arena (leaf rows first,
then cells in batch order) so a whole batch is one gather / compose / scatter
round. The outside sweep walks batches in reverse and grows a second arena,
of outside candidates: row 0 is the layer's learned root vector, then each
batch appends the candidates it emits for its cells' children. Both sweeps
pool a cell's candidates (one per split inside, one per parent path outside)
the same way: one gather from the arena, then a masked softmax over their
scores weights the candidate vectors and scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chart import Schedule, Span
from .nn import AttentionBlock, Module, ResidualMlp, _normal
from .trees import descend

ROLE_LEFT, ROLE_RIGHT, ROLE_PARENT = 0, 1, 2


class ComposeParams(Module):
    """Composition function: role-tagged 3-slot attention block.

    The three inputs are placed in (left, right, parent) slots, each offset
    by a learned role embedding, and run through a small transformer; the
    caller reads whichever slot the pass needs (inside: parent slot, outside:
    the target child's slot).
    """

    def __init__(self, name: str, d: int, heads: int, depth: int, rng: np.random.Generator):
        super().__init__()
        self.d = d
        self.roles = self._param(f"{name}.roles", _normal(rng, (3, d)))
        self.block = self._child(AttentionBlock(f"{name}.block", d, heads, depth, rng))

    def __call__(self, slots: Tensor) -> Tensor:
        """slots (B, 3, d) -> (B, 3, d); slot selection is the caller's."""
        if slots.shape[-2:] != (3, self.d):
            raise ValueError(f"compose expects (*, 3, {self.d}) slots, got {slots.shape}")
        return self.block(slots + ad.reshape(self.roles, (1, 3, self.d)))


class CompatHead(Module):
    """Split/parent plausibility: MLP_L(x) . MLP_R(y) / sqrt(d).

    One pair of residual MLPs for the inside head and one for the outside
    head; the same instances serve every layer of the stack.
    """

    def __init__(self, name: str, d: int, rng: np.random.Generator):
        super().__init__()
        self.d = d
        self.maps = {
            "inside": (self._child(ResidualMlp(f"{name}.alpha.l", d, rng)),
                       self._child(ResidualMlp(f"{name}.alpha.r", d, rng))),
            "outside": (self._child(ResidualMlp(f"{name}.beta.l", d, rng)),
                        self._child(ResidualMlp(f"{name}.beta.r", d, rng))),
        }

    def __call__(self, x: Tensor, y: Tensor, head: str) -> Tensor:
        """(B, d) x (B, d) -> (B,) scaled inner products, as one tape node.

        x and y each feed a map's residual path and its fc1, so each is an
        input twice, residual gradient first: the tape's order for the
        composite (tests/composites.py), which the VJP replays bit for bit.
        """
        if x.shape[-1] != self.d or y.shape[-1] != self.d:
            raise ValueError(f"compatibility expects dim {self.d}")
        maps = self.maps[head]
        params = tuple(p for m in maps for p in m.parameters())
        scale = x.dtype.type(1.0 / np.sqrt(self.d))
        pre = [v.data @ m.fc1.w.data + m.fc1.b.data for v, m in zip((x, y), maps)]
        act = [ad.gelu_np(a) for a in pre]
        lx, ry = (v.data + (a @ m.fc2.w.data + m.fc2.b.data)  # v + W2 gelu(W1 v)
                  for v, a, m in zip((x, y), act, maps))

        def vjp(g):
            gp = np.broadcast_to(np.expand_dims(g * scale, -1), lx.shape)
            grads, weights = [], []
            for v, p, a, m, gm in zip((x, y), pre, act, maps, (gp * ry, gp * lx)):
                gpre = (gm @ ad.mT(m.fc2.w.data)) * ad.gelu_grad(p)
                grads += [gm, gpre @ ad.mT(m.fc1.w.data)]  # residual path, then fc1
                weights += [ad.mT(v.data) @ gpre, gpre.sum(axis=0), ad.mT(a) @ gm, gm.sum(axis=0)]
            return grads + weights

        out = (lx * ry).sum(axis=-1) * scale
        return ad._node(out, (x, x, y, y) + params, vjp)


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
    schedule: Schedule
    spans: list[Span]
    row_of: dict[Span, int]
    batches: list[BatchPlan]    # non-leaf batches in execution order
    leaf_pool: np.ndarray       # (n, U) the leaves' rows of the outside candidate arena

    @property
    def rows(self) -> int:
        return len(self.spans)


def _pad_matrix(groups: list[list[int]]) -> np.ndarray:
    """One row per group, as wide as the widest; a row's empty slots repeat
    its first index, so a gather stays in range and _softmax_pool masks them."""
    out = np.empty((len(groups), max(len(g) for g in groups)), dtype=np.intp)
    for r, g in enumerate(groups):
        out[r, :len(g)] = g
        out[r, len(g):] = g[0]
    return out


def plan_engine(schedule: Schedule) -> EnginePlan:
    """Lower a Schedule to flat gather/scatter index arrays.

    Also fixes the outside candidate routing. The candidate arena's row 0 is
    the root; then each batch, last first, emits one candidate per child of
    each of its pairs (left children then right children, in pair order), so
    a cell's candidates are exactly the rows its parent paths emitted.
    """
    n = schedule.n
    spans = schedule.ordered_spans()
    row_of = {s: r for r, s in enumerate(spans)}

    plans: list[BatchPlan] = []
    for batch in schedule.batches[1:]:
        pl, pr, pc, pp = [], [], [], []
        groups: list[list[int]] = []
        for pos, span in enumerate(batch):
            i, j = span
            ks = schedule.splits[span]
            if tuple(sorted(ks)) != tuple(ks):
                raise ValueError(f"splits of {span} not sorted")
            group = []
            for k in ks:
                group.append(len(pl))
                pl.append(row_of[(i, k)])
                pr.append(row_of[(k + 1, j)])
                pc.append(row_of[span])
                pp.append(pos)
            groups.append(group)
        plans.append(BatchPlan(
            spans=list(batch),
            pair_left=np.array(pl, dtype=np.intp),
            pair_right=np.array(pr, dtype=np.intp),
            pair_cell=np.array(pc, dtype=np.intp),
            pair_cell_pos=np.array(pp, dtype=np.intp),
            score_pad=_pad_matrix(groups),
        ))

    # candidate-arena row c pools into arena row targets[c]
    targets = np.concatenate([[row_of[schedule.root]]] + [
        np.concatenate([bp.pair_left, bp.pair_right]) for bp in reversed(plans)])
    parents: list[list[int]] = [[] for _ in spans]
    for c, r in enumerate(targets):
        parents[r].append(c)
    for r, cands in enumerate(parents):
        if not cands:
            raise ValueError(f"schedule violation: {spans[r]} has no parent candidates")
    for bp in plans:
        bp.pool_pad = _pad_matrix([parents[row_of[s]] for s in bp.spans])

    return EnginePlan(n=n, schedule=schedule, spans=spans, row_of=row_of,
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
            slots = stack.alpha[l](ad.stack([left, right, parent_slot], axis=1))
            composed = slots[:, ROLE_PARENT, :]
            totals = stack.compat(left, right, "inside") \
                + ad.gather(scores, bp.pair_left) + ad.gather(scores, bp.pair_right)
            cell_vec, cell_score = _softmax_pool(composed, totals, bp.score_pad)
            arena = ad.concat([arena, cell_vec], axis=0)
            scores = ad.concat([scores, cell_score], axis=0)
            if last:  # the raw a[k] of each kept split, for tree induction
                for span, pad in zip(bp.spans, bp.score_pad):
                    pair_scores[span] = totals.data[pad[:len(plan.schedule.splits[span])]]

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
            y = stack.beta[l](ad.stack([left, right, parent_out], axis=1))
            b_left = ad.gather(scores, bp.pair_right) \
                + stack.compat(parent_out, right, "outside") + parent_b
            b_right = ad.gather(scores, bp.pair_left) \
                + stack.compat(parent_out, left, "outside") + parent_b
            cand_v = ad.concat([cand_v, y[:, ROLE_LEFT, :], y[:, ROLE_RIGHT, :]], axis=0)
            cand_s = ad.concat([cand_s, b_left, b_right], axis=0)

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
    splits = result.plan.schedule.splits

    def pick(i: int, j: int) -> int:
        ks, scores = splits[(i, j)], result.pair_scores[(i, j)]
        best = int(np.argmax(scores))
        if forbidden and ks[best] in forbidden:
            ok = [t for t, k in enumerate(ks) if k not in forbidden]
            if ok:
                best = ok[int(np.argmax(scores[ok]))]
        return ks[best]

    return descend(result.plan.n, pick)
