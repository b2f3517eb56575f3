"""Chart encoder: pruned inside pass, contextual outside pass, tree induction.

Each layer runs one bottom-up (inside) and one top-down (outside) sweep over
the cells a Schedule kept. Cell vectors live in a flat arena (leaf rows first,
then cells in batch order) so a whole batch is one gather / compose / scatter
round; the outside sweep walks batches in reverse. Both sweeps pool a cell's
candidates (one per split inside, one per parent path outside) the same way:
a masked softmax over their scores weights the candidate vectors and scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chart import Schedule, Span
from .nn import AttentionBlock, Module, ResidualMlp, _normal
from .trees import Node

ROLE_LEFT, ROLE_RIGHT, ROLE_PARENT = 0, 1, 2


class ComposeParams(Module):
    """Composition function: role-tagged 3-slot attention block.

    The three inputs are placed in (left, right, parent) slots, each offset
    by a learned role embedding, and run through a small transformer; the
    caller reads whichever slot the pass needs (inside: parent slot, outside:
    the target child's slot).
    """

    def __init__(self, name: str, d: int, heads: int, depth: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.d = d
        self.roles = self._param(f"{name}.roles", _normal(rng, (3, d), dtype))
        self.block = self._child(AttentionBlock(f"{name}.block", d, heads, depth, rng, dtype))

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

    def __init__(self, name: str, d: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.d = d
        self.maps = {
            "inside": (self._child(ResidualMlp(f"{name}.alpha.l", d, rng, dtype)),
                       self._child(ResidualMlp(f"{name}.alpha.r", d, rng, dtype))),
            "outside": (self._child(ResidualMlp(f"{name}.beta.l", d, rng, dtype)),
                        self._child(ResidualMlp(f"{name}.beta.r", d, rng, dtype))),
        }

    def __call__(self, x: Tensor, y: Tensor, head: str) -> Tensor:
        """(B, d) x (B, d) -> (B,) scaled inner products."""
        if x.shape[-1] != self.d or y.shape[-1] != self.d:
            raise ValueError(f"compatibility expects dim {self.d}")
        ml, mr = self.maps[head]
        return ad.tsum(ml(x) * mr(y), axis=-1) * (1.0 / np.sqrt(self.d))


class CioStack(Module):
    """L inside-outside layers plus the shared scoring and boundary tensors.

    Per layer: inside compose weights alpha_l and outside weights beta_l
    (beta_l is alpha_l when `share`), and a learned root-outside vector.
    Shared across layers: the compatibility head and the layer-0 outside
    tensor broadcast to every cell before the first inside pass.
    """

    def __init__(self, name: str, layers: int, d: int, heads: int, depth: int,
                 share: bool, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if layers < 1:
            raise ValueError("need at least one layer")
        self.num_layers = layers
        self.d = d
        self.alpha: list[ComposeParams] = []
        self.beta: list[ComposeParams] = []
        for l in range(layers):
            a = self._child(ComposeParams(f"{name}.{l}.alpha", d, heads, depth, rng, dtype))
            self.alpha.append(a)
            if share:
                self.beta.append(a)
            else:
                self.beta.append(self._child(
                    ComposeParams(f"{name}.{l}.beta", d, heads, depth, rng, dtype)))
        self.compat = self._child(CompatHead(f"{name}.compat", d, rng, dtype))
        self.outside0 = self._param(f"{name}.outside0", _normal(rng, (d,), dtype))
        self.roots = [self._param(f"{name}.{l}.root", _normal(rng, (d,), dtype))
                      for l in range(layers)]


# ---------------------------------------------------------------------------
# static per-sentence plan
# ---------------------------------------------------------------------------

@dataclass
class BatchPlan:
    """Precomputed index arrays for one cell batch."""

    spans: list[Span]
    cell_rows: np.ndarray       # (C,) arena rows of the batch's cells
    pair_left: np.ndarray       # (P,) arena row of each split's left child
    pair_right: np.ndarray      # (P,)
    pair_cell: np.ndarray       # (P,) arena row of the owning cell
    pair_cell_pos: np.ndarray   # (P,) position of the owning cell inside the batch
    pair_split: np.ndarray      # (P,) boundary value of each pair
    score_pad: np.ndarray       # (C, W) indices into 0..P, P = padding slot
    inbox: list[tuple[int, np.ndarray]] = field(default_factory=list)
    # inbox: (source batch id, rows of that batch's 2P-candidate block) pairs,
    # concatenated in arrival order to form this batch's candidate pool
    pool_pad: np.ndarray | None = None    # (C, U) pool indices, pad = pool size


@dataclass
class EnginePlan:
    """Everything index-shaped the engine needs, computed once per sentence."""

    n: int
    schedule: Schedule
    spans: list[Span]
    row_of: dict[Span, int]
    batches: list[BatchPlan]    # non-leaf batches in execution order
    leaves: BatchPlan | None    # outside pool plan for the leaf rows (inbox only)
    root_row: int

    @property
    def rows(self) -> int:
        return len(self.spans)


def _pad_matrix(groups: list[list[int]], pad: int) -> np.ndarray:
    width = max((len(g) for g in groups), default=0)
    width = max(width, 1)
    out = np.full((len(groups), width), pad, dtype=np.intp)
    for r, g in enumerate(groups):
        out[r, :len(g)] = g
    return out


def plan_engine(schedule: Schedule) -> EnginePlan:
    """Lower a Schedule to flat gather/scatter index arrays.

    Also fixes the outside candidate routing: batch t's cells emit one
    2P-row candidate block (left-child rows then right-child rows), and each
    earlier batch knows statically which rows of which blocks it pools.
    """
    n = schedule.n
    spans = schedule.ordered_spans()
    row_of = {s: r for r, s in enumerate(spans)}
    batch_of_row = np.zeros(len(spans), dtype=np.intp)
    for t, batch in enumerate(schedule.batches):
        for s in batch:
            batch_of_row[row_of[s]] = t

    if n > 1 and schedule.batches[-1] != [schedule.root]:
        raise ValueError("last batch must contain exactly the root span")

    plans: list[BatchPlan] = []
    for t, batch in enumerate(schedule.batches[1:], start=1):
        pl, pr, pc, pp, pk = [], [], [], [], []
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
                pk.append(k)
            groups.append(group)
        plans.append(BatchPlan(
            spans=list(batch),
            cell_rows=np.array([row_of[s] for s in batch], dtype=np.intp),
            pair_left=np.array(pl, dtype=np.intp),
            pair_right=np.array(pr, dtype=np.intp),
            pair_cell=np.array(pc, dtype=np.intp),
            pair_cell_pos=np.array(pp, dtype=np.intp),
            pair_split=np.array(pk, dtype=np.intp),
            score_pad=_pad_matrix(groups, pad=len(pl)),
        ))

    # candidate routing: block of batch t targets rows [pair_left; pair_right]
    T = len(plans)
    block_targets = {t: np.concatenate([plans[t - 1].pair_left, plans[t - 1].pair_right])
                     for t in range(1, T + 1)}
    leaves = BatchPlan(spans=[(i, i) for i in range(1, n + 1)],
                       cell_rows=np.arange(n, dtype=np.intp),
                       pair_left=np.zeros(0, dtype=np.intp),
                       pair_right=np.zeros(0, dtype=np.intp),
                       pair_cell=np.zeros(0, dtype=np.intp),
                       pair_cell_pos=np.zeros(0, dtype=np.intp),
                       pair_split=np.zeros(0, dtype=np.intp),
                       score_pad=np.zeros((0, 1), dtype=np.intp))

    def target_plan(t_target: int, plan: BatchPlan) -> None:
        per_row: dict[int, list[int]] = {int(r): [] for r in plan.cell_rows}
        offset = 0
        for src in range(T, t_target, -1):
            tgt = block_targets[src]
            idx = np.where(batch_of_row[tgt] == t_target)[0]
            if idx.size:
                plan.inbox.append((src, idx))
                for pos, row in enumerate(tgt[idx]):
                    per_row[int(row)].append(offset + pos)
                offset += idx.size
        rows = [int(r) for r in plan.cell_rows if spans[int(r)] != (1, n)]
        for r in rows:
            if not per_row[r]:
                raise ValueError(f"schedule violation: {spans[r]} has no parent candidates")
        plan.pool_pad = _pad_matrix([per_row[r] for r in rows], pad=offset)

    for t in range(1, T + 1):
        target_plan(t, plans[t - 1])
    target_plan(0, leaves)

    return EnginePlan(n=n, schedule=schedule, spans=spans, row_of=row_of,
                      batches=plans, leaves=leaves, root_row=row_of[schedule.root])


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

@dataclass
class EngineStats:
    """Efficiency counters: compose units ("MLP runs"), batched calls,
    non-leaf batches per inside pass ("inside steps"), cells encoded."""

    pairs_composed: int = 0
    batched_calls: int = 0
    inside_steps: int = 0
    cells_encoded: int = 0

    def add(self, other: "EngineStats") -> None:
        self.pairs_composed += other.pairs_composed
        self.batched_calls += other.batched_calls
        self.inside_steps += other.inside_steps
        self.cells_encoded += other.cells_encoded


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


def _gather_rows(arena: Tensor, rows: np.ndarray) -> Tensor:
    return ad.gather(arena, rows, axis=0)


def _pad_gather(values: Tensor, pad_value: float, pad_idx: np.ndarray) -> Tensor:
    """Gather a (R, ...) tensor into pad_idx's shape with a constant pad row."""
    pad_shape = (1,) + values.shape[1:]
    pad = Tensor(np.full(pad_shape, pad_value, dtype=values.data.dtype))
    ext = ad.concat([values, pad], axis=0)
    flat = ad.gather(ext, pad_idx.reshape(-1), axis=0)
    return ad.reshape(flat, pad_idx.shape + values.shape[1:])


def _softmax_pool(vecs: Tensor, scores: Tensor, pad: np.ndarray) -> tuple[Tensor, Tensor]:
    """Softmax-weighted sum of candidates, one output row per row of `pad`.

    vecs (R, d) and scores (R,) hold the candidates; pad (C, W) indexes them,
    with R marking an empty slot. Returns the (C, d) vectors and the (C,)
    expected scores.
    """
    if pad.shape[1] == 1:  # a one-candidate softmax weighs exactly 1
        idx = pad[:, 0]
        return _gather_rows(vecs, idx), _gather_rows(scores, idx)
    w = ad.softmax(_pad_gather(scores, -np.inf, pad), axis=1)     # (C, W)
    vec = ad.tsum(ad.reshape(w, w.shape + (1,)) * _pad_gather(vecs, 0.0, pad), axis=1)
    score = ad.tsum(w * _pad_gather(scores, 0.0, pad), axis=1)
    return vec, score


def _inside_batch(plan: BatchPlan, arena: Tensor, scores: Tensor, prev_out: Tensor,
                  alpha: ComposeParams, compat: CompatHead,
                  stats: EngineStats) -> tuple[Tensor, Tensor, np.ndarray]:
    """One batch of the inside pass; returns cell vectors, cell scores, and
    the raw per-pair totals a[k] (data only, for tree induction)."""
    left = _gather_rows(arena, plan.pair_left)
    right = _gather_rows(arena, plan.pair_right)
    parent_slot = _gather_rows(prev_out, plan.pair_cell)
    composed = alpha(ad.stack([left, right, parent_slot], axis=1))[:, ROLE_PARENT, :]

    cand = compat(left, right, "inside")
    totals = cand + _gather_rows(scores, plan.pair_left) + _gather_rows(scores, plan.pair_right)
    cell_vec, cell_score = _softmax_pool(composed, totals, plan.score_pad)

    stats.pairs_composed += len(plan.pair_left)
    stats.batched_calls += 1
    stats.inside_steps += 1
    stats.cells_encoded += len(plan.spans)
    return cell_vec, cell_score, totals.data.copy()


def run_stack(x: Tensor, stack: CioStack, plan: EnginePlan,
              stats: EngineStats | None = None) -> StackResult:
    """Run all layers on leaf embeddings x (n, d) under the given plan."""
    n = plan.n
    if x.shape != (n, stack.d):
        raise ValueError(f"expected ({n}, {stack.d}) leaf embeddings, got {x.shape}")
    dtype = x.data.dtype
    rows = plan.rows
    stats = stats if stats is not None else EngineStats()
    layers: list[LayerState] = []
    pair_scores: dict[Span, np.ndarray] = {}

    prev_out = ad.broadcast_to(ad.reshape(stack.outside0, (1, stack.d)), (rows, stack.d))
    for l in range(stack.num_layers):
        # ---- inside sweep -------------------------------------------------
        arena = x
        scores = Tensor(np.zeros(n, dtype=dtype))
        totals_by_batch: list[np.ndarray] = []
        for bp in plan.batches:
            cell_vec, cell_score, totals = _inside_batch(
                bp, arena, scores, prev_out, stack.alpha[l], stack.compat, stats)
            arena = ad.concat([arena, cell_vec], axis=0)
            scores = ad.concat([scores, cell_score], axis=0)
            totals_by_batch.append(totals)

        if l == stack.num_layers - 1:
            for bp, totals in zip(plan.batches, totals_by_batch):
                for span, group in zip(bp.spans, _split_groups(bp)):
                    pair_scores[span] = totals[group]

        # ---- outside sweep ------------------------------------------------
        out_blocks: dict[int, tuple[Tensor, Tensor]] = {}
        emit_blocks: dict[int, tuple[Tensor, Tensor]] = {}
        root_vec = ad.reshape(stack.roots[l], (1, stack.d))
        root_b = Tensor(np.zeros(1, dtype=dtype))

        T = len(plan.batches)
        for t in range(T, 0, -1):
            bp = plan.batches[t - 1]
            if t == T and n > 1:
                out_vec, out_b = root_vec, root_b
            else:
                pool_v, pool_s = _gather_inbox(bp, emit_blocks)
                out_vec, out_b = _softmax_pool(pool_v, pool_s, bp.pool_pad)
            out_blocks[t] = (out_vec, out_b)

            # emit candidates: one compose per (parent, split) serves both
            # children through slots 0 and 1
            left = _gather_rows(arena, bp.pair_left)
            right = _gather_rows(arena, bp.pair_right)
            parent_out = _gather_rows(out_vec, bp.pair_cell_pos)
            parent_b = _gather_rows(out_b, bp.pair_cell_pos)
            y = stack.beta[l](ad.stack([left, right, parent_out], axis=1))
            cand_left = y[:, ROLE_LEFT, :]
            cand_right = y[:, ROLE_RIGHT, :]
            b_left = _gather_rows(scores, bp.pair_right) \
                + stack.compat(parent_out, right, "outside") + parent_b
            b_right = _gather_rows(scores, bp.pair_left) \
                + stack.compat(parent_out, left, "outside") + parent_b
            emit_blocks[t] = (ad.concat([cand_left, cand_right], axis=0),
                              ad.concat([b_left, b_right], axis=0))
            stats.pairs_composed += len(bp.pair_left)
            stats.batched_calls += 1

        if n == 1:
            leaf_out, leaf_b = root_vec, root_b
        else:
            pool_v, pool_s = _gather_inbox(plan.leaves, emit_blocks)
            leaf_out, leaf_b = _softmax_pool(pool_v, pool_s, plan.leaves.pool_pad)

        out_parts = [leaf_out] + [out_blocks[t][0] for t in range(1, T + 1)]
        out_b_parts = [leaf_b] + [out_blocks[t][1] for t in range(1, T + 1)]
        outside = ad.concat(out_parts, axis=0) if len(out_parts) > 1 else out_parts[0]
        outside_b = ad.concat(out_b_parts, axis=0) if len(out_b_parts) > 1 else out_b_parts[0]

        layers.append(LayerState(inside=arena, inside_score=scores,
                                 outside=outside, outside_score=outside_b))
        prev_out = outside

    return StackResult(plan=plan, layers=layers, pair_scores=pair_scores, stats=stats)


def _split_groups(bp: BatchPlan) -> list[np.ndarray]:
    return [np.where(bp.pair_cell_pos == pos)[0] for pos in range(len(bp.spans))]


def _gather_inbox(bp: BatchPlan, emit_blocks: dict[int, tuple[Tensor, Tensor]]
                  ) -> tuple[Tensor, Tensor]:
    """Assemble this batch's candidate pool from the emitted blocks."""
    v_parts, s_parts = [], []
    for src, idx in bp.inbox:
        bv, bs = emit_blocks[src]
        v_parts.append(ad.gather(bv, idx, axis=0))
        s_parts.append(ad.gather(bs, idx, axis=0))
    if not v_parts:
        raise ValueError("schedule violation: no parent candidates to pool")
    if len(v_parts) == 1:
        return v_parts[0], s_parts[0]
    return ad.concat(v_parts, axis=0), ad.concat(s_parts, axis=0)


# ---------------------------------------------------------------------------
# tree induction
# ---------------------------------------------------------------------------

def induce_order(result: StackResult, forbidden: set[int] | None = None):
    """Recursive best-split readout of the last layer's inside scores.

    From the root, each cell picks argmax over its kept splits' cumulative
    scores a[k], ties to the smaller boundary; returns preorder SplitSteps.
    A forbidden boundary is only chosen when every kept split of the span is
    forbidden (the forced move inside a multi-piece word).
    """
    from .pruning import SplitStep

    n = result.plan.n
    splits = result.plan.schedule.splits
    steps: list[SplitStep] = []

    def walk(span: Span) -> None:
        i, j = span
        if i == j:
            return
        ks = splits[span]
        scores = result.pair_scores[span]
        pick = int(np.argmax(scores))
        if forbidden and ks[pick] in forbidden:
            ok = [t for t, k in enumerate(ks) if k not in forbidden]
            if ok:
                pick = ok[int(np.argmax(scores[ok]))]
        k = ks[pick]
        steps.append(SplitStep(k, span))
        walk((i, k))
        walk((k + 1, j))

    if n > 1:
        walk((1, n))
    return steps


def induce_tree(result: StackResult, tokens: list[str],
                forbidden: set[int] | None = None) -> Node:
    """Binary tree form of induce_order; n=1 gives a single leaf."""
    from .pruning import tree_from_order

    if len(tokens) != result.plan.n:
        raise ValueError(f"expected {result.plan.n} tokens, got {len(tokens)}")
    return tree_from_order(induce_order(result, forbidden), tokens)

