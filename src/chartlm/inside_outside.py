"""Chart encoder: pruned inside pass, contextual outside pass, tree induction.

Each layer runs one bottom-up (inside) and one top-down (outside) sweep over
the cells `build_cell_batches` kept, in plain numpy, and records the layer
as one tape node (`CioStack.layer`). Cell vectors live in a flat arena
allocated once per layer (leaf rows first, then cells in wave order), so a
whole wave is one gather / compose / write round. The outside sweep walks
the waves in reverse and fills a second arena, of outside candidates: row 0
is the layer's learned root vector, then each wave writes the candidates it
emits for its cells' children. Both sweeps pool a cell's candidates (one per
split inside, one per parent path outside) the same way: one gather from
the arena, then a softmax over their scores, with the -inf mask of the
empty slots built once per plan, weights the candidate vectors and scores.
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

    def __call__(self, slots: np.ndarray, read: list[int] | None = None):
        """slots (B, 3, d) -> (B, len(read), d), the slots `read` of the output
        (all three when None): the inside sweep reads the parent slot, the
        outside sweep both child slots. Returns the output and its VJP, which
        maps the output's gradient to the slots', the role embeddings' and
        a list of the block weights' (`block.params` order)."""
        if slots.shape[-2:] != (3, self.d):
            raise ValueError(f"compose expects (*, 3, {self.d}) slots, got {slots.shape}")
        out, vjp_block = self.block.forward_np(slots + self.roles.data.reshape(1, 3, self.d), read)

        def vjp(g):
            g_slots, g_weights = vjp_block(g)
            return (g_slots, ad._unbroadcast(g_slots, (1, 3, self.d)).reshape(3, self.d),
                    g_weights)

        return out, vjp


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
    map's as (W1, b1, W2, b2), of the inside sweep's scores,
    `inside_scores_np`, and the outside sweep's, `sibling_scores_np`. The
    same weights serve every layer of the stack.
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
        ry, sy = _residual_mlp(maps[1], y)

        def vjp(g):
            gp = np.broadcast_to(np.expand_dims(g * scale, -1), lx.shape)
            gx, wx = _residual_mlp_vjp(maps[0], sx, gp * ry)
            gy, wy = _residual_mlp_vjp(maps[1], sy, gp * lx)
            return gx + gy + wx + wy

        return (lx * ry).sum(axis=-1) * scale, vjp

    def inside_scores_np(self, left, right, left_a, right_a):
        """compat(left, right) + left_a + right_a on plain arrays, (B,): the
        inside sweep's split totals, and their VJP. The VJP replays the
        tape's for the composite (tests/composites.py). Left and right each
        feed a map's residual path and its fc1, so its gradients are those
        of left, left, right, right, the MLP_L then MLP_R weights, left_a
        and right_a."""
        maps = self.inside
        score, vjp_score = self._score(right, *_residual_mlp(maps[0], left), maps)

        def vjp(g):
            return [*vjp_score(g), g, g]

        return (score + left_a) + right_a, vjp

    def sibling_scores_np(self, parent, parent_b, left, right, left_a, right_a):
        """The outside scores of each pair's left child, then of its right
        child, (2B,), on plain arrays, and their VJP: the left child's is its
        sibling's inside score + compat(parent, right) under the outside
        maps + the parent's outside score, and the right child's the same
        with left. MLP_L(parent) runs once. The VJP replays the tape's for
        two compat scores and their adds (the composite in
        tests/composites.py), the left child's first, and its gradients
        follow that tape's order: right_a, parent twice, right twice and the
        outside maps' weights for the left child's score, then the same with
        left_a and left for the right child's, then parent_b twice."""
        maps = self.outside
        lx, sx = _residual_mlp(maps[0], parent)
        score_l, vjp_l = self._score(right, lx, sx, maps)
        score_r, vjp_r = self._score(left, lx, sx, maps)
        b = len(score_l)

        def vjp(g):
            g_l, g_r = g[:b], g[b:]
            return [g_l, *vjp_l(g_l), g_r, *vjp_r(g_r), g_l, g_r]

        return np.concatenate([(right_a + score_l) + parent_b,
                               (left_a + score_r) + parent_b]), vjp


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

    def layer(self, l: int, x: Tensor, prev_out: Tensor, plan: "EnginePlan") -> "LayerState":
        """Layer l on leaf embeddings x (n, d), with prev_out (rows, d) in the
        inside sweep's parent slots. `outside`, which the next layer and the
        node encoder read, is one tape node; the other LayerState fields are
        plain arrays.

        The VJP walks the waves in reverse and calls the fused ops' VJPs. It
        adds every gradient in the order the per-op tape (tests/composites.py)
        adds it, so the two agree bit for bit:
        - an arena's gradient is one buffer (`_ArenaGrad`), and a gather's
          scatter lands on the rows it read, in the tape's order;
        - each input is listed once per use, in the order the tape reached
          its uses: prev_out and x get full-size gather gradients (prev_out
          in its own layout), the weights get each fused call's, outside
          sweep first, and the role embeddings follow the order in which
          the tape found the compose calls;
        - a use the backward did not reach gets None, as the tape skips it.
        """
        n, d, rows = plan.n, self.d, plan.rows
        dtype = x.data.dtype
        alpha, beta, compat = self.alpha[l], self.beta[l], self.compat
        batches = plan.batches
        T = len(batches)
        parent_in = prev_out.data

        # ---- inside sweep: each batch's cells pool their splits' candidates
        inside = np.empty((rows, d), dtype=dtype)
        inside[:n] = x.data
        a = np.zeros(rows, dtype=dtype)
        pair_scores = np.empty(plan.pairs, dtype=dtype)
        inside_steps = []
        for bp in batches:
            left, right = inside[bp.pair_left], inside[bp.pair_right]
            composed, compose_vjp = alpha(
                np.stack([left, right, parent_in[bp.pair_cell]], axis=1), [ROLE_PARENT])
            totals, totals_vjp = compat.inside_scores_np(left, right, a[bp.pair_left],
                                                         a[bp.pair_right])
            inside[bp.cells], a[bp.cells], pool_vjp = _pool(
                composed.reshape(len(left), d), totals, bp.split_pool)
            pair_scores[bp.pairs] = totals
            if ad._grad_enabled:  # the VJPs hold their wave's arrays
                inside_steps.append((compose_vjp, totals_vjp, pool_vjp))

        # ---- outside sweep, last wave first: one compose per (parent,
        # split) serves both children through slots 0 and 1; the candidates
        # go to the arena from row starts[t] on, left children then right
        cand_v = np.empty((plan.candidates, d), dtype=dtype)
        cand_s = np.zeros(plan.candidates, dtype=dtype)
        cand_v[0] = self.roots[l].data
        outside = np.empty((rows, d), dtype=dtype)
        b = np.empty(rows, dtype=dtype)
        outside_steps, starts = [None] * T, [0] * T
        c = 1
        for t in reversed(range(T)):
            bp = batches[t]
            outside[bp.cells], b[bp.cells], pool_vjp = _pool(cand_v, cand_s, bp.parent_pool)
            left, right = inside[bp.pair_left], inside[bp.pair_right]
            parent, parent_b = outside[bp.cells][bp.pair_cell_pos], b[bp.cells][bp.pair_cell_pos]
            y, compose_vjp = beta(np.stack([left, right, parent], axis=1),
                                  [ROLE_LEFT, ROLE_RIGHT])
            p = len(left)
            cand_s[c:c + 2 * p], sibling_vjp = compat.sibling_scores_np(
                parent, parent_b, left, right, a[bp.pair_left], a[bp.pair_right])
            cand_v[c:c + p], cand_v[c + p:c + 2 * p] = y[:, 0], y[:, 1]
            if ad._grad_enabled:
                outside_steps[t], starts[t] = (pool_vjp, compose_vjp, sibling_vjp), c
            c += 2 * p
        outside[:n], b[:n], leaf_vjp = _pool(cand_v, cand_s, plan.leaf_pool)

        # the compose calls, as (sweep, wave), in the order the tape reaches
        # their role adds
        if alpha is beta and T:
            roles_order = ([("o", t) for t in range(T - 1)] + [("i", t) for t in range(T)]
                           + [("o", T - 1)])
        else:
            roles_order = [("i", t) for t in range(T)] + [("o", t) for t in range(T)]
        outer = compat.outside[0] + compat.outside[1]
        inner = compat.inside[0] + compat.inside[1]
        inputs = ((x,) * (3 if T else 1) + (prev_out,) * T + (self.roots[l],)
                  + tuple((beta if sweep == "o" else alpha).roles for sweep, _ in roles_order)
                  + beta.block.params * T + alpha.block.params * T
                  + (outer + outer) * T + inner * T)

        def vjp(g_out):
            arena, score = _ArenaGrad((rows, d), dtype), _ArenaGrad((rows,), dtype)
            g_cand = [np.zeros_like(cand_v), np.zeros_like(cand_s)]
            cand_reached = [False, False]  # the candidate arenas, vectors and scores

            def pool_back(pool_vjp, pool, g_vec, g_score):
                for i, g_rows in enumerate(pool_vjp(g_vec, g_score)):
                    if g_rows is not None:
                        g_cand[i][pool.rows] += g_rows
                        cand_reached[i] = True

            # ---- outside sweep, last candidates first
            pool_back(leaf_vjp, plan.leaf_pool, g_out[:n], None)
            g_roles, g_compose, g_siblings = {}, {}, [None] * T
            for t in range(T):
                bp = batches[t]
                pool_vjp, compose_vjp, sibling_vjp = outside_steps[t]
                c, p = starts[t], len(bp.pair_left)
                g_left, g_right, g_parent, g_parent_b = [], [], [], []
                if cand_reached[1]:  # the scores emitted here
                    g = sibling_vjp(g_cand[1][c:c + 2 * p])
                    g_siblings[t] = g[5:13] + g[18:26]
                    g_left += g[16:18]
                    g_right += g[3:5]
                    g_parent += g[1:3] + g[14:16]
                    g_parent_b += g[26:28]
                    score.add(bp.pair_right, g[0], bp.unique_children)
                    score.add(bp.pair_left, g[13], bp.unique_children)
                if cand_reached[0]:  # the vectors emitted here
                    g_y = np.zeros((p, 2, d), dtype=dtype)
                    g_y[:, 0] += g_cand[0][c:c + p]
                    g_y[:, 1] += g_cand[0][c + p:c + 2 * p]
                    g_slots, g_roles["o", t], g_compose["o", t] = compose_vjp(g_y)
                    g_left.append(g_slots[:, 0])
                    g_right.append(g_slots[:, 1])
                    g_parent.append(g_slots[:, 2])
                if g_left:
                    arena.add(bp.pair_left, _total(g_left), bp.unique_children)
                    arena.add(bp.pair_right, _total(g_right), bp.unique_children)
                g_vec = g_out[bp.cells]  # the output's rows, then the pair reads'
                if g_parent:
                    g_vec = _total([g_vec, _scattered(outside[bp.cells], bp.pair_cell_pos,
                                                      g_parent)])
                pool_back(pool_vjp, bp.parent_pool, g_vec,
                          _scattered(b[bp.cells], bp.pair_cell_pos, g_parent_b))
            g_root = g_cand[0][0] if cand_reached[0] else None

            # ---- inside sweep, last wave first
            g_totals, g_prev, g_x = [None] * T, [None] * T, [None]
            for t in reversed(range(T)):
                bp = batches[t]
                compose_vjp, totals_vjp, pool_vjp = inside_steps[t]
                p = len(bp.pair_left)
                g_vec, g_score = pool_vjp(arena.rows(bp.cells), score.rows(bp.cells))
                g_left, g_right = [], []
                if g_score is not None:
                    g_tot = np.zeros(p, dtype=dtype)
                    g_tot[bp.split_pool.rows] += g_score
                    g_t = totals_vjp(g_tot)
                    g_totals[t] = g_t[4:12]
                    g_left += g_t[0:2]
                    g_right += g_t[2:4]
                if g_vec is not None:
                    g_comp = np.zeros((p, d), dtype=dtype)
                    g_comp[bp.split_pool.rows] += g_vec
                    g_slots, g_roles["i", t], g_compose["i", t] = compose_vjp(
                        g_comp.reshape(p, 1, d))
                    g_left.append(g_slots[:, 0])
                    g_right.append(g_slots[:, 1])
                    g_prev[t] = _scattered(parent_in, bp.pair_cell, [g_slots[:, 2]])
                if t == 0:  # the reads of x, after its rows of the arena
                    g_x = [arena.rows(slice(0, n))] + [
                        _scattered(x.data, idx, g) for idx, g in ((bp.pair_left, g_left),
                                                                  (bp.pair_right, g_right))]
                    break
                if g_left:
                    arena.add(bp.pair_left, _total(g_left), bp.unique_children)
                    arena.add(bp.pair_right, _total(g_right), bp.unique_children)
                if g_score is not None:
                    score.add(bp.pair_left, g_t[12], bp.unique_children)
                    score.add(bp.pair_right, g_t[13], bp.unique_children)

            nones = [None] * len(alpha.block.params)
            return (g_x + g_prev + [g_root]
                    + [g_roles.get(key) for key in roles_order]
                    + [g for t in range(T) for g in g_compose.get(("o", t), nones)]
                    + [g for t in reversed(range(T)) for g in g_compose.get(("i", t), nones)]
                    + [g for t in range(T) for g in g_siblings[t] or [None] * 16]
                    + [g for t in reversed(range(T)) for g in g_totals[t] or [None] * 8])

        return LayerState(inside, a, ad._node(outside, inputs, vjp), b, pair_scores)


def _total(grads: list[np.ndarray]) -> np.ndarray:
    """A tensor's gradient from its uses' gradients, added in order as the
    tape's accumulation does: a copy of the first, then the rest in place."""
    out = np.array(grads[0], copy=True)
    for g in grads[1:]:
        out += g
    return out


def _scattered(source: np.ndarray, idx: np.ndarray, grads: list) -> np.ndarray | None:
    """A gather's VJP: its uses' total gradient added at idx into zeros
    like the gathered source, layout included; None when no use was
    reached."""
    if not grads:
        return None
    full = np.zeros_like(source)
    np.add.at(full, idx, _total(grads))
    return full


class _ArenaGrad:
    """One arena's gradient through a sweep's backward: each gather's
    scatter on the rows it read, added into zeros as large as the arena
    (the tape scattered into zeros as large as the arena at that wave,
    which gives the same bits)."""

    def __init__(self, shape: tuple, dtype):
        self.reached = False
        self.g = np.zeros(shape, dtype)

    def add(self, idx: np.ndarray, g: np.ndarray, unique: bool) -> None:
        """Add a gather's scatter of g at idx (np.add.at into zeros)."""
        self.reached = True
        if unique:
            self.g[idx] += g
        else:
            rows, inverse = np.unique(idx, return_inverse=True)
            part = np.zeros((len(rows),) + g.shape[1:], dtype=g.dtype)
            np.add.at(part, inverse, g)
            self.g[rows] += part

    def rows(self, cells: slice) -> np.ndarray | None:
        """The gradient of rows `cells`, None if the arena was not reached."""
        return self.g[cells] if self.reached else None


# ---------------------------------------------------------------------------
# static per-sentence plan
# ---------------------------------------------------------------------------

@dataclass
class Pool:
    """Index arrays of one softmax pool, one output row per group of
    candidates: `pad` (C, W) holds each row's candidates, its empty slots
    repeating its first one; `mask` is 0 at a candidate and -inf at an
    empty slot (None when W is 1); `keep` marks pad's candidates, and `rows`
    lists them in pad's row order, each once, since no candidate is in two
    groups."""

    pad: np.ndarray
    mask: np.ndarray | None
    keep: np.ndarray | None
    rows: np.ndarray


def _pool_of(groups: list[list[int]]) -> Pool:
    width = max(map(len, groups))
    if width == 1:
        rows = np.array([g[0] for g in groups], dtype=np.intp)
        return Pool(rows[:, None], None, None, rows)
    # an empty slot repeats its row's first candidate, so a gather stays in
    # range; the mask zeroes its softmax weight
    pad = np.array([g + g[:1] * (width - len(g)) for g in groups], dtype=np.intp)
    keep = np.arange(width) < np.array([len(g) for g in groups])[:, None]
    # float32 holds 0 and -inf exactly, and adds to either precision
    mask = np.where(keep, np.float32(0.0), np.float32(-np.inf))
    return Pool(pad, mask, keep, pad[keep])


@dataclass
class BatchPlan:
    """Precomputed index arrays for one cell batch."""

    spans: list[Span]
    cells: slice                # arena rows of its cells
    pairs: slice                # its pairs' positions in the plan's pair order
    pair_left: np.ndarray       # (P,) arena row of each split's left child
    pair_right: np.ndarray      # (P,)
    pair_cell: np.ndarray       # (P,) arena row of the owning cell
    pair_cell_pos: np.ndarray   # (P,) position of the owning cell inside the batch
    unique_children: bool       # no arena row is a left child twice, or a right child twice
    split_pool: Pool            # each cell's pairs
    parent_pool: Pool | None = None  # each cell's rows of the outside candidate
    # arena; set once every batch is planned


@dataclass
class EnginePlan:
    """Everything index-shaped the engine needs, computed once per sentence."""

    n: int
    splits: dict[Span, tuple[int, ...]]  # every kept cell's splits, in wave order
    spans: list[Span]
    row_of: dict[Span, int]
    batches: list[BatchPlan]    # non-leaf batches in execution order
    leaf_pool: Pool             # the leaves' rows of the outside candidate arena
    pair_offset: np.ndarray     # (rows + 1,) row r's pairs are pair_offset[r]:pair_offset[r + 1]

    @property
    def rows(self) -> int:
        return len(self.spans)

    @property
    def pairs(self) -> int:
        return int(self.pair_offset[-1])

    @property
    def candidates(self) -> int:
        """Rows of the outside candidate arena: the root, then two per pair."""
        return 1 + 2 * self.pairs

    def non_leaf_batches(self) -> int:
        return len(self.batches)


def plan_engine(waves: list[dict[Span, tuple[int, ...]]]) -> EnginePlan:
    """Lower `build_cell_batches`' waves to flat gather/scatter index arrays.

    The waves were checked when they were built, so this only lays out
    rows: leaves first, then each wave's cells, and pairs cell by cell in
    the same order. It also fixes the outside candidate routing. The
    candidate arena's row 0 is the root; then each wave, last first, emits
    one candidate per child of each of its pairs (left children then right
    children, in pair order), so a cell's candidates are exactly the rows
    its parent paths emitted.
    """
    n = next(iter(waves[-1]))[1] if waves else 1
    splits = {span: ks for wave in waves for span, ks in wave.items()}
    spans = [(i, i) for i in range(1, n + 1)] + list(splits)
    row_of = {s: r for r, s in enumerate(spans)}

    plans: list[BatchPlan] = []
    first_row, first_pair = n, 0
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
            cells=slice(first_row, first_row + len(wave)),
            pairs=slice(first_pair, first_pair + len(pl)),
            pair_left=np.array(pl, dtype=np.intp),
            pair_right=np.array(pr, dtype=np.intp),
            pair_cell=np.array(pc, dtype=np.intp),
            pair_cell_pos=np.array(pp, dtype=np.intp),
            unique_children=len(set(pl)) == len(pl) and len(set(pr)) == len(pr),
            split_pool=_pool_of(groups),
        ))
        first_row, first_pair = first_row + len(wave), first_pair + len(pl)

    # candidate-arena row c pools into arena row targets[c]
    targets = np.concatenate([[row_of[(1, n)]]] + [
        np.concatenate([bp.pair_left, bp.pair_right]) for bp in reversed(plans)])
    parents: list[list[int]] = [[] for _ in spans]
    for c, r in enumerate(targets):
        parents[r].append(c)
    for bp in plans:
        bp.parent_pool = _pool_of([parents[row_of[s]] for s in bp.spans])

    pair_counts = [0] * n + [len(ks) for ks in splits.values()]
    return EnginePlan(n=n, splits=splits, spans=spans, row_of=row_of, batches=plans,
                      leaf_pool=_pool_of(parents[:n]),
                      pair_offset=np.concatenate([[0], np.cumsum(pair_counts)]).astype(np.intp))


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

    inside: np.ndarray        # (rows, d) e-hat
    inside_score: np.ndarray  # (rows,)   a
    outside: Tensor           # (rows, d) e-check, the layer's one tape node
    outside_score: np.ndarray  # (rows,)   b
    pair_scores: np.ndarray   # (pairs,) a[k] of every kept split, in the plan's pair order


@dataclass
class StackResult:
    plan: EnginePlan
    layers: list[LayerState]
    stats: EngineStats

    @property
    def final(self) -> LayerState:
        return self.layers[-1]

    @property
    def pair_scores(self) -> np.ndarray:
        """The last layer's split totals, for tree induction."""
        return self.final.pair_scores


def _pool(vecs: np.ndarray, scores: np.ndarray, pool: Pool):
    """Softmax-weighted sum of candidates, one output row per row of
    `pool.pad`: the (C, d) vectors, the (C,) expected scores, and the VJP.

    An empty slot's softmax weight is exactly 0, so it adds exactly 0 to
    both outputs and every gradient. The VJP maps the two outputs'
    gradients (None for one the backward did not reach) to those of the
    candidates `pool.rows`, vectors' then scores' (None where not reached),
    replaying the tape's VJPs of the composite (tests/composites.py).
    """
    if pool.mask is None:  # a one-candidate softmax weighs exactly 1
        idx = pool.rows
        return vecs[idx], scores[idx], lambda g_vec, g_score: (g_vec, g_score)
    s = scores[pool.pad]                                          # (C, W)
    w = ad.softmax_np(s + pool.mask, axis=1)
    w3 = w.reshape(w.shape + (1,))
    gathered = vecs[pool.pad]                                     # (C, W, d)
    prod = w3 * gathered
    ws = w * s

    def vjp(g_vec, g_score):
        if g_vec is None and g_score is None:
            return None, None
        g_w, g_s, g_rows = [], [], None
        if g_vec is not None:  # tsum, mul and reshape
            g_prod = np.array(np.broadcast_to(np.expand_dims(g_vec, 1), prod.shape), copy=True)
            g_w.append(ad._unbroadcast(g_prod * gathered, w3.shape).reshape(w.shape))
            g_rows = (g_prod * w3)[pool.keep]
        if g_score is not None:  # tsum and mul
            g_ws = np.array(np.broadcast_to(np.expand_dims(g_score, 1), ws.shape), copy=True)
            g_w.append(g_ws * s)
            g_s.append(g_ws * w)
        g_w = _total(g_w)
        g_s.append(w * (g_w - (g_w * w).sum(axis=1, keepdims=True)))  # softmax
        return g_rows, _total(g_s)[pool.keep]

    return prod.sum(axis=1), ws.sum(axis=1), vjp


def run_stack(x: Tensor, stack: CioStack, plan: EnginePlan,
              stats: EngineStats | None = None) -> StackResult:
    """Run all layers on leaf embeddings x (n, d) under the given plan."""
    n = plan.n
    if x.shape != (n, stack.d):
        raise ValueError(f"expected ({n}, {stack.d}) leaf embeddings, got {x.shape}")
    layers: list[LayerState] = []
    prev_out = ad.broadcast_to(ad.reshape(stack.outside0, (1, stack.d)), (plan.rows, stack.d))
    for l in range(stack.num_layers):
        layers.append(stack.layer(l, x, prev_out, plan))
        prev_out = layers[-1].outside

    # per layer: one inside and one outside compose call per batch
    stats = stats if stats is not None else EngineStats()
    stats.batched_calls += 2 * stack.num_layers * len(plan.batches)
    stats.pairs_composed += 2 * stack.num_layers * plan.pairs
    stats.cells_encoded += stack.num_layers * (plan.rows - n)
    return StackResult(plan=plan, layers=layers, stats=stats)


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
    plan = result.plan

    def pick(i: int, j: int) -> int:
        r = plan.row_of[(i, j)]
        ks = plan.splits[(i, j)]
        scores = result.pair_scores[plan.pair_offset[r]:plan.pair_offset[r + 1]]
        best = int(np.argmax(scores))
        if forbidden and ks[best] in forbidden:
            ok = [t for t, k in enumerate(ks) if k not in forbidden]
            if ok:
                best = ok[int(np.argmax(scores[ok]))]
        return ks[best]

    return descend(result.plan.n, pick)
