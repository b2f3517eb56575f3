"""Spans around public calls into chartlm, recorded from the benchmark's side.

`install` replaces functions and methods with wrappers that open one span
per call; `Tracer.uninstall` puts every original back. A span records its
name, start, end, enclosing span and op id. Spans stay in memory until the
run writes them out. A layer's self time is its span's duration minus the
part of it that child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int      # benchmark op id, -1 outside ops


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self.counts: Counter = Counter()  # (op, counter name) -> count
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op))
        self._open.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.op, name)] += amount

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace `owner.attr` (a module or class attribute) with a spanned
        call. `before(args, kwargs)` runs outside the span and its result goes
        to `after(token, args, kwargs, out)`, which runs once the span closed."""
        original = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            idx = tracer.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(token, args, kwargs, out)
            return out

        self._patch(owner, attr, original, wrapper)

    def wrap_instance(self, obj, attr: str, name: str) -> None:
        """Span calls of one object held in `obj.attr`, leaving its class alone."""
        original = vars(obj)[attr]
        tracer = self

        class Spanned:
            def __call__(self, *args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

        self._patch(obj, attr, original, Spanned())

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def removed(self) -> bool:
        """True when every attribute ever wrapped holds its original again."""
        return not self._patches and all(vars(owner)[attr] is original
                                         for owner, attr, original in self._installed)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        busy, reach = 0.0, s.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                busy += b - a
                reach = b
        out.append(s.end - s.start - busy)
    return out


def tape_size(root) -> int:
    """Nodes `Tensor.backward` visits from `root`: the same reachability rule."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._prev:
            if id(p) not in seen and (p.requires_grad or p._prev):
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# ---------------------------------------------------------------------------
# chartlm's layers
# ---------------------------------------------------------------------------

# model.py imports these by name, so they are wrapped in chartlm.model's
# namespace; wrapping them in their home modules would miss those calls.
MODEL_FUNCTIONS = {
    "run_stack": "inside_outside.run_stack",
    "plan_engine": "inside_outside.plan",
    "induce_order": "inside_outside.induce",
    "split_order": "pruning.split_order",
    "prune_schedule": "pruning.prune_schedule",
    "build_cell_batches": "pruning.build_cell_batches",
    "tree_schedule": "pruning.tree_schedule",
    "parser_nll": "pruning.parser_nll",
}

SELF_TIME_METRICS = {
    "autodiff.backward_s": ("autodiff.backward",),
    "nn.bilstm_s": ("nn.bilstm",),
    "pruning.scorer_s": ("pruning.scorer",),
    "pruning.schedule_s": ("pruning.split_order", "pruning.prune_schedule",
                           "pruning.build_cell_batches", "pruning.tree_schedule"),
    "pruning.parser_nll_s": ("pruning.parser_nll",),
    "inside_outside.plan_s": ("inside_outside.plan",),
    "inside_outside.run_stack_s": ("inside_outside.run_stack",),
    "inside_outside.compose_s": ("inside_outside.compose",),
    "inside_outside.induce_s": ("inside_outside.induce",),
    "model.forward_self_s": ("model.forward",),
    "model.encoder_s": ("model.encoder",),
    "training.step_self_s": ("training.step",),
    "training.optimizer_s": ("training.optimizer",),
}
DURATION_METRICS = {"model.forward_s": "model.forward", "training.step_s": "training.step"}
# per-op counts, by the name ops and wrappers count them under
COUNT_METRICS = {"autodiff.tape_nodes": "tape_nodes", "pruning.cells": "cells",
                 "pruning.waves": "waves", "inside_outside.compose_calls": "compose_calls",
                 "inside_outside.pairs_composed": "pairs"}
# made once per traced run, after the ops: reported whole, not per op
ONCE_METRICS = {"checkpoint.load_s": "checkpoint.load", "checkpoint.save_s": "checkpoint.save"}


def install(tracer: Tracer, model) -> None:
    """Wrap every timed layer's public entry points, and `model`'s node encoder
    by instance: AttentionBlock is also the compose block, so a class-level
    wrapper would merge the two."""
    import chartlm.model as cm
    import chartlm.training as ct
    from chartlm.autodiff import Tensor
    from chartlm.inside_outside import ComposeParams
    from chartlm.nn import BiLstm
    from chartlm.pruning import BoundaryScorer

    def count_tape(args, kwargs):
        with tracer.span("trace"):
            tracer.count("tape_nodes", tape_size(args[0]))

    def count_pairs(token, args, kwargs, out):
        tracer.count("compose_calls")
        tracer.count("pairs", args[1].shape[0])

    def stats_of(kwargs):
        stats = kwargs.get("stats")
        return (0, 0) if stats is None else (stats.batched_calls, stats.pairs_composed)

    def before_forward(args, kwargs):
        return (tracer.counts[(tracer.op, "compose_calls")],
                tracer.counts[(tracer.op, "pairs")], stats_of(kwargs))

    def after_forward(token, args, kwargs, out):
        calls0, pairs0, (stats_calls0, stats_pairs0) = token
        stats = out.result.stats
        if (tracer.counts[(tracer.op, "compose_calls")] - calls0 != stats.batched_calls - stats_calls0
                or tracer.counts[(tracer.op, "pairs")] - pairs0 != stats.pairs_composed - stats_pairs0):
            tracer.count("compose_stats_mismatch")
        tracer.count("cells", len(out.schedule.splits))
        tracer.count("waves", out.schedule.non_leaf_batches())

    for fn, name in MODEL_FUNCTIONS.items():
        tracer.wrap(cm, fn, name)
    tracer.wrap(ct, "load_checkpoint", "checkpoint.load")
    tracer.wrap(ct, "save_checkpoint", "checkpoint.save")
    tracer.wrap(Tensor, "backward", "autodiff.backward", before=count_tape)
    tracer.wrap(BiLstm, "__call__", "nn.bilstm")
    tracer.wrap(BoundaryScorer, "__call__", "pruning.scorer")
    tracer.wrap(ComposeParams, "__call__", "inside_outside.compose", after=count_pairs)
    tracer.wrap(ct.AdamW, "step", "training.optimizer")
    tracer.wrap(ct.Trainer, "train_step", "training.step")
    for method in ("forward_pretrain", "fast_encode"):
        tracer.wrap(cm.ChartLM, method, "model.forward", before=before_forward,
                    after=after_forward)
    tracer.wrap_instance(model, "encoder", "model.encoder")


def layer_metrics(tracer: Tracer, ops: int, prefix_ops: int) -> dict[str, float]:
    """Per-layer times per op: summed over every span, divided by the `ops`
    the run made (checkpoint calls whole). Counts per op over ops
    0..prefix_ops-1 (split-order decodes per sentence instead)."""
    selfs = self_times(tracer.spans)
    self_by: Counter = Counter()
    dur_by: Counter = Counter()
    for s, own in zip(tracer.spans, selfs):
        self_by[s.name] += own
        dur_by[s.name] += s.end - s.start
    out = {metric: sum(self_by[n] for n in names) / ops
           for metric, names in SELF_TIME_METRICS.items()}
    out.update({metric: dur_by[name] / ops for metric, name in DURATION_METRICS.items()})
    out.update({metric: dur_by[name] for metric, name in ONCE_METRICS.items()})

    def prefix(name: str) -> int:
        return sum(tracer.counts[(op, name)] for op in range(prefix_ops))

    def prefix_spans(name: str) -> int:
        return sum(1 for s in tracer.spans if s.name == name and 0 <= s.op < prefix_ops)

    out.update({metric: prefix(name) / prefix_ops for metric, name in COUNT_METRICS.items()})
    out["pruning.split_order_calls"] = (prefix_spans("pruning.split_order")
                                        / max(prefix_spans("model.forward"), 1))
    out["inside_outside.pairs_per_call"] = prefix("pairs") / max(prefix("compose_calls"), 1)
    out["trace.uncovered_share"] = self_by["op"] / dur_by["op"] if dur_by["op"] else 0.0
    return out
