"""Full model: parser-driven schedules, chart encoder, multi-grained
self-attention over tree nodes, and the masked-LM head.

The parser always sees the unmasked sentence (it decides structure, not
content); the chart encoder sees the corrupted one. Their parameter sets are
disjoint and their losses do not exchange gradients: the induced tree is a
constant target for the parser loss, and the parser's scores never enter the
representation path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .inside_outside import (CioStack, EnginePlan, EngineStats, StackResult,
                             induce_order, plan_engine, run_stack)
from .nn import AttentionBlock, Embedding, Module
from .pruning import (BoundaryScorer, apply_nonsplittable, parser_nll,
                      split_order, tree_schedule, prune_schedule,
                      build_cell_batches)
from .trees import Node, Span, tree_from_splits


def _typed(key: str, value, default):
    """`value` as the type of `default`; an int is accepted for a float, but
    a bool is not an int."""
    kind = type(default)
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ValueError(f"config key {key}: expected {kind.__name__}, got {value!r}")
    return value


class Config:
    """The one decoder of the config dataclasses: each defines `validate`
    and may name retired keys, with the one value each is still read at."""

    retired: ClassVar[dict] = {}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict):
        """Decode and validate `d`. An unknown key, or a value whose type is
        not its field default's, raises ValueError naming the key. A retired
        key is dropped at its old value (checkpoints still carry it) and
        rejected at any other."""
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(d) - set(defaults) - set(cls.retired)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, old in cls.retired.items():
            if key in d and _typed(key, d[key], old) != old:
                raise ValueError(f"retired config key {key}: only its old value "
                                 f"{old!r} can be read, got {d[key]!r}")
        cfg = cls(**{key: _typed(key, value, defaults[key])
                     for key, value in d.items() if key in defaults})
        cfg.validate()
        return cfg


@dataclass
class ReCatConfig(Config):
    """Model shape knobs; the [i, j, k] triple is (layers, compose_depth,
    transformer_depth)."""

    retired = {"tie_mlm": True, "parser_layers": 1}

    layers: int = 2
    compose_depth: int = 1
    transformer_depth: int = 2
    share: bool = True
    d: int = 64
    heads: int = 4
    vocab_size: int = 50
    m: int = 2
    mask_rate: float = 0.15
    max_len: int = 256
    parser_dim: int = 64
    parser_hidden: int = 64
    dtype: str = "float32"

    def validate(self) -> None:
        positive = ["layers", "compose_depth", "d", "heads", "vocab_size", "m",
                    "max_len", "parser_dim", "parser_hidden"]
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be positive")
        if self.transformer_depth < 0:  # 0 = no contextualization over nodes
            raise ValueError("config field transformer_depth must be nonnegative")
        if self.m < 2:
            raise ValueError("pruning window m must be >= 2")
        if not 0.0 < self.mask_rate < 1.0:
            raise ValueError("mask_rate must lie in (0, 1)")
        if self.d % self.heads != 0:
            raise ValueError(f"model dim {self.d} not divisible by {self.heads} heads")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"config field dtype must be float32 or float64, got {self.dtype!r}")


@dataclass
class ForwardOutput:
    nodes: Tensor             # (2n-1, d) contextualized node representations
    tree: Node                # induced tree (the parser's own in fast mode)
    logits: Tensor            # (n, vocab) MLM logits at terminal nodes
    parser_loss: Tensor
    mlm_loss: Tensor
    result: StackResult
    order: dict[Span, int]    # the tree as its split map, in preorder
    schedule: EnginePlan      # the plan the chart ran under (result.plan)


class ChartLM(Module):
    """Parser + chart encoder + node transformer + tied MLM head."""

    def __init__(self, cfg: ReCatConfig, rng: np.random.Generator):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        self.embedding = self._child(Embedding("model.emb", cfg.vocab_size, cfg.d, rng))
        self.cio = self._child(CioStack("cio", cfg.layers, cfg.d, cfg.heads,
                                        cfg.compose_depth, cfg.share, rng))
        self.encoder = self._child(AttentionBlock("encoder", cfg.d, cfg.heads,
                                                  cfg.transformer_depth, rng))
        self.mlm_bias = self._param("mlm.bias", np.zeros(cfg.vocab_size))
        self.parser = self._child(BoundaryScorer("parser", cfg.vocab_size, cfg.parser_dim,
                                                 cfg.parser_hidden, rng))
        self.astype(cfg.dtype)

    # ---- parameter groups (hard-EM: optimized by separate losses) ---------

    def parser_parameters(self) -> list[Parameter]:
        return self.parser.parameters()

    def model_parameters(self) -> list[Parameter]:
        parser = {id(p) for p in self.parser.parameters()}
        return [p for p in self.parameters() if id(p) not in parser]

    # ---- forward paths -----------------------------------------------------

    def check_length(self, ids: np.ndarray) -> int:
        n = int(np.asarray(ids).size)
        if n == 0:
            raise ValueError("empty sentence")
        if n > self.cfg.max_len:
            raise ValueError(f"sentence length {n} exceeds configured max {self.cfg.max_len}")
        return n

    def forward_pretrain(self, sentence: np.ndarray, *, masked: np.ndarray | None = None,
                         target_positions: np.ndarray | None = None,
                         target_ids: np.ndarray | None = None,
                         forbidden: set[int] | None = None,
                         token_strs: list[str] | None = None,
                         stats: "EngineStats | None" = None) -> ForwardOutput:
        """Standard (chart-search) forward pass.

        `sentence` is the uncorrupted id sequence (parser input and schedule
        source); `masked` is what the encoder sees. Targets give original ids
        at corrupted positions; with none, mlm_loss is 0 by convention.
        """
        return self._forward(
            lambda n, order: build_cell_batches(prune_schedule(n, self.cfg.m, order)),
            sentence, masked, target_positions, target_ids, forbidden, token_strs, stats)

    def fast_encode(self, sentence: np.ndarray, *, masked: np.ndarray | None = None,
                    target_positions: np.ndarray | None = None,
                    target_ids: np.ndarray | None = None,
                    forbidden: set[int] | None = None,
                    token_strs: list[str] | None = None,
                    stats: "EngineStats | None" = None) -> ForwardOutput:
        """Trust-the-parser mode: compose along the decoded tree only.

        The schedule degenerates to one split per cell, so each layer costs
        exactly 2(n-1) compositions; everything downstream is unchanged.
        """
        return self._forward(tree_schedule, sentence, masked, target_positions, target_ids,
                             forbidden, token_strs, stats)

    def _forward(self, build_schedule, sentence, masked, target_positions, target_ids,
                 forbidden, token_strs, stats) -> ForwardOutput:
        """Parse, build the waves with `build_schedule(n, order)`, lower them
        with `plan_engine`, run the chart, and read the tree from it: in a
        tree schedule that is the parser's own tree."""
        sentence = np.asarray(sentence)
        n = self.check_length(sentence)
        scores = self.parser(sentence)
        if forbidden:
            scores = apply_nonsplittable(scores, forbidden)
        plan = plan_engine(build_schedule(n, split_order(scores.data, n)))

        x = self.embedding(masked if masked is not None else sentence)
        result = run_stack(x, self.cio, plan, stats)

        order = induce_order(result, forbidden)
        strs = token_strs if token_strs is not None else [str(t) for t in sentence]
        tree = tree_from_splits(order, strs)
        nodes, logits = self._encode_nodes(order, result)
        mlm_loss = self._mlm_loss(logits, target_positions, target_ids, x.data.dtype)
        return ForwardOutput(nodes=nodes, tree=tree, logits=logits,
                             parser_loss=parser_nll(scores, order), mlm_loss=mlm_loss,
                             result=result, order=order, schedule=plan)

    # ---- shared tails ------------------------------------------------------

    def _encode_nodes(self, order: dict[Span, int], result: StackResult
                      ) -> tuple[Tensor, Tensor]:
        """Gather outside reps of the tree's 2n-1 nodes in in-order, which the
        split map fixes: leaf t sits at 2(t-1) and the node split at k at
        2k-1. Contextualize them and read MLM logits at the leaves."""
        n, row_of = result.plan.n, result.plan.row_of
        rows = np.zeros(2 * n - 1, dtype=np.intp)
        rows[0::2] = [row_of[(t, t)] for t in range(1, n + 1)]
        rows[[2 * k - 1 for k in order.values()]] = [row_of[span] for span in order]
        gathered = ad.gather(result.final.outside, rows)
        encoded = self.encoder(ad.reshape(gathered, (1,) + gathered.shape))
        encoded = ad.reshape(encoded, gathered.shape)

        terminals = ad.gather(encoded, np.arange(0, 2 * n - 1, 2, dtype=np.intp))
        logits = ad.matmul(terminals, ad.transpose(self.embedding.table, (1, 0))) + self.mlm_bias
        return encoded, logits

    def _mlm_loss(self, logits: Tensor, positions: np.ndarray | None,
                  targets: np.ndarray | None, dtype) -> Tensor:
        if positions is None or len(positions) == 0:
            return Tensor(np.zeros((), dtype=dtype))
        positions = np.asarray(positions, dtype=np.intp)
        targets = np.asarray(targets, dtype=np.intp)
        if positions.shape != targets.shape:
            raise ValueError("positions/targets length mismatch")
        rows = ad.gather(logits, positions)
        logp = ad.log_softmax(rows, axis=-1)
        picked = logp[np.arange(len(positions)), targets]
        return -ad.tmean(picked)
