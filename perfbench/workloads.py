"""Workload inputs and the operations the benchmark times.

Every input comes from the seed alone: the training corpus, the parse
ladder and the parse checkpoint. chartlm sees only the generated inputs.
An op is one `Trainer.train_step` or one sentence parse; `call` is the
timed part and `check` validates its output afterwards, outside the timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from chartlm.autodiff import no_grad
from chartlm.model import ChartLM, ReCatConfig
from chartlm.synthetic import VOCAB_TOKENS, sample_sentence
from chartlm.training import (TrainConfig, Trainer, Vocab, forbidden_boundaries,
                              load_model)
from chartlm.trees import Node

# Sentences per length in every training corpus, in proportion to the toy
# grammar's own length distribution. Fixing the histogram fixes the length
# buckets, so seeds change the words and trees but not the batch shapes.
TRAIN_LENGTHS = {4: 24, 5: 22, 6: 18, 7: 13, 8: 8, 9: 6, 10: 4, 11: 2, 12: 2,
                 13: 1, 14: 1, 15: 1, 16: 1}
LADDER = (8, 16, 32, 64, 128)  # parse lengths, cycled shortest first
LADDER_PASSES = 16             # distinct sentences per length
MODEL_INIT = 0                 # seed of the initial weights, the same for every run

# A round is one epoch over the corpus's batches, or one pass over the
# ladder; runs measure whole rounds, so every run sees the same mix. A train
# round starts from the initial state, so every round repeats the
# first epoch's work exactly, however long the run. Losses and counts come
# from the first PREFIX_ROUNDS rounds, so both repeat exactly under a seed
# whatever the run length.
PREFIX_ROUNDS = {"train": 1, "parse": 2}
# Ops the untraced run makes at least: with 20 or more, the tail percentile
# (ten samples beyond it) is at or above the median.
MIN_OPS = 20


def kind(workload: str) -> str:
    return workload.split("-")[0]


def train_corpus(seed: int) -> list[list[str]]:
    """Toy-grammar sentences, drawn until every length has its quota."""
    rng = np.random.default_rng([seed, 1])
    need = dict(TRAIN_LENGTHS)
    out = []
    while any(need.values()):
        tokens, _ = sample_sentence(rng)
        if need.get(len(tokens)):
            need[len(tokens)] -= 1
            out.append(tokens)
    return out


def parse_ladder(seed: int) -> list[list[str]]:
    """LADDER_PASSES sentences per ladder length, each made by concatenating
    toy-grammar sentences and cutting the result to the exact length."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(LADDER_PASSES):
        for n in LADDER:
            tokens: list[str] = []
            while len(tokens) < n:
                tokens.extend(sample_sentence(rng)[0])
            out.append(tokens[:n])
    return out


def new_model() -> ChartLM:
    """The untrained model every workload starts from. Its weights are fixed
    like its size: the seed draws the data, and seeded weights would change
    the parser's trees, and so the work per token, from seed to seed."""
    return ChartLM(ReCatConfig(), np.random.default_rng(MODEL_INIT))


def write_parse_checkpoint(seed: int, path: str) -> None:
    """The untrained model that parse workloads load, written with `Trainer.save`."""
    corpus = parse_ladder(seed)[:1]
    Trainer(new_model(), TrainConfig(seed=seed), corpus, Vocab(VOCAB_TOKENS)).save(path)


def tree_ok(tree: Node, tokens: list[str]) -> bool:
    """A binary tree over exactly `tokens`, in order: 2n-1 nodes whose
    leaves read the tokens left to right and whose spans nest."""
    seen, leaves = 0, []
    stack = [tree]
    while stack:
        node = stack.pop()
        seen += 1
        if node.is_leaf:
            leaves.append(node)
            continue
        if len(node.children) != 2:
            return False
        left, right = node.children
        if (left.span[0], right.span[1]) != node.span or left.span[1] + 1 != right.span[0]:
            return False
        stack += [right, left]
    return (seen == 2 * len(tokens) - 1
            and [leaf.token for leaf in leaves] == list(tokens)
            and all(leaf.span == (p, p) for p, leaf in enumerate(leaves, start=1)))


@dataclass
class OpRecord:
    """What one op did: its wall time, the tokens it covered, its loss
    contribution and its counts. `ok` is false when it raised, produced a
    non-finite loss or a malformed tree."""

    seconds: float
    tokens: int
    ok: bool
    loss_sum: float = 0.0
    loss_weight: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str = ""


class ForwardLog:
    """Stands in for one forward method on the model instance and keeps what
    each call is validated and counted by. The class attribute is looked up
    on every call, so a wrapper installed on the class still runs."""

    def __init__(self, model: ChartLM, method: str):
        self.model, self.method = model, method
        self.calls: list[tuple[object, np.ndarray]] = []  # (ForwardOutput, token ids)
        setattr(model, method, self)

    def __call__(self, sentence, *args, **kwargs):
        out = getattr(type(self.model), self.method)(self.model, sentence, *args, **kwargs)
        self.calls.append((out, np.asarray(sentence)))
        return out

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


def _schedule_counts(calls) -> dict:
    return {"cells": sum(len(out.schedule.splits) for out, _ in calls),
            "waves": sum(out.schedule.non_leaf_batches() for out, _ in calls)}


class TrainWorkload:
    """One Trainer over the seeded corpus; op i is a train step. A round is
    the first epoch, its length buckets in a seeded order, replayed from the
    initial parameters, optimizer moments and step count."""

    def __init__(self, seed: int, phase: str):
        self.corpus = train_corpus(seed)
        self.trainer = Trainer(new_model(), TrainConfig(seed=seed, phase=phase),
                               self.corpus, Vocab(VOCAB_TOKENS))
        self.model = self.trainer.model
        self.log = ForwardLog(self.model, "fast_encode" if phase == "fast" else "forward_pretrain")
        self.round = len(self.trainer.batches)
        self.period = self.round  # ops this far apart repeat the same step
        self._order = np.random.default_rng([seed, 4]).permutation(self.round)
        self._optimizers = (self.trainer.opt_model, self.trainer.opt_parser)
        self._params = [p.data.copy() for p in self.model.parameters()]
        self._moments = [({k: a.copy() for k, a in o.m.items()},
                          {k: a.copy() for k, a in o.v.items()}) for o in self._optimizers]

    def start_round(self) -> None:
        """Put the trainer back in its initial state, in place."""
        for p, saved in zip(self.model.parameters(), self._params):
            p.data[...] = saved
        for opt, (m, v) in zip(self._optimizers, self._moments):
            opt.t = 0
            for k, a in m.items():
                opt.m[k][...] = a
            for k, a in v.items():
                opt.v[k][...] = a
        self.trainer.step = 0

    def batch(self, i: int) -> list[int]:
        return self.trainer.batches[int(self._order[i % self.round])]

    def call(self, i: int):
        return self.trainer.train_step(self.batch(i))

    def check(self, i: int, metrics: dict, seconds: float) -> OpRecord:
        batch = self.batch(i)
        calls = self.log.take()
        tokens = sum(len(self.trainer.sentences[s]) for s in batch)
        counts = _schedule_counts(calls)
        if calls:
            stats = calls[-1][0].result.stats  # one EngineStats shared by the step
            counts.update(compose_calls=stats.batched_calls, pairs=stats.pairs_composed)
        ok = (len(calls) == len(batch)
              and math.isfinite(metrics["mlm_loss"]) and math.isfinite(metrics["parser_loss"])
              and all(tree_ok(out.tree, [str(t) for t in ids]) for out, ids in calls))
        return OpRecord(seconds, tokens, ok, metrics["mlm_loss"], 1.0, counts,
                        "" if ok else "non-finite loss or malformed tree")


class ParseWorkload:
    """The untrained checkpoint, loaded; op i parses the i-th ladder sentence
    under no_grad the way `chartlm parse` does in the given mode."""

    def __init__(self, seed: int, mode: str, ckpt: str):
        self.ladder = parse_ladder(seed)
        self.model, self.vocab, _ = load_model(ckpt)
        self.log = ForwardLog(self.model, "fast_encode" if mode == "fast" else "forward_pretrain")
        self.round = len(LADDER)
        self.period = len(self.ladder)  # ops this far apart parse the same sentence

    def start_round(self) -> None:
        """Parsing leaves no state behind, so rounds need no reset."""

    def sentence(self, i: int) -> list[str]:
        return self.ladder[i % len(self.ladder)]

    def call(self, i: int):
        tokens = self.sentence(i)
        with no_grad():
            ids = self.vocab.encode(tokens)
            return self.log(ids, forbidden=forbidden_boundaries(tokens), token_strs=tokens)

    def check(self, i: int, out, seconds: float) -> OpRecord:
        tokens = self.sentence(i)
        calls = self.log.take()
        ids = self.vocab.encode(tokens)
        # Reconstruction NLL of every token from the logits the op computed:
        # a fingerprint of the forward arithmetic.
        logits = out.logits.data.astype(np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        nll = -float(logp[np.arange(len(ids)), ids].sum())
        counts = _schedule_counts(calls)
        stats = out.result.stats
        counts.update(compose_calls=stats.batched_calls, pairs=stats.pairs_composed)
        ok = (len(calls) == 1 and math.isfinite(nll)
              and math.isfinite(float(out.parser_loss.data)) and tree_ok(out.tree, tokens))
        return OpRecord(seconds, len(tokens), ok, nll, float(len(tokens)), counts,
                        "" if ok else "non-finite loss or malformed tree")


def build(workload: str, seed: int, ckpt: str):
    """Construct a workload's state: corpus generation, model construction and
    the Trainer for train-*, ladder generation and checkpoint load for parse-*."""
    family, mode = workload.split("-")
    if family == "train":
        return TrainWorkload(seed, mode)
    return ParseWorkload(seed, mode, ckpt)
