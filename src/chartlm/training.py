"""Pretraining loop: vocabulary, masking, length-bucketed batching, Adam with
decoupled weight decay, and deterministic resume.

Determinism comes from stateless rng derivation rather than rng serialization:
step s always draws from default_rng([seed, s]) and epoch e shuffles batch
order with default_rng([seed, 10**6 + e]). Resuming at step s therefore
replays exactly what an uninterrupted run would have done.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .checkpoint import apply_parameters, collect_parameters, load_checkpoint, save_checkpoint
from .inside_outside import EngineStats
from .model import ChartLM, Config, ReCatConfig
from .pruning import apply_nonsplittable
from .trees import numbered_lines, replace_file

MASK_TOKEN = "[MASK]"
# the files a run writes in its output directory
CHECKPOINT_FILE = "model.ckpt"
METRICS_FILE = "metrics.jsonl"


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

class Vocab:
    """Token/id table; ids are dense and fixed by construction order. Its
    errors name `source`, the file or checkpoint field it was read from."""

    def __init__(self, tokens: list[str], source: str | None = None):
        self.source = source
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            dup = next(tok for i, tok in enumerate(self.tokens) if self.index[tok] != i)
            raise self._error(f"duplicate token {dup!r} in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def mask_id(self) -> int:
        if MASK_TOKEN not in self.index:
            raise self._error(f"vocabulary has no {MASK_TOKEN} token")
        return self.index[MASK_TOKEN]

    def _error(self, message: str) -> ValueError:
        return ValueError(f"{self.source}: {message}" if self.source else message)

    def encode(self, tokens: list[str]) -> np.ndarray:
        try:
            return np.array([self.index[t] for t in tokens], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"unknown token {exc.args[0]!r}") from None

    def decode(self, ids) -> list[str]:
        return [self.tokens[int(i)] for i in ids]

    @classmethod
    def from_file(cls, path: str) -> "Vocab":
        id_of: dict[str, int] = {}
        for line_no, line in numbered_lines(path):
            line = line.strip()
            if not line:
                continue
            try:
                token, token_id = line.split()
                token_id = int(token_id)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: expected 'token id', "
                                 f"got {line!r}") from None
            if token in id_of:
                raise ValueError(f"{path}:{line_no}: duplicate token {token!r}")
            id_of[token] = token_id
        if sorted(id_of.values()) != list(range(len(id_of))):
            raise ValueError(f"{path}: vocabulary ids must be dense, starting at 0")
        return cls(sorted(id_of, key=id_of.__getitem__), source=path)


def numbered_sentences(path: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of each non-blank line, whitespace-tokenized."""
    for line_no, line in numbered_lines(path):
        toks = line.split()
        if toks:
            yield line_no, toks


def read_corpus(path: str) -> list[list[str]]:
    """One sentence per line, whitespace-tokenized; blank lines skipped."""
    return [toks for _, toks in numbered_sentences(path)]


def forbidden_boundaries(tokens: list[str]) -> set[int]:
    """Boundaries inside '##'-continued word pieces; the parser may not split
    a word. Boundary k separates tokens k and k+1 (1-based)."""
    return {k for k in range(1, len(tokens)) if tokens[k].startswith("##")}


def mask_tokens(ids: np.ndarray, rate: float, rng: np.random.Generator,
                mask_id: int, vocab_size: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BERT-style corruption: each position is picked independently with
    probability `rate`; picked positions become the mask token 80% of the
    time, a uniform random token 10%, and stay unchanged 10%. Returns the
    corrupted ids, the picked positions, and the original ids there."""
    if not 0.0 < rate < 1.0:
        raise ValueError("mask rate must lie in (0, 1)")
    ids = np.asarray(ids)
    picked = np.flatnonzero(rng.random(ids.size) < rate).astype(np.intp)
    x = ids.copy()
    for p in picked:
        roll = rng.random()
        if roll < 0.8:
            x[p] = mask_id
        elif roll < 0.9:
            x[p] = int(rng.integers(0, vocab_size))
    return x, picked, ids[picked]


class SentenceError(ValueError):
    """Corpus sentence `index` cannot be trained on, for `reason`; Trainer checks
    every sentence before its first step (see `Trainer.__init__`)."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"sentence {index}: {reason}")
        self.index, self.reason = index, reason


def batches_by_length(lengths: list[int], budget: int) -> list[list[int]]:
    """Greedy length-sorted batching. Sentences are never split and each
    batch holds at most `budget` tokens; a sentence over it raises SentenceError."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    batches: list[list[int]] = []
    cur: list[int] = []
    cur_tokens = 0
    for i in order:
        if lengths[i] > budget:
            raise SentenceError(i, f"sentence has {lengths[i]} tokens, over the batch "
                                   f"budget {budget}")
        if cur and cur_tokens + lengths[i] > budget:
            batches.append(cur)
            cur, cur_tokens = [], 0
        cur.append(i)
        cur_tokens += lengths[i]
    if cur:
        batches.append(cur)
    return batches


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay and the usual fixed betas and epsilon;
    state keyed by parameter name so it survives checkpoints."""

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: list[Parameter], lr: float, weight_decay: float = 0.01):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in optimizer group")
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = p.grad
            if g is None:
                continue
            m, v = self.m[p.name], self.v[p.name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)

    def state_tensors(self, prefix: str) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for p in self.params:
            out[f"{prefix}.m.{p.name}"] = self.m[p.name]
            out[f"{prefix}.v.{p.name}"] = self.v[p.name]
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray], prefix: str,
                           t: int) -> None:
        for p in self.params:
            for tag, store in (("m", self.m), ("v", self.v)):
                key = f"{prefix}.{tag}.{p.name}"
                if key not in tensors:
                    raise ValueError(f"checkpoint missing optimizer state {key}")
                arr = tensors[key]
                if tuple(arr.shape) != tuple(p.data.shape):
                    raise ValueError(f"shape mismatch for optimizer state {key}")
                store[p.name] = arr.astype(p.data.dtype, copy=True)
        self.t = int(t)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@contextmanager
def collector_paused():
    """Pause automatic cyclic garbage collection inside the block, then put
    the collector back as it was, also after an exception. Nothing is
    collected on exit: a train step's tape has no cycles, so refcounting
    frees it (`tests/test_training.py` pins that a step leaves none)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class TrainConfig(Config):
    retired = {"beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8}

    lr_model: float = 1e-3
    lr_parser: float = 1e-3
    epochs: int = 5
    batch_tokens: int = 128
    seed: int = 0
    weight_decay: float = 0.01
    phase: str = "masked"      # "masked": joint chart-search pretraining;
                               # "fast": frozen parser, tree-only encoding
    checkpoint_every: int = 0  # 0: only a final checkpoint
    max_steps: int = 0         # 0: run all epochs

    def validate(self) -> None:
        for name in ("lr_model", "lr_parser", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"config field {name} must be finite and >= 0, got {value}")
        for name, least in (("epochs", 1), ("batch_tokens", 1), ("seed", 0),
                            ("checkpoint_every", 0), ("max_steps", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"config field {name} must be >= {least}")
        if self.phase not in ("masked", "fast"):
            raise ValueError(f"unknown training phase {self.phase!r}")


class Trainer:
    """Joint MLM + hard-EM parser training over an in-memory corpus."""

    def __init__(self, model: ChartLM, cfg: TrainConfig,
                 corpus: list[list[str]], vocab: Vocab,
                 out_dir: str | None = None):
        cfg.validate()
        if not corpus:
            raise ValueError("empty corpus")
        self.model = model
        self.cfg = cfg
        self.vocab = vocab
        self.mask_id = vocab.mask_id
        self.out_dir = out_dir
        self.sentences, self.forbidden = [], []
        for i, tokens in enumerate(corpus):
            try:
                ids, forbidden = vocab.encode(tokens), forbidden_boundaries(tokens)
                model.check_length(ids)
                apply_nonsplittable(np.zeros(len(ids) - 1), forbidden)
            except ValueError as exc:
                raise SentenceError(i, str(exc)) from None
            self.sentences.append(ids)
            self.forbidden.append(forbidden or None)
        self.batches = batches_by_length([len(s) for s in self.sentences],
                                         cfg.batch_tokens)
        self.opt_model = AdamW(model.model_parameters(), cfg.lr_model,
                               weight_decay=cfg.weight_decay)
        self.opt_parser = AdamW(model.parser_parameters(), cfg.lr_parser,
                                weight_decay=cfg.weight_decay)
        self.step = 0

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng([self.cfg.seed, 10 ** 6 + epoch])
        return rng.permutation(len(self.batches))

    def train_step(self, batch: list[int]) -> dict:
        """One forward/backward/update over a batch of sentence indices.

        The step records thousands of tape nodes, and each allocation of them
        counts toward the cyclic collector's next scan, which would rescan
        the live tape many times per step. The collector is paused until the
        step body has returned and its tape is freed."""
        with collector_paused():
            return self._step(batch)

    def _step(self, batch: list[int]) -> dict:
        t0 = time.perf_counter()
        rng = np.random.default_rng([self.cfg.seed, self.step])
        self.opt_model.zero_grad()
        self.opt_parser.zero_grad()
        stats = EngineStats()
        fast = self.cfg.phase == "fast"
        forward = self.model.fast_encode if fast else self.model.forward_pretrain

        terms: list[Tensor] = []
        mlm: list[Tensor] = []
        counts: list[int] = []
        for idx in batch:
            ids = self.sentences[idx]
            x, positions, targets = mask_tokens(ids, self.model.cfg.mask_rate, rng,
                                                self.mask_id, len(self.vocab))
            out = forward(ids, masked=x, target_positions=positions, target_ids=targets,
                          stats=stats, forbidden=self.forbidden[idx])
            for name, val in (("parser", out.parser_loss), ("mlm", out.mlm_loss)):
                if not np.isfinite(val.data):
                    raise FloatingPointError(
                        f"non-finite {name} loss at step {self.step} on sentence "
                        f"{idx}: ids={np.asarray(ids).tolist()}")
            terms.append(out.parser_loss)
            mlm.append(out.mlm_loss)
            counts.append(len(positions))

        parser_loss = ad.tmean(ad.stack(terms))
        # per-masked-token cross entropy over the whole batch
        mlm_loss = ad.tsum(ad.stack(mlm) * counts) / max(sum(counts), 1)
        loss = mlm_loss if fast else mlm_loss + parser_loss
        loss.backward()
        for p in self.model.parameters():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise FloatingPointError(f"non-finite gradient for {p.name} at step {self.step}")
        self.opt_model.step()
        if not fast:
            self.opt_parser.step()

        metrics = {
            "step": self.step,
            "mlm_loss": float(mlm_loss.data),
            "parser_loss": float(parser_loss.data),
            "cells_encoded": stats.cells_encoded,
            "batches": stats.batched_calls,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
        self.step += 1
        return metrics

    def train(self) -> list[dict]:
        """Run from the current step to the configured horizon. With an
        `out_dir`, appends one JSON record per step to its METRICS_FILE,
        after dropping the file's records of the steps this run is about to
        redo, and saves the final CHECKPOINT_FILE there."""
        total = self.cfg.epochs * len(self.batches)
        if self.cfg.max_steps:
            total = min(total, self.cfg.max_steps)
        records: list[dict] = []
        log_path = os.path.join(self.out_dir, METRICS_FILE) if self.out_dir else None
        if log_path and os.path.exists(log_path):
            _drop_records_from(log_path, self.step)
        with (open(log_path, "a", encoding="utf-8") if log_path else nullcontext()) as fh:
            while self.step < total:
                epoch, pos = divmod(self.step, len(self.batches))
                order = self._epoch_order(epoch)
                metrics = self.train_step(self.batches[int(order[pos])])
                records.append(metrics)
                if fh is not None:
                    fh.write(json.dumps(metrics) + "\n")
                    fh.flush()
                every = self.cfg.checkpoint_every
                if self.out_dir and every and self.step % every == 0 and self.step < total:
                    self.save(os.path.join(self.out_dir, f"step{self.step:06d}.ckpt"))
            if self.out_dir:
                self.save(os.path.join(self.out_dir, CHECKPOINT_FILE))
        return records

    # ---- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        tensors = collect_parameters(self.model)
        tensors.update(self.opt_model.state_tensors("opt_model"))
        tensors.update(self.opt_parser.state_tensors("opt_parser"))
        config = {"model": self.model.cfg.to_dict(), "train": self.cfg.to_dict()}
        extra = {"step": self.step, "opt_model_t": self.opt_model.t,
                 "opt_parser_t": self.opt_parser.t, "vocab": self.vocab.tokens}
        save_checkpoint(path, tensors, config, extra)

    @classmethod
    def resume(cls, path: str, corpus: list[list[str]],
               out_dir: str | None = None) -> "Trainer":
        """A trainer at the step, settings and state of a checkpoint from `save`."""
        tensors, config, extra = load_checkpoint(path)
        model, vocab = model_from_checkpoint(tensors, config, extra)
        trainer = cls(model, TrainConfig.from_dict(_entry(config, "train", dict)),
                      corpus, vocab, out_dir)
        for prefix, opt in (("opt_model", trainer.opt_model), ("opt_parser", trainer.opt_parser)):
            opt.load_state_tensors(tensors, prefix, _entry(extra, f"{prefix}_t", int))
        trainer.step = _entry(extra, "step", int)
        return trainer


def _drop_records_from(path: str, step: int) -> None:
    """Rewrite a metrics file without its records of steps >= `step`, and
    without a last line torn by a crash mid-write (it has no newline). A
    whole line that is not a record, or a line that is not UTF-8, raises
    ValueError naming `path:line:`."""
    lines = list(numbered_lines(path))
    kept = []
    for line_no, line in lines:
        if not line.endswith("\n"):
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSON nested too deeply
            raise ValueError(f"{path}:{line_no}: not a JSON record: {exc}") from None
        if not isinstance(record, dict) or type(record.get("step")) is not int:
            raise ValueError(f"{path}:{line_no}: record has no integer 'step'")
        if record["step"] < step:
            kept.append(line)
    if len(kept) < len(lines):
        replace_file(path, [ln.encode("utf-8") for ln in kept])


def _entry(record: dict, key: str, kind: type):
    """`record[key]` from a checkpoint header, which must be a `kind` (counts
    are nonnegative ints); anything else raises ValueError naming the key."""
    value = record.get(key)
    if type(value) is not kind or (kind is int and value < 0):
        raise ValueError(f"checkpoint field {key} is missing or not a valid {kind.__name__}: "
                         f"{value!r}")
    return value


def model_from_checkpoint(tensors: dict[str, np.ndarray], config: dict,
                          extra: dict) -> tuple[ChartLM, Vocab]:
    """Rebuild a model and vocabulary from loaded checkpoint contents."""
    mcfg = ReCatConfig.from_dict(_entry(config, "model", dict))
    tokens = _entry(extra, "vocab", list)
    if not all(type(tok) is str for tok in tokens):
        raise ValueError("checkpoint field vocab holds a token that is not a string")
    if len(tokens) > mcfg.vocab_size:
        raise ValueError(f"checkpoint vocab has {len(tokens)} tokens, over vocab_size "
                         f"{mcfg.vocab_size}")
    model = ChartLM(mcfg, np.random.default_rng(0))
    apply_parameters(model, tensors)
    return model, Vocab(tokens, source="checkpoint field vocab")


def load_model(path: str) -> tuple[ChartLM, Vocab, dict]:
    tensors, config, extra = load_checkpoint(path)
    model, vocab = model_from_checkpoint(tensors, config, extra)
    return model, vocab, config
