#!/usr/bin/env python3
"""Bit-level fingerprint of training and parsing, for showing that a change
leaves every number the same.

    PYTHONPATH=src python3 scripts/fingerprint.py
    PYTHONPATH=<other checkout>/src python3 scripts/fingerprint.py

It uses whichever `chartlm` is first on the import path (this checkout's
`src/` when none is given), so running it against two source trees and
comparing the output shows whether they compute the same bits. Inputs come
from perfbench's workload generators at seed 1:

- records, gradients, parameters, checkpoint: 4 `masked` then 4 `fast` train
  steps of `new_model()` on `train_corpus(1)`; the step records without
  `wall_ms`, every parameter's name and raw `grad` bytes after each step (a
  marker where `grad` is None), every parameter's name, dtype and bytes
  afterwards, and the file `Trainer.save` writes then. The gradients part
  tells +0.0 from -0.0, which AdamW maps to the same update;
- parses: the first 10 ladder sentences, each parsed in full and in fast
  mode by a fresh `new_model()`; the logits and the split map of each.

It prints one sha1 per part, then one over all parts. With `--expect
DIGEST` it then exits 1, printing MISMATCH, unless the total is DIGEST:

    PYTHONPATH=src python3 scripts/fingerprint.py --expect 04f31ac7ed6c208c0bc74751a6dd1a7ae212d052
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so a given chartlm wins

import workloads  # noqa: E402
from chartlm.autodiff import no_grad  # noqa: E402
from chartlm.synthetic import VOCAB_TOKENS  # noqa: E402
from chartlm.training import TrainConfig, Trainer, Vocab, forbidden_boundaries  # noqa: E402

SEED = 1
STEPS_PER_PHASE = 4
PARSES = 10


def train_parts() -> dict[str, str]:
    trainer = Trainer(workloads.new_model(), TrainConfig(seed=SEED),
                      workloads.train_corpus(SEED), Vocab(VOCAB_TOKENS))
    records, grads = hashlib.sha1(), hashlib.sha1()
    for i, phase in enumerate(["masked"] * STEPS_PER_PHASE + ["fast"] * STEPS_PER_PHASE):
        trainer.cfg.phase = phase
        metrics = trainer.train_step(trainer.batches[i % len(trainer.batches)])
        del metrics["wall_ms"]
        records.update(json.dumps(metrics, sort_keys=True).encode())
        for name, p in trainer.model.parameter_map().items():
            grads.update(name.encode() + (b"None" if p.grad is None else p.grad.tobytes()))
    params = hashlib.sha1()
    for name, p in trainer.model.parameter_map().items():
        params.update(name.encode() + p.data.dtype.str.encode() + p.data.tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        trainer.save(path)
        checkpoint = hashlib.sha1(Path(path).read_bytes())
    return {"records": records.hexdigest(), "gradients": grads.hexdigest(),
            "parameters": params.hexdigest(),
            "checkpoint": checkpoint.hexdigest()}


def parse_part() -> str:
    model, vocab = workloads.new_model(), Vocab(VOCAB_TOKENS)
    parses = hashlib.sha1()
    with no_grad():
        for tokens in workloads.parse_ladder(SEED)[:PARSES]:
            for forward in (model.forward_pretrain, model.fast_encode):
                out = forward(vocab.encode(tokens), forbidden=forbidden_boundaries(tokens),
                              token_strs=tokens)
                parses.update(out.logits.data.tobytes())
                parses.update(repr(list(out.order.items())).encode())
    return parses.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="bit-level fingerprint of training and parsing")
    p.add_argument("--expect", metavar="DIGEST", help="exit 1 unless the total is DIGEST")
    args = p.parse_args(argv)
    parts = train_parts()
    parts["parses"] = parse_part()
    parts["total"] = hashlib.sha1("".join(parts.values()).encode()).hexdigest()
    for name, digest in parts.items():
        print(f"{name:<10} {digest}")
    if args.expect is not None and parts["total"] != args.expect:
        print(f"MISMATCH: expected total {args.expect}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
