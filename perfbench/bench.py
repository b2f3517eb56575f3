"""Measurement loop, checks and result record of the chartlm benchmark.

run.py is the entry point: it pins BLAS to one thread before numpy loads,
then calls `main`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import LADDER, MIN_OPS, PREFIX_ROUNDS, OpRecord

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MEMORY_OPS = {"train": 2, "parse": len(LADDER)}  # the first step(s), or one ladder pass
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import chartlm.training, chartlm.synthetic; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "tok_s": "tokens/s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "mlm_loss": "nats", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}
PER_LAYER_UNITS = {"autodiff.tape_nodes": "count", "autodiff.peak_step_mb": "MB",
                   "pruning.split_order_calls": "calls/sentence", "pruning.cells": "count",
                   "pruning.waves": "count", "inside_outside.compose_calls": "count",
                   "inside_outside.pairs_composed": "count",
                   "inside_outside.pairs_per_call": "pairs/call", "checkpoint.bytes": "bytes",
                   "trace.overhead": "ratio", "trace.uncovered_share": "ratio"}


def import_seconds() -> float:
    """Time to import chartlm in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def setup(name: str, seed: int, ckpt: str) -> tuple[float, list]:
    """SETUP_REPEATS full set-ups, each an import plus `workloads.build`;
    returns the median time and the identical states they built."""
    times, states = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = time.perf_counter()
        states.append(workloads.build(name, seed, ckpt))
        times.append(imported + time.perf_counter() - t0)
    return statistics.median(times), states


def run_op(wl, i: int, tracer: tracing.Tracer | None = None) -> OpRecord:
    """Time op i, then validate it. A failing op is recorded, not fatal."""
    if tracer is not None:
        tracer.op = i
        span = tracer.open("op")
    raw, error = None, ""
    t0 = time.perf_counter()
    try:
        raw = wl.call(i)
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
        tracer.op = -1
    if error:
        wl.log.take()
        rec = OpRecord(seconds, 0, False, error=error)
    else:
        try:
            rec = wl.check(i, raw, seconds)
        except Exception:
            rec = OpRecord(seconds, 0, False, error=traceback.format_exc())
    if not rec.ok:
        print(f"op {i} failed: {rec.error}", file=sys.stderr)
    return rec


def measure(wl, seconds: float, min_ops: int, exact_ops: int | None = None,
            tracer: tracing.Tracer | None = None) -> list[OpRecord]:
    """Closed loop: each op starts when the previous one returned. Runs whole
    rounds for `seconds` and at least `min_ops` ops, or exactly `exact_ops`."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while True:
        if exact_ops is not None:
            if len(records) >= exact_ops:
                break
        elif len(records) >= min_ops and time.perf_counter() - start >= seconds:
            break
        wl.start_round()
        for _ in range(wl.round):
            records.append(run_op(wl, len(records), tracer))
    return records


def tok_s(records: list[OpRecord]) -> float:
    return sum(r.tokens for r in records if r.ok) / sum(r.seconds for r in records)


def round_tok_s(records: list[OpRecord], size: int) -> list[float]:
    """`tok_s` of each whole round of `size` ops."""
    return [tok_s(records[j:j + size]) for j in range(0, len(records) - size + 1, size)]


def repeats_exactly(records: list[OpRecord], period: int) -> bool:
    """Ops `period` apart get the same input from the same state, so their
    losses must be equal bit for bit."""
    return all(r.loss_sum == records[i % period].loss_sum for i, r in enumerate(records))


def prefix_loss(records: list[OpRecord], k: int) -> float:
    head = records[:k]
    return sum(r.loss_sum for r in head) / sum(r.loss_weight for r in head)


def prefix_counts(records: list[OpRecord], k: int) -> dict[str, float]:
    """The per-op counts an untraced op records: all but tape nodes."""
    return {m: sum(r.counts.get(c, 0) for r in records[:k]) / k
            for m, c in tracing.COUNT_METRICS.items() if c != "tape_nodes"}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    (n-10)-th smallest sample, percentile 100*(n-10)/n. Returns both."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return s[n - 11], 100.0 * (n - 10) / n


def parameters(model) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.parameter_map().items()}


def same_parameters(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def peak_step_mb(wl, ops: int) -> tuple[float, list[OpRecord]]:
    """Largest tracemalloc peak above the starting level within one op."""
    peaks, records = [], []
    tracemalloc.start()
    try:
        for i in range(ops):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            records.append(run_op(wl, i))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2 ** 20, records


def environment(seed: int, thread_vars) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()  # identifies the sources where there is no git
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    return {"seed": seed, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {v: os.environ.get(v) for v in thread_vars},
            "process_threads": threads, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def prefix_ops(wl, family: str) -> int:
    return PREFIX_ROUNDS[family] * wl.round


def end_to_end(family: str, states: list, seconds: float, setup_s: float):
    k = prefix_ops(states[0], family)
    records = measure(states[0], seconds, max(MIN_OPS, k))
    latencies = [r.seconds * 1000.0 for r in records]
    tail_ms, tail_pct = tail(latencies)
    rounds = round_tok_s(records, states[0].round)
    metrics = {"setup_s": setup_s,
               "tok_s": statistics.median(rounds),
               "op_ms_p50": statistics.median(latencies),
               "op_ms_tail": tail_ms,
               "mlm_loss": prefix_loss(records, k),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "ok_frac": sum(r.ok for r in records) / len(records)}
    notes = {"ops": len(records), "tail_percentile": tail_pct,
             "round_tok_s": rounds}
    checks = {"ops on a repeated input repeat its loss bit for bit":
              repeats_exactly(records, states[0].period)}
    return records, metrics, notes, checks


def per_layer(name: str, seed: int, ckpt: str, states: list, seconds: float):
    """An untraced pass for `seconds`/2, the same ops traced on an identical
    state, a checkpoint round trip under tracing, then a tracemalloc pass."""
    family = workloads.kind(name)
    k = prefix_ops(states[0], family)
    records = measure(states[0], seconds / 2, k)
    untraced_tok_s = tok_s(records)
    wl = states[2]
    tracer = tracing.Tracer()
    tracing.install(tracer, wl.model)
    try:
        traced = measure(wl, 0, 0, exact_ops=len(records), tracer=tracer)
        if family == "train":
            path = str(OUT / f"ckpt-{name}-{seed}.ckpt")
            wl.trainer.save(path)
            size = os.path.getsize(path)
            resumed = workloads.Trainer.resume(path, wl.corpus)
            round_trip = (same_parameters(parameters(resumed.model), parameters(wl.model))
                          and resumed.step == wl.trainer.step)
            os.remove(path)
        else:
            size = 0
            reloaded, _, _ = workloads.load_model(ckpt)
            round_trip = same_parameters(parameters(reloaded), parameters(wl.model))
    finally:
        tracer.uninstall()
    tracer.write(str(OUT / f"spans-{name}-{seed}.jsonl"))

    metrics = tracing.layer_metrics(tracer, len(traced), k)
    metrics["checkpoint.bytes"] = size
    metrics["trace.overhead"] = 1.0 - tok_s(traced) / untraced_tok_s
    peak, memory_records = peak_step_mb(workloads.build(name, seed, ckpt), MEMORY_OPS[family])
    metrics["autodiff.peak_step_mb"] = peak
    checks = {
        "ops on a repeated input repeat its loss bit for bit":
            repeats_exactly(records, wl.period) and repeats_exactly(traced, wl.period),
        "traced mlm_loss equals untraced bit for bit":
            prefix_loss(traced, k) == prefix_loss(records, k),
        "traced counts equal the untraced pass's EngineStats and schedules":
            all(metrics[m] == v for m, v in prefix_counts(records, k).items()),
        "compose spans agree with each forward's EngineStats":
            not any(n for (_, c), n in tracer.counts.items() if c == "compose_stats_mismatch"),
        "traced ops leave the parameters where untraced ops do":
            same_parameters(parameters(wl.model), parameters(states[0].model)),
        "checkpoint round trip restores the parameters": round_trip,
        "every wrapper removed": tracer.removed(),
    }
    notes = {"mlm_loss": prefix_loss(traced, k),
             "untraced_tok_s": untraced_tok_s, "traced_tok_s": tok_s(traced),
             "ops_per_pass": len(records), "spans": len(tracer.spans)}
    return records + traced + memory_records, metrics, notes, checks


def main(name: str, seed: int, seconds: float, trace: bool, thread_vars) -> int:
    OUT.mkdir(exist_ok=True)
    family = workloads.kind(name)
    ckpt = OUT / f"parse-{seed}.ckpt"
    if family == "parse":
        workloads.write_parse_checkpoint(seed, str(ckpt))
    try:
        setup_s, states = setup(name, seed, str(ckpt))
        # one round of warm-up on an identical copy of the state, so caches
        # fill before timing
        warm = measure(states[1], 0, 0, exact_ops=states[1].round)
        if trace:
            records, metrics, notes, checks = per_layer(name, seed, str(ckpt), states, seconds)
            units = {m: PER_LAYER_UNITS.get(m, "s") for m in metrics}
        else:
            records, metrics, notes, checks = end_to_end(family, states, seconds, setup_s)
            units = END_TO_END_UNITS
    finally:
        ckpt.unlink(missing_ok=True)
    records += warm
    failed = sum(not r.ok for r in records)
    result = {"correct": failed == 0 and all(checks.values()),
              "attempted": len(records), "failed": failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in sorted(metrics.items())}}
    record = {"workload": name, "trace": int(trace), "env": environment(seed, thread_vars),
              "notes": notes, "checks": checks}

    for m, v in sorted(metrics.items()):
        print(f"{m:34s} {v:>16.6g} {units[m]}")
    for check, passed in checks.items():
        print(f"check {'ok  ' if passed else 'FAIL'} {check}")
    print(json.dumps(record))
    with open(OUT / f"result-{name}-{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    print(json.dumps(result))
    return 0
