"""Tests of the benchmark itself: inputs, span arithmetic, wrapper hygiene
and counter determinism.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chartlm.trees import branch, leaf  # noqa: E402


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert workloads.train_corpus(3) == workloads.train_corpus(3)
    assert workloads.train_corpus(3) != workloads.train_corpus(4)
    ladder = workloads.parse_ladder(3)
    assert ladder == workloads.parse_ladder(3)
    assert ladder != workloads.parse_ladder(4)
    assert [len(s) for s in ladder] == list(workloads.LADDER) * workloads.LADDER_PASSES
    # the initial weights are fixed; the seed draws only the data
    assert bench.same_parameters(bench.parameters(workloads.new_model()),
                                 bench.parameters(workloads.new_model()))


def test_train_batches_repeat_for_a_seed():
    a = workloads.build("train-fast", 5, "")
    b = workloads.build("train-fast", 5, "")
    assert [a.batch(i) for i in range(10)] == [b.batch(i) for i in range(10)]
    c = workloads.build("train-fast", 6, "")
    assert [a.batch(i) for i in range(10)] != [c.batch(i) for i in range(10)]


def test_every_train_round_replays_the_first_epoch():
    wl = workloads.build("train-fast", 5, "")
    before = bench.parameters(wl.model)
    wl.start_round()
    first = [bench.run_op(wl, i) for i in range(2)]
    assert not bench.same_parameters(before, bench.parameters(wl.model))
    wl.start_round()
    assert bench.same_parameters(before, bench.parameters(wl.model))
    again = [bench.run_op(wl, i) for i in range(2)]
    assert [r.loss_sum for r in again] == [r.loss_sum for r in first]
    assert all(r.ok for r in first + again)


def test_self_time_on_a_hand_built_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),     # overlaps b on [3, 4]
        S("b", 3.0, 6.0, 0, 0),
        S("a.1", 2.0, 3.0, 1, 0),
        S("c", 8.0, 12.0, 0, 0),    # runs past its parent: clipped at 10
        S("other", 20.0, 21.0, -1, 1),
    ]
    # root: 10 minus the union [1, 6] + [8, 10]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0, 1.0])


def test_tree_check_rejects_malformed_trees():
    toks = ["a", "b", "c"]
    good = branch([branch([leaf("a", 1), leaf("b", 2)]), leaf("c", 3)])
    assert workloads.tree_ok(good, toks)
    assert not workloads.tree_ok(good, ["a", "c", "b"])
    assert not workloads.tree_ok(good, toks + ["d"])
    ternary = branch([leaf("a", 1), leaf("b", 2), leaf("c", 3)])
    assert not workloads.tree_ok(ternary, toks)


def test_tail_is_the_sample_with_ten_beyond_it():
    samples = [float(v) for v in range(1, 31)]
    value, pct = bench.tail(samples)
    assert value == 20.0 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_wrappers_are_removed_and_parameters_untouched():
    import chartlm.model as cm
    import chartlm.training as ct
    from chartlm.autodiff import Tensor
    from chartlm.nn import AttentionBlock
    owners = [cm, ct, Tensor, cm.ChartLM, ct.Trainer, ct.AdamW]
    before = [dict(vars(o)) for o in owners]
    wl = workloads.build("train-masked", 2, "")
    plain = workloads.build("train-masked", 2, "")
    tracer = tracing.Tracer()
    tracing.install(tracer, wl.model)
    try:
        assert type(wl.model.encoder) is not AttentionBlock
        rec = bench.run_op(wl, 0, tracer)
    finally:
        tracer.uninstall()
    assert rec.ok
    assert tracer.removed()
    assert type(wl.model.encoder) is AttentionBlock
    for owner, snap in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in snap.items())
    # the traced step leaves the weights exactly where an untraced one does
    assert bench.run_op(plain, 0).ok
    assert bench.same_parameters(bench.parameters(wl.model), bench.parameters(plain.model))
    names = {s.name for s in tracer.spans}
    assert {"training.step", "model.forward", "model.encoder", "inside_outside.compose",
            "autodiff.backward", "training.optimizer", "nn.bilstm"} <= names


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


COUNTS = ["autodiff.tape_nodes", "pruning.cells", "pruning.waves",
          "pruning.split_order_calls", "inside_outside.compose_calls",
          "inside_outside.pairs_composed"]


@pytest.mark.parametrize("workload", ["parse-full", "train-fast"])
def test_counts_repeat_exactly_under_a_seed(workload):
    first, second = _run(workload, 7, 1), _run(workload, 7, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == _declared("per_layer")
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    other = _run(workload, 8, 1)
    assert any(first["metrics"][n] != other["metrics"][n] for n in COUNTS)


def test_untraced_run_reports_every_end_to_end_metric():
    result = _run("parse-fast", 7, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    assert {m: v["unit"] for m, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the traced run's loss, kept in its result file, equals this run's bit for bit
    _run("parse-fast", 7, 1)
    traced = json.loads((ROOT / ".perfbench_out" / "result-parse-fast-7-trace1.json").read_text())
    assert traced["notes"]["mlm_loss"] == result["metrics"]["mlm_loss"]["value"]
