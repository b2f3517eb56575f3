"""The benchmark in `perfbench/` wraps chartlm's functions by name when it
traces a run. A renamed function would fail only traced benchmark runs, so
this suite installs the benchmark's wrappers once and takes them out again."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_and_removes_every_wrapper(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, workloads.new_model())
    finally:
        tracer.uninstall()
    assert tracer.removed()
