#!/usr/bin/env python3
"""chartlm benchmark: one closed-loop client driving chartlm's public API.

    python3 perfbench/run.py --workload train-masked --seed 1 --seconds 20 --trace 0

Run from the repository root. `--trace 0` measures the end-to-end metrics
with tracing off; `--trace 1` makes an untraced and a traced pass over the
same ops and reports the per-layer metrics. Every metric is printed by name
with its unit, and the last line of standard output is the JSON result.
See perfbench/README.md.
"""

import os

# OpenBLAS reads these when numpy loads it, so they are set before anything
# can import numpy; the import probes this process starts inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("train-masked", "train-fast", "parse-full", "parse-fast")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="chartlm benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "chartlm" / "__init__.py").is_file():
        print(f"error: no chartlm sources under {src}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace),
                      THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
