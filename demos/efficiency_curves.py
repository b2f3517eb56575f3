"""
How the pruned chart scales
===========================

Sweeps sentence length with balanced parser scores and prints the schedule
counters against their bounds: encoded cells stay linear in n (vs n^2/2 for
the full chart) and inside batch count stays logarithmic. Then times a real
forward pass at a few lengths so the constants are honest.
"""

import time

import numpy as np

from chartlm.autodiff import Tensor, no_grad
from chartlm.inside_outside import CioStack, EngineStats, plan_engine, run_stack
from chartlm.pruning import build_cell_batches, prune_schedule, split_order
from chartlm.synthetic import balanced_scores

print(f"{'n':>5} {'m':>3} {'cells':>7} {'<=2mn':>7} {'full':>8} "
      f"{'steps':>6} {'bound':>6}")
for m in (2, 3):
    n = 8
    while n <= 512:
        plan = plan_engine(build_cell_batches(
            prune_schedule(n, m, split_order(balanced_scores(n), n))))
        bound = (m - 1) + 2 * int(np.ceil(np.log2(n)))
        full = n * (n + 1) // 2
        print(f"{n:>5} {m:>3} {plan.rows:>7} {2 * m * n:>7} {full:>8} "
              f"{plan.non_leaf_batches():>6} {bound:>6}")
        n *= 2

# the same sweep with a live forward pass: one layer, d=32, float32
print("\nwall time per forward (single layer, d=32):")
d = 32
stack = CioStack("cio", layers=1, d=d, heads=4, depth=1, share=True,
                 rng=np.random.default_rng(0))
stack.astype(np.float32)
for n in (16, 64, 256):
    plan = plan_engine(build_cell_batches(
        prune_schedule(n, 2, split_order(balanced_scores(n), n))))
    x = Tensor(np.random.default_rng(n).standard_normal((n, d)).astype(np.float32))
    stats = EngineStats()
    t0 = time.perf_counter()
    with no_grad():
        run_stack(x, stack, plan, stats)
    ms = (time.perf_counter() - t0) * 1000
    print(f"  n={n:>3}: {ms:7.1f} ms, {stats.pairs_composed} pairs composed, "
          f"{stats.batched_calls} batched calls")
