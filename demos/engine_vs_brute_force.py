"""
Batched chart engine vs cubic brute force
=========================================

Runs the batched inside-outside engine over a full chart and recomputes
every quantity with the independent per-span reference. The point of the
exercise: gather/scatter index plumbing is where chart engines rot, so we
check every representation and score, not just the final loss.
"""

import numpy as np

from chartlm.autodiff import Tensor
from chartlm.inside_outside import CioStack, induce_order, plan_engine, run_stack
from chartlm.oracle import best_tree_exhaustive, full_chart_reference
from chartlm.pruning import build_cell_batches, prune_schedule, split_order

n, d, layers = 7, 16, 2
rng = np.random.default_rng(0)

stack = CioStack("cio", layers=layers, d=d, heads=4, depth=1, share=True, rng=rng)

# window >= n keeps every span, so the pruned engine must agree with the
# reference on the complete chart
order = split_order(rng.standard_normal(n - 1), n)
plan = plan_engine(build_cell_batches(prune_schedule(n, n, order)))
# the leaves are the first batch
print(f"full chart: {plan.rows} cells in {1 + plan.non_leaf_batches()} batches")

x = Tensor(rng.standard_normal((n, d)))
result = run_stack(x, stack, plan)
reference = full_chart_reference(x.data, stack)

for l in range(layers):
    got, ref = result.layers[l], reference.layers[l]
    worst = 0.0
    for span, row in plan.row_of.items():
        worst = max(worst,
                    float(np.max(np.abs(got.inside.data[row] - ref.inside[span]))),
                    abs(float(got.inside_score.data[row]) - ref.inside_score[span]),
                    float(np.max(np.abs(got.outside.data[row] - ref.outside[span]))),
                    abs(float(got.outside_score.data[row]) - ref.outside_score[span]))
    print(f"layer {l}: worst |engine - reference| = {worst:.3e}")

# tree induction: recursive argmax from the root vs exhaustive enumeration
# both are split maps in preorder; compare them as ordered (span, boundary) lists
steps = list(induce_order(result).items())
exhaustive = list(best_tree_exhaustive(reference.final.split_scores, n).items())
print(f"\ninduced splits:    {steps}")
print(f"exhaustive search: {exhaustive}")
print("agree" if steps == exhaustive else "DISAGREE")
