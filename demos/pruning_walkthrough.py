"""
Chart pruning, step by step
===========================

Walks a six-token sentence through the pruning procedure: boundary scores
become a split map (each span to the boundary it splits after, in descending
score order), merge rounds shrink the frontier, and the surviving cells are
grouped into dependency-ready batches.
"""

import numpy as np

from chartlm.pruning import build_cell_batches, merge_rounds, prune_schedule, split_order

# Boundary k separates tokens k and k+1. Higher score = more likely split.
scores = np.array([0.1, 0.6, 1.0, 0.8, 0.4])
n = 6

order = split_order(scores, n)
print("top-down split order (boundary, span):")
for span, k in order.items():
    print(f"  boundary {k} inside span {span}")

# The split order is replayed bottom-up: the LAST splits taken top-down are
# the FIRST subtrees merged into single units.
rounds = merge_rounds(order)
print(f"\nmerge rounds (grouped by subtree height): {rounds}")
print(f"flat merge order: {[k for group in rounds for k in group]}")

cells = prune_schedule(n, window=2, order=order)
print("\nkept cells and their admissible splits:")
for span in sorted(cells):
    print(f"  span {span}: splits {list(cells[span])}")

# Cells whose every parent was dropped are removed transitively, then the
# rest are grouped into waves whose dependencies are already encoded.
waves = build_cell_batches(cells)
print("\nencoding batches (leaves first, root last):")
print(f"  batch 0: {[(i, i) for i in range(1, n + 1)]}")
for t, wave in enumerate(waves, 1):
    print(f"  batch {t}: {list(wave)}")

width2 = sum(1 for wave in waves for (i, j) in wave if j - i == 1)
print(f"\ncell count {n + sum(map(len, waves))} (bound 2*m*n = {2 * 2 * n}); "
      f"{width2} width-2 cells survived")
