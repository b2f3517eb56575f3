"""Chart containers shared by the pruner, the encoder stack, and the oracle.

Spans are 1-based inclusive (i, j) tuples everywhere; conversion to 0-based
array indices happens only at numpy boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import Span


@dataclass
class Schedule:
    """Encoding plan: batches of spans plus the split relation.

    `batches[0]` is always the leaves; each later batch only references
    spans from strictly earlier batches.
    """

    n: int
    batches: list[list[Span]]
    splits: dict[Span, tuple[int, ...]]

    @property
    def root(self) -> Span:
        return (1, self.n)

    def non_leaf_batches(self) -> int:
        return len(self.batches) - 1

    def cell_count(self) -> int:
        return sum(len(b) for b in self.batches)

    def ordered_spans(self) -> list[Span]:
        return [s for batch in self.batches for s in batch]


def validate_schedule(schedule: Schedule) -> None:
    """Check the structural contract; raises ValueError with the offender."""
    n = schedule.n
    if schedule.batches and schedule.batches[0] != [(i, i) for i in range(1, n + 1)]:
        raise ValueError("batch 0 must be the leaves in order")
    ready: set[Span] = set()
    seen: set[Span] = set()
    for t, batch in enumerate(schedule.batches):
        for span in batch:
            i, j = span
            if not (1 <= i <= j <= n):
                raise ValueError(f"span {span} outside [1,{n}]")
            if span in seen:
                raise ValueError(f"span {span} scheduled twice")
            seen.add(span)
            if t == 0:
                continue
            ks = schedule.splits.get(span, ())
            if not ks:
                raise ValueError(f"non-leaf span {span} has no splits")
            for k in ks:
                if (i, k) not in ready or (k + 1, j) not in ready:
                    raise ValueError(f"split {k} of {span} references unready sub-spans")
        ready.update(batch)
    if n > 0 and (1, n) not in seen:
        raise ValueError("root span missing from schedule")

