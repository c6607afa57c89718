"""A frozen reference computation that tracks how fast the host runs now.

The host these figures come from is shared with other machines' work: the
same pass of the same commands took from 1x to 2x as long within minutes,
in spells that outlast a run.  So the benchmark times this reference between
commands and scales each time metric to the speed at which the reference
takes ``REFERENCE_S`` seconds:

    reported = measured * REFERENCE_S / (median reference time in the run)

The reference is plain Python in the kernels the program spends its time in:
Fraction dot products, dict accumulation of Fractions, and fraction-free
integer elimination.  It belongs to the benchmark, so a change to the
program cannot move it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# sets the scale: reported times are those of a host on which the reference
# takes 15 ms (the 2.1 GHz Xeon host measured here takes 10 to 20 ms)
REFERENCE_S = 0.015
# how often the measuring process samples the reference, in seconds of wall time
SAMPLE_EVERY_S = 0.5


def reference() -> float:
    """Seconds one run of the reference takes right now."""
    rng = random.Random(0)
    start = perf_counter()
    n = 12
    matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    vector = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    for _ in range(3):
        vector = [sum((a * b for a, b in zip(row, vector)), Fraction(0)) / 7 for row in matrix]
    total: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(400):
        bucket = total.setdefault((i % 23, i % 5), {})
        for m in range(4):
            bucket[m] = bucket.get(m, Fraction(0)) + vector[(i + m) % n] * Fraction(i % 7 - 3, 5)
    rows = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(30)]
    previous = 1
    for step in range(len(rows)):
        pivot_row = next((r for r in range(step, len(rows)) if rows[r][step]), None)
        if pivot_row is None:
            continue
        rows[step], rows[pivot_row] = rows[pivot_row], rows[step]
        pivot = rows[step][step]
        for r in range(step + 1, len(rows)):
            lead = rows[r][step]
            rows[r] = [(pivot * a - lead * b) // previous for a, b in zip(rows[r], rows[step])]
        previous = pivot
    return perf_counter() - start
