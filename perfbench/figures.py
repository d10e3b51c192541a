"""Small statistics shared by the benchmark: the tail rule, ratios,
quartile spreads and the host calibration loop."""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, Sequence, Tuple

#: Samples a tail percentile must leave above it.
TAIL_BEYOND = 10
#: Rounds and heap size of the host calibration loop.
CALIB_ROUNDS = 3
CALIB_SIZE = 60_000


def tail(values: Sequence[float]) -> Tuple[float, float, bool]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, rule_met)``.  With ``n`` samples sorted
    ascending, the value at 0-based rank ``n - TAIL_BEYOND - 1`` has
    exactly ``TAIL_BEYOND`` samples ranked above it; its percentile is
    the share of samples at or below it.  With too few samples the rule
    cannot be met and the maximum (percentile 100) is returned with
    ``rule_met`` false.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[-1], 100.0, False
    return ordered[rank], 100.0 * (rank + 1) / n, True


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (Q3 - Q1) / median over repeated runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was measured (``den`` is 0)."""
    return num / den if den else 0.0


def calibrate() -> float:
    """Median seconds of a fixed pure-Python heap/dict loop.

    Uses no repository code, so it moves only when the host does; the
    steadiness report prints it next to every run.
    """
    timings = []
    for _ in range(CALIB_ROUNDS):
        start = time.perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(CALIB_SIZE):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            table[i & 1023] = table.get(i & 1023, 0) + i
        while heap:
            heapq.heappop(heap)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)
