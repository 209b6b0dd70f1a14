"""Order statistics and span arithmetic used by the benchmark.

Kept free of ``repro`` imports on purpose: the statistics that judge the
program must not change when the program does.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75)

#: Samples that must lie beyond a percentile for it to count as supported.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in (0, 1])."""
    if not samples:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    With ``count`` samples, percentile ``q`` sits at nearest rank
    ``ceil(q * count)``, so ``count - ceil(q * count)`` samples lie
    beyond it.  Returns ``None`` when no ladder step above the median is
    supported.
    """
    for q in TAIL_LADDER:
        if count - math.ceil(q * count) >= TAIL_MIN_BEYOND:
            return q
    return None


def percentile_label(q: float) -> str:
    """``0.95 -> "p95"``, ``0.999 -> "p99.9"``."""
    text = f"{q * 100:.1f}".rstrip("0").rstrip(".")
    return f"p{text}"


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are records with ``id``, ``parent``, ``start`` and ``end``
    (seconds).  Children may overlap each other (portfolio members race
    in parallel threads), so the covered part is the union of the
    children's intervals clipped to the parent's own interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (``statistics`` rule)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
