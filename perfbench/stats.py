"""Summary statistics and naming rules shared by the benchmark and its tests."""

from __future__ import annotations

import math
import re
import statistics
from typing import Optional, Sequence, Tuple

#: Metric and workload names: a letter or digit, then letters, digits, ``_ . -``.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Percentiles a tail figure may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return bool(NAME_PATTERN.match(name))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` (0-100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def tail_percentile(count: int) -> Optional[float]:
    """Highest reportable percentile for ``count`` samples, or ``None``.

    A percentile ``p`` is reportable when at least :data:`TAIL_MIN_BEYOND`
    samples lie beyond it, i.e. ``count * (1 - p/100) >= 10``.
    """
    for q in TAIL_PERCENTILES:
        if count * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return q
    return None


def timing_summary(values: Sequence[float]) -> Tuple[float, Optional[float], Optional[float], int]:
    """``(median, tail percentile, tail value, sample count)`` of a timing."""
    q = tail_percentile(len(values))
    tail = None if q is None else percentile(values, q)
    return float(statistics.median(values)), q, tail, len(values)


def format_timing(values: Sequence[float], scale: float = 1.0, unit: str = "s") -> str:
    """One-line rendering of :func:`timing_summary` (values times ``scale``)."""
    mid, q, tail, count = timing_summary(values)
    text = f"median {mid * scale:.4g} {unit}"
    if q is not None:
        text += f", p{q:g} {tail * scale:.4g} {unit}"
    return text + f" (n={count})"

