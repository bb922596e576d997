"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles the benchmark may report, lowest first. p99.9 is left
#: out: even over 12 000 hits it moved by 45% between runs.
LEVELS = (50.0, 75.0, 90.0, 99.0)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty),
    so the value is always one that was measured."""
    if not ordered:
        return 0.0
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def tail_level(count: int) -> float:
    """The highest of :data:`LEVELS` with at least :data:`MIN_BEYOND`
    samples beyond it among ``count`` (p50 when none qualifies)."""
    best = LEVELS[0]
    for level in LEVELS:
        if count * (100.0 - level) / 100.0 >= MIN_BEYOND - 1e-9:
            best = level
    return best


def level_name(level: float) -> str:
    """``99.9`` -> ``"p99.9"``, ``90.0`` -> ``"p90"``."""
    return f"p{level:g}"
