"""Analyses over sweep measurements: knees, sufficient cache sizes,
speedups, and the nonlinear-response comparison of Fig 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def speedup_series(values: Sequence[float], baseline: float) -> List[float]:
    """Each value relative to *baseline* (Fig 6/Fig 8 convention:
    baseline elapsed / value elapsed, i.e. >1 means faster)."""
    if baseline <= 0:
        raise ConfigurationError("baseline must be positive")
    return [baseline / v if v > 0 else float("inf") for v in values]


def relative_performance(values: Sequence[float]) -> List[float]:
    """Values normalized to the last entry (full-allocation reference)."""
    if not values:
        return []
    reference = values[-1]
    if reference <= 0:
        raise ConfigurationError("reference performance must be positive")
    return [v / reference for v in values]


def sufficient_allocation(
    sizes: Sequence[float],
    performance: Sequence[float],
    threshold: float,
) -> Optional[float]:
    """Smallest size whose performance is >= threshold x full-allocation
    performance — the Table 4 statistic.

    The paper reads this off monotone-ish curves; measurement noise can
    produce local dips, so the *first* size meeting the threshold is
    returned (as the paper's table does).
    """
    if len(sizes) != len(performance) or not sizes:
        raise ConfigurationError("sizes and performance must align")
    if not 0 < threshold <= 1:
        raise ConfigurationError("threshold must be in (0, 1]")
    relative = relative_performance(list(performance))
    for size, value in zip(sizes, relative):
        if value >= threshold:
            return size
    return None


@dataclass(frozen=True)
class Knee:
    """A detected knee: the allocation where marginal benefit collapses."""

    x: float
    curvature: float


def find_knee(xs: Sequence[float], ys: Sequence[float]) -> Knee:
    """Locate the knee of a saturating curve (max distance to chord).

    Uses the "kneedle"-style construction: normalize the curve, then find
    the point farthest above the straight line joining the endpoints.
    Works for both rising (performance vs cache) and falling (MPKI vs
    cache) curves.
    """
    if len(xs) != len(ys) or len(xs) < 3:
        raise ConfigurationError("need at least three points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    x_norm = (x - x.min()) / (x.max() - x.min() or 1.0)
    span = y.max() - y.min()
    if span == 0:
        return Knee(x=float(x[0]), curvature=0.0)
    y_norm = (y - y.min()) / span
    if y_norm[0] > y_norm[-1]:
        y_norm = 1.0 - y_norm  # falling curve -> rising
    distance = y_norm - x_norm
    index = int(np.argmax(distance))
    return Knee(x=float(x[index]), curvature=float(distance[index]))


@dataclass(frozen=True)
class LinearComparison:
    """Fig 5's point: the bandwidth a linear model overestimates.

    ``linear_prediction(q)`` inverts the straight line through the origin
    and the full-allocation point; ``actual_requirement(q)`` interpolates
    the measured curve.  ``savings_fraction`` is the paper's "~20%
    reduction" statistic evaluated at ``probe_performance``.
    """

    limits: Tuple[float, ...]
    performance: Tuple[float, ...]
    probe_performance: float
    linear_bandwidth: float
    actual_bandwidth: float

    @property
    def savings_fraction(self) -> float:
        if self.linear_bandwidth <= 0:
            return 0.0
        return 1.0 - self.actual_bandwidth / self.linear_bandwidth


def linear_response_comparison(
    limits: Sequence[float],
    performance: Sequence[float],
    probe_fraction: float = 0.95,
) -> LinearComparison:
    """Compare the measured QPS-vs-bandwidth curve with a linear model.

    *limits* must be ascending; the linear model is the line from the
    origin through the highest-limit measurement.  The probe performance
    is ``probe_fraction`` of the maximum measured performance.
    """
    if len(limits) != len(performance) or len(limits) < 2:
        raise ConfigurationError("need at least two aligned points")
    xs = np.asarray(limits, dtype=float)
    ys = np.asarray(performance, dtype=float)
    if not np.all(np.diff(xs) > 0):
        raise ConfigurationError("limits must be strictly ascending")
    slope = ys[-1] / xs[-1]
    probe = probe_fraction * float(ys.max())
    linear_bw = probe / slope if slope > 0 else float("inf")
    actual_bw = float(np.interp(probe, ys, xs))
    return LinearComparison(
        limits=tuple(float(v) for v in xs),
        performance=tuple(float(v) for v in ys),
        probe_performance=probe,
        linear_bandwidth=linear_bw,
        actual_bandwidth=actual_bw,
    )


def diminishing_returns(xs: Sequence[float], ys: Sequence[float]) -> bool:
    """True when marginal gains shrink along the curve (Fig 5's shape):
    the average slope of the second half is below the first half's."""
    if len(xs) != len(ys) or len(xs) < 3:
        raise ConfigurationError("need at least three points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    mid = len(x) // 2
    first = (y[mid] - y[0]) / (x[mid] - x[0])
    second = (y[-1] - y[mid]) / (x[-1] - x[mid])
    return second < first


def wait_ratio_table(
    small_sf_waits: Dict, large_sf_waits: Dict
) -> Dict[str, float]:
    """Table 3: per-wait-type ratios, large SF relative to small SF.

    A wait type seen at neither scale factor has no ratio (0/0) and is
    left out; one seen only at the large scale factor is ``inf``.
    """
    ratios: Dict[str, float] = {}
    for wait_type, small_value in small_sf_waits.items():
        large_value = large_sf_waits.get(wait_type, 0.0)
        name = getattr(wait_type, "value", str(wait_type))
        if small_value > 0:
            ratios[name] = large_value / small_value
        elif large_value > 0:
            ratios[name] = float("inf")
    return ratios
