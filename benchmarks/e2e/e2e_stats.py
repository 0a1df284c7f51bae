"""Sample statistics and the metric table of a run."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence, Tuple


def quartiles(samples: Iterable[float]) -> Tuple[float, float, float]:
    """Lower quartile, median, upper quartile (one sample is all three)."""
    xs = list(samples)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def tail(samples: Sequence[float]) -> Tuple[str, float]:
    """The tail the sample supports: p95 with at least ten samples beyond it
    (200 samples or more), otherwise the upper quartile."""
    xs = sorted(samples)
    if len(xs) >= 200:
        return "p95", xs[math.ceil(0.95 * len(xs)) - 1]
    return "p75", quartiles(xs)[2]


class Metrics(dict):
    """``{name: {"value", "unit"[, "q1", "q3", "n"]}}`` in insertion order."""

    def put(self, name: str, value: float, unit: str) -> None:
        self[name] = {"value": value, "unit": unit}

    def put_samples(self, name: str, samples: Sequence[float], unit: str = "s") -> None:
        """Report a timing as its median, with quartiles and sample count."""
        q1, q2, q3 = quartiles(samples)
        self[name] = {"value": q2, "unit": unit, "q1": q1, "q3": q3, "n": len(samples)}
