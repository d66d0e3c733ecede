"""Empirical-distribution helpers used throughout the analysis modules.

The paper's figures are mostly CDFs and log-log rank plots; these helpers
compute them from raw samples in a form that is easy both to assert on in
tests and to render as text series in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # annotations only; functions import numpy when called
    import numpy as np


def empirical_cdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(xs, ps)`` such that ``ps[i]`` is the fraction of samples
    ``<= xs[i]``, with ``xs`` sorted ascending.

    Raises ``ValueError`` on empty input — an empty CDF is always a bug in
    the calling experiment, and silently returning empty arrays hides it.
    """
    if len(samples) == 0:
        raise ValueError("cannot compute the CDF of an empty sample")
    import numpy as np

    xs = np.sort(np.asarray(samples, dtype=float))
    ps = np.arange(1, len(xs) + 1, dtype=float) / len(xs)
    return xs, ps


@dataclass
class Series:
    """A named (x, y) series — the unit of "figure data" in this library.

    Experiments return lists of ``Series``; benchmarks render them as text
    and tests assert on their shapes.
    """

    name: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def append(self, x: float, y: float) -> None:
        self.xs.append(float(x))
        self.ys.append(float(y))

    def __len__(self) -> int:
        return len(self.xs)

    def y_at(self, x: float) -> float:
        """The y value at the first x equal to ``x`` (exact match)."""
        for xi, yi in zip(self.xs, self.ys):
            if xi == x:
                return yi
        raise KeyError(f"x={x} not present in series {self.name!r}")

    def as_dict(self) -> Dict[float, float]:
        return dict(zip(self.xs, self.ys))


def spaced_indices(n: int, max_points: int) -> Sequence[int]:
    """Indices of at most ``max_points`` evenly spaced points of an
    ``n``-point series, the first and last included (all ``n`` when they
    fit)."""
    if n <= max_points:
        return range(n)
    step = (n - 1) / (max_points - 1)
    return sorted({int(round(i * step)) for i in range(max_points)})
