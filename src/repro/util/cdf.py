"""Empirical-distribution helpers used throughout the analysis modules.

The paper's figures are mostly CDFs and log-log rank plots; these helpers
compute them from raw samples in a form that is easy both to assert on in
tests and to render as text series in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


class _LazyNumpy:
    """Defer the numpy import to first use (annotations are strings here).

    ``repro.util`` is imported by store-only tools and the CLI's help
    paths, which never evaluate a CDF; rebinding the module-global ``np``
    on first attribute access keeps their baseline RSS numpy-free.
    """

    def __getattr__(self, name):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy()


def empirical_cdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(xs, ps)`` such that ``ps[i]`` is the fraction of samples
    ``<= xs[i]``, with ``xs`` sorted ascending.

    Raises ``ValueError`` on empty input — an empty CDF is always a bug in
    the calling experiment, and silently returning empty arrays hides it.
    """
    if len(samples) == 0:
        raise ValueError("cannot compute the CDF of an empty sample")
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


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean with an explicit error on empty input."""
    vals = list(values)
    if not vals:
        raise ValueError("mean of empty sequence")
    return float(sum(vals)) / len(vals)
