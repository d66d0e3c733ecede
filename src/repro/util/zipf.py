"""Zipf-distribution sampling and slope fitting.

The paper (Figure 5) observes a Zipf-like rank/replication plot with a small
flat head: replication is roughly constant over the first few ranks and then
decays as a power law.  ``ZipfSampler`` implements exactly that shape — a
truncated, flattened Zipf — and ``fit_zipf_slope`` recovers the exponent from
observed data so tests and benchmarks can assert the shape holds.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.util.rng import cumulative_table, weighted_index
from repro.util.validation import check_positive


class _LazyNumpy:
    """Defer the numpy import to first use (see ``repro.util.cdf``)."""

    def __getattr__(self, name):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy()


def zipf_weights(n: int, alpha: float, flat_head: int = 0) -> np.ndarray:
    """Unnormalized Zipf weights ``w[k] ~ 1 / (k+1)^alpha`` for ``n`` ranks.

    ``flat_head`` clamps the first ``flat_head`` ranks to the weight of rank
    ``flat_head`` — reproducing the "initial small flat region" of Figure 5.
    """
    check_positive("n", n)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks**-alpha
    if flat_head > 0:
        head = min(flat_head, n)
        weights[:head] = weights[head - 1]
    return weights


class ZipfSampler:
    """Draw item indices from a (flattened) Zipf distribution in O(log n).

    Indices are 0-based; index 0 is the most popular item.  The sampler
    keeps one cumulative weight table, ``np.cumsum``'s floats copied into
    a flat ``array('d')``, so drawing is cheap even for large universes.
    """

    def __init__(self, n: int, alpha: float, flat_head: int = 0) -> None:
        self.n = n
        self.alpha = alpha
        self.flat_head = flat_head
        self._cum = cumulative_table(zipf_weights(n, alpha, flat_head))
        self._total = self._cum[-1]

    def weight(self, index: int) -> float:
        """The unnormalized weight of ``index``."""
        if index == 0:
            return self._cum[0]
        return self._cum[index] - self._cum[index - 1]

    def weights(self) -> np.ndarray:
        """Every ``weight(i)`` at once, in index order."""
        return np.diff(np.frombuffer(self._cum), prepend=0.0)

    def probability(self, index: int) -> float:
        return self.weight(index) / self._total

    def sample(self, rng) -> int:
        """Draw one index.  ``rng`` is a ``random.Random``."""
        return weighted_index(rng, self._cum, self._total)


def fit_zipf_slope(
    ranks: Sequence[float],
    values: Sequence[float],
    skip_head: int = 0,
) -> Tuple[float, float]:
    """Least-squares fit of ``log(value) = intercept - slope * log(rank)``.

    Returns ``(slope, r_squared)`` where ``slope`` is reported as a positive
    number for a decaying power law.  Zero values are dropped (they cannot be
    log-transformed); ``skip_head`` drops the flat head before fitting.
    """
    r = np.asarray(ranks, dtype=float)[skip_head:]
    v = np.asarray(values, dtype=float)[skip_head:]
    mask = (r > 0) & (v > 0)
    r, v = r[mask], v[mask]
    if len(r) < 3:
        raise ValueError("need at least 3 positive points to fit a slope")
    lx, ly = np.log10(r), np.log10(v)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return -float(slope), r_squared


def swap_iterations(total_replicas: int) -> int:
    """The appendix's mixing schedule: ``(1/2) * N * ln(N)`` swap attempts.

    ``N`` is the total number of file replicas in the trace.  Returns at
    least 1 for tiny traces so that callers can always make progress.
    """
    check_positive("total_replicas", total_replicas)
    if total_replicas == 1:
        return 1
    return max(1, int(0.5 * total_replicas * math.log(total_replicas)))
