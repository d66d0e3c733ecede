"""File kinds and the bimodal size distribution.

The paper (Figure 6) reports that 40% of all files are under 1 MB, 50% are
in the 1-10 MB MP3 range and only 10% are larger — but that among *popular*
files (popularity >= 5) about 45% are DIVX-sized (> 600 MB).  We reproduce
this by giving every file a *kind* whose distribution depends on whether the
file sits in the popular head of the intrinsic-popularity ranking, and a
size drawn from a kind-specific lognormal clamped to the kind's natural
range.
"""

from __future__ import annotations

import math
from array import array
from itertools import accumulate
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.util.rng import RngStream, weighted_index
from repro.util.validation import check_fraction

KB = 1024
MB = 1024 * 1024

#: kind -> (median bytes, lognormal sigma, min bytes, max bytes)
SIZE_MODELS: Dict[str, Tuple[float, float, int, int]] = {
    # small documents, images, subtitle files
    "document": (300 * KB, 1.3, 1 * KB, MB - 1),
    # single MP3 tracks
    "audio": (4 * MB, 0.5, MB, 10 * MB),
    # complete albums, small videos, software
    "album": (60 * MB, 0.9, 10 * MB, 600 * MB),
    "program": (80 * MB, 1.1, 10 * MB, 600 * MB),
    # DIVX movies
    "video": (700 * MB, 0.25, 600 * MB, 4096 * MB),
}

#: kind mix for the popularity head (popular files are mostly large videos)
HEAD_KIND_WEIGHTS: Dict[str, float] = {
    "video": 0.50,
    "album": 0.12,
    "program": 0.08,
    "audio": 0.20,
    "document": 0.10,
}

#: kind mix for the long tail (matches the overall 40/50/10 split once mixed)
TAIL_KIND_WEIGHTS: Dict[str, float] = {
    "video": 0.02,
    "album": 0.04,
    "program": 0.03,
    "audio": 0.50,
    "document": 0.41,
}


def sample_size(kind: str, rng: RngStream) -> int:
    """Draw a file size in bytes for ``kind`` (clamped lognormal)."""
    try:
        median, sigma, lo, hi = SIZE_MODELS[kind]
    except KeyError:
        raise ValueError(f"unknown file kind {kind!r}") from None
    mu = math.log(median)
    size = rng.py.lognormvariate(mu, sigma)
    return int(min(max(size, lo), hi))


def _kind_table(weights: Dict[str, float]) -> Tuple[List[str], array, float]:
    """Kinds in name order, their running weight sums and the total the
    kind draw always used, ``float(sum(...))``: from Python 3.12 a
    compensated sum, which may differ from the last running sum."""
    kinds = sorted(weights)
    ordered = [weights[k] for k in kinds]
    return kinds, array("d", accumulate(ordered, initial=0.0))[1:], float(sum(ordered))


@dataclass
class FileKindModel:
    """Draws (kind, size) pairs conditioned on popularity-head membership.

    ``head_fraction`` is the fraction of the intrinsic-popularity ranking
    treated as the popular head.  Weights may be overridden for ablations
    (e.g. an all-audio workload).
    """

    head_fraction: float = 0.05
    head_weights: Dict[str, float] = field(
        default_factory=lambda: dict(HEAD_KIND_WEIGHTS)
    )
    tail_weights: Dict[str, float] = field(
        default_factory=lambda: dict(TAIL_KIND_WEIGHTS)
    )

    def __post_init__(self) -> None:
        check_fraction("head_fraction", self.head_fraction)
        for label, weights in (("head", self.head_weights), ("tail", self.tail_weights)):
            unknown = set(weights) - set(SIZE_MODELS)
            if unknown:
                raise ValueError(f"unknown kinds in {label} weights: {unknown}")
            if min(weights.values(), default=0) < 0 or sum(weights.values()) <= 0:
                raise ValueError(f"{label} weights must be non-negative with positive total")
        self._head_table = _kind_table(self.head_weights)
        self._tail_table = _kind_table(self.tail_weights)

    def sample_kind(self, popularity_rank: int, universe_size: int, rng: RngStream) -> str:
        """Draw a kind given the file's intrinsic-popularity rank (0 = most
        popular) within a universe of ``universe_size`` files."""
        in_head = popularity_rank < self.head_fraction * universe_size
        kinds, cum, total = self._head_table if in_head else self._tail_table
        return kinds[weighted_index(rng.py, cum, total)]

    def sample(
        self, popularity_rank: int, universe_size: int, rng: RngStream
    ) -> Tuple[str, int]:
        kind = self.sample_kind(popularity_rank, universe_size, rng)
        return kind, sample_size(kind, rng)
