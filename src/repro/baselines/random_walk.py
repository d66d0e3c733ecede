"""Random-walk search over the same unstructured overlay as flooding.

Random walks trade latency for load: a walk contacts one peer per step,
so its cost is bounded by the walk length instead of exploding with the
flood radius.  Included as the standard alternative baseline for
unstructured search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.flooding import build_overlay, measure_queries
from repro.trace.model import ClientId, FileId, StaticTrace
from repro.util.rng import RngStream
from repro.util.validation import check_positive


@dataclass
class RandomWalkConfig:
    """Overlay degree, number of parallel walkers and per-walker steps."""

    degree: int = 4
    walkers: int = 4
    steps: int = 64

    def __post_init__(self) -> None:
        check_positive("degree", self.degree)
        check_positive("walkers", self.walkers)
        check_positive("steps", self.steps)


@dataclass
class WalkResult:
    hit: bool
    contacted: int


class RandomWalkSearch:
    """k parallel random walks with step budgets.

    Membership probes run on the compiled trace (interned file key
    against frozen int sets); walk RNG draws never touch file ids.
    """

    def __init__(
        self,
        trace: StaticTrace,
        config: Optional[RandomWalkConfig] = None,
        seed: int = 0,
    ) -> None:
        self.trace = trace
        self.config = config or RandomWalkConfig()
        self.rng = RngStream(seed, "random-walk")
        self.peers = sorted(trace.caches)
        self.overlay = build_overlay(self.peers, self.config.degree, self.rng)
        compiled = trace.compiled()
        row = compiled.client_row
        sets = compiled.cache_sets
        self._file_index = compiled.file_index
        self._lookup: Dict[ClientId, frozenset] = {
            peer: sets[row[peer]] for peer in self.peers
        }

    def search(self, start: ClientId, file_id: FileId) -> WalkResult:
        lookup = self._lookup
        file_key = self._file_index.get(file_id)
        contacted = 0
        for walker in range(self.config.walkers):
            walk_rng = self.rng.child(f"walk[{start}/{walker}]")
            current = start
            for _ in range(self.config.steps):
                neighbours = self.overlay.get(current, [])
                if not neighbours:
                    break
                current = neighbours[walk_rng.py.randrange(len(neighbours))]
                contacted += 1
                if file_key in lookup.get(current, frozenset()):
                    return WalkResult(hit=True, contacted=contacted)
        return WalkResult(hit=False, contacted=contacted)


def measure_random_walk(
    trace: StaticTrace,
    num_queries: int = 200,
    config: Optional[RandomWalkConfig] = None,
    seed: int = 0,
) -> Dict[str, float]:
    """Monte-Carlo hit rate / contact cost of random-walk search (see
    :func:`~repro.baselines.flooding.measure_queries`)."""
    search = RandomWalkSearch(trace, config=config, seed=seed)

    def probe(requester: ClientId, file_id: FileId) -> Tuple[bool, int]:
        result = search.search(requester, file_id)
        return result.hit, result.contacted

    return measure_queries(
        trace,
        search.peers,
        probe,
        num_queries,
        RngStream(seed, "walk-queries"),
        "trace has no replicas",
    )
