"""Seeded cases pinned by the frozen engine digests in ``engines.json``.

Each case runs one computation through the library's engine and reduces
the output to a canonical JSON payload; :func:`digest` hashes it.  The
golden file holds the digest every case produced when
``record_engines.py`` recorded it.  At that commit each case also ran
through the reference engines deleted right after it — the string-keyed
engines, the scalar draw and two-hop engine, and the ``TraceStore``-only
analyses — and the recorder refused to write unless every reference
agreed with the engine that survived.  A digest that stops reproducing
means the engine drifted from the frozen reference.

``CASES`` maps a name to a :class:`Case`; ``run(**flags)`` forwards
``flags`` to the engine call (the recorder used them to select the
reference engines; the checks pass none).  ``DAY_CASES`` maps a name to
a :class:`DayCase`: one day-indexed analysis that runs on an in-memory
``Trace`` and on the ``TraceStore`` converted from it, with one digest
for both.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Dict

from repro.analysis import popularity, semantic
from repro.baselines.flooding import measure_flooding
from repro.baselines.random_walk import measure_random_walk
from repro.core.randomization import randomization_schedule, randomize_trace
from repro.core.requests import generate_requests
from repro.core.search import SearchConfig, simulate_search
from repro.overlay.simulator import OverlayConfig, SemanticOverlaySimulator
from repro.runtime.scale import Scale, workload_config
from repro.util.cdf import Series
from repro.util.rng import RngStream
from repro.workload.config import WorkloadConfig
from repro.workload.generator import SyntheticWorkloadGenerator
from tests.conftest import build_static

GOLDEN_PATH = Path(__file__).with_name("engines.json")

STRATEGIES = ("lru", "history", "random", "popularity")
SCALES = ("tiny", "small")
SEEDS = (0, 1, 2)


def canonical(obj):
    """JSON-ready form of an engine output; dict items are sorted, so
    only content (not insertion order) reaches the digest."""
    if isinstance(obj, Series):
        return [obj.name, list(obj.xs), list(obj.ys)]
    if dataclasses.is_dataclass(obj):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    return obj


def digest(payload) -> str:
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


# ----------------------------------------------------------------------
# Inputs (built once per process)


@lru_cache(maxsize=None)
def fixture_static():
    """The suite's ``small_static_trace``."""
    return SyntheticWorkloadGenerator(
        config=WorkloadConfig().small(), seed=7
    ).generate_static()


@lru_cache(maxsize=None)
def fixture_trace():
    """The suite's ``small_temporal_trace``."""
    return SyntheticWorkloadGenerator(
        config=WorkloadConfig().small(), seed=7
    ).generate()


@lru_cache(maxsize=None)
def scale_static(scale: str, seed: int):
    config = workload_config(Scale[scale.upper()])
    return SyntheticWorkloadGenerator(config=config, seed=seed).generate_static()


def pair_trace():
    """The four-client trace of ``tests/trace/test_compiled.py``."""
    return build_static(
        {
            0: ["beta", "alpha", "gamma"],
            1: ["alpha", "delta"],
            2: [],
            3: ["gamma", "alpha"],
        }
    )


# ----------------------------------------------------------------------
# Payloads


def search_payload(result):
    return {
        "rates": result.rates,
        "rare_rates": result.rare_rates,
        "unresolvable": result.unresolvable,
        "probes_lost": result.probes_lost,
        "evictions": result.evictions,
        "exchanges": result.exchanges,
        "num_peers": result.num_peers,
        "num_files": result.num_files,
        "load": result.load.messages,
    }


def caches_payload(static):
    """Caches plus their client order (request generation iterates it)."""
    return {"order": list(static.caches), "caches": static.caches}


# ----------------------------------------------------------------------
# Engine cases


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    run: Callable[..., object]


CASES: Dict[str, Case] = {}


def _register(name: str, run: Callable[..., object]) -> None:
    CASES[name] = Case(name, run)


def _search_case(name: str, trace: Callable, **config) -> None:
    def run(**flags):
        result = simulate_search(trace(), SearchConfig(**config), **flags)
        return search_payload(result)

    _register(name, run)


def _requests_case(name: str, trace: Callable, seed: int, label: str) -> None:
    def run(**flags):
        stream = generate_requests(trace(), RngStream(seed, label), **flags)
        return [(r.peer, r.file_id) for r in stream]

    _register(name, run)


for _strategy in STRATEGIES:
    for _two_hop in (False, True):
        _search_case(
            f"search/fixture/{_strategy}/{'two' if _two_hop else 'one'}-hop",
            fixture_static,
            list_size=10, strategy=_strategy, two_hop=_two_hop, seed=5,
        )
_search_case(
    "search/fixture/availability", fixture_static,
    list_size=10, availability=0.7, seed=5,
)
_search_case(
    "search/fixture/rare-exchanges", fixture_static,
    list_size=10, rare_cutoff=3, track_exchanges=True, seed=5,
)
_search_case(
    "search/fixture/availability-loss/uniform", fixture_static,
    list_size=10, availability=0.7, probe_loss_rate=0.1, track_load=True, seed=5,
)
_requests_case("requests/fixture/uniform", fixture_static, 3, "req")

# Scale.TINY and Scale.SMALL, three seeds each (trace and search seed).
# "two-hop" probes with load accounting; the same runs without it must
# differ only in their empty load (``tests/core/test_golden_engines.py``).
for _scale in SCALES:
    for _seed in SEEDS:
        _trace = partial(scale_static, _scale, _seed)
        _prefix = f"{_scale}/seed{_seed}"
        for _strategy in STRATEGIES:
            _base = dict(list_size=10, strategy=_strategy, seed=_seed)
            _search_case(f"search/{_prefix}/{_strategy}/one-hop", _trace, **_base)
            _search_case(
                f"search/{_prefix}/{_strategy}/two-hop", _trace,
                two_hop=True, **_base,
            )
        _search_case(
            f"search/{_prefix}/availability-loss", _trace,
            list_size=10, availability=0.7, probe_loss_rate=0.1, seed=_seed,
        )
        _requests_case(f"requests/{_prefix}/uniform", _trace, _seed, "requests")


def _randomize(**flags):
    randomized = randomize_trace(fixture_static(), RngStream(4, "rand"), **flags)
    return caches_payload(randomized)


def _schedule(**flags):
    schedule = randomization_schedule(
        fixture_static(), RngStream(4, "rand"), [10, 50], **flags
    )
    return [(count, caches_payload(trace)) for count, trace in schedule]


def _search_randomized(**flags):
    randomized = randomize_trace(fixture_static(), RngStream(4, "rand"), **flags)
    result = simulate_search(randomized, SearchConfig(list_size=10, seed=5), **flags)
    return search_payload(result)


def _overlay(**flags):
    config = OverlayConfig(rounds=5, seed=3)
    result = SemanticOverlaySimulator(fixture_static(), config, **flags).run(
        measure_every=1
    )
    return {
        "hit_rate": result.hit_rate_by_round,
        "quality": result.quality_by_round,
        "connected": result.connected,
    }


def _not_alpha(fid) -> bool:
    return fid != "alpha"


_register("randomize/fixture", _randomize)
_register("randomize/fixture/schedule", _schedule)
_register("randomize/fixture/search", _search_randomized)
_register(
    "flooding/fixture",
    lambda **flags: measure_flooding(fixture_static(), num_queries=50, seed=2, **flags),
)
_register(
    "random-walk/fixture",
    lambda **flags: measure_random_walk(
        fixture_static(), num_queries=50, seed=2, **flags
    ),
)
_register("overlay/fixture/overlap", _overlay)
# "compiled" cases take the CompiledTrace input, "cache-map" cases the
# plain cache map; both share one digest.
_register(
    "clustering/fixture/compiled",
    lambda: semantic.clustering_correlation(fixture_static().compiled()),
)
_register(
    "clustering/fixture/cache-map",
    lambda **flags: semantic.clustering_correlation(
        dict(fixture_static().caches), **flags
    ),
)
for _filter, _suffix in ((None, ""), (_not_alpha, "/filtered")):
    _register(
        f"pair-overlaps/pair-trace{_suffix}/compiled",
        partial(
            lambda f: semantic.pair_overlaps(pair_trace().compiled(), file_filter=f),
            _filter,
        ),
    )
    _register(
        f"pair-overlaps/pair-trace{_suffix}/cache-map",
        partial(
            lambda f, **flags: semantic.pair_overlaps(
                dict(pair_trace().caches), file_filter=f, **flags
            ),
            _filter,
        ),
    )


# ----------------------------------------------------------------------
# Day-source cases


ANALYSES: Dict[str, Callable] = {
    "rank_replication": popularity.rank_replication,
    "top_files_on": popularity.top_files_on,
    "file_spread": popularity.file_spread,
    "rank_evolution": popularity.rank_evolution,
    "max_spread_fraction": popularity.max_spread_fraction,
    "overlap_evolution": semantic.overlap_evolution,
}


@dataclasses.dataclass(frozen=True)
class DayCase:
    name: str
    analysis: str  # key of ANALYSES
    #: keyword arguments, built from the in-memory fixture trace
    kwargs: Callable[[object], Dict[str, object]]

    def run(self, source, **flags):
        return ANALYSES[self.analysis](
            source, **self.kwargs(fixture_trace()), **flags
        )


DAY_CASES: Dict[str, DayCase] = {}


def _day_case(name: str, analysis: str, kwargs: Callable) -> None:
    DAY_CASES[name] = DayCase(name, analysis, kwargs)


_day_case(
    "rank-replication/fixture/day1", "rank_replication",
    lambda t: {"day": t.days()[1]},
)
_day_case(
    "rank-replication/fixture/day0/max25", "rank_replication",
    lambda t: {"day": t.days()[0], "max_rank": 25},
)
for _index in range(3):
    _day_case(
        f"top-files/fixture/day{_index}/k10", "top_files_on",
        partial(lambda i, t: {"day": t.days()[i], "k": 10}, _index),
    )
_day_case(
    "file-spread/fixture/reference-day0/k6", "file_spread",
    lambda t: {"reference_day": t.days()[0], "top_k": 6},
)
_day_case(
    "file-spread/fixture/explicit-last-day/k4", "file_spread",
    lambda t: {"file_ids": popularity.top_files_on(t, t.days()[-1], 4)},
)
_day_case(
    "rank-evolution/fixture/day0/k5", "rank_evolution",
    lambda t: {"reference_day": t.days()[0], "top_k": 5},
)
_day_case("max-spread/fixture", "max_spread_fraction", lambda t: {})
_day_case("overlap-evolution/fixture/seed6", "overlap_evolution", lambda t: {"seed": 6})
_day_case("overlap-evolution/fixture/seed7", "overlap_evolution", lambda t: {"seed": 7})
_day_case(
    "overlap-evolution/fixture/seed3/max5", "overlap_evolution",
    lambda t: {"seed": 3, "max_pairs_per_level": 5},
)
_day_case(
    "overlap-evolution/fixture/day1/levels1-3", "overlap_evolution",
    lambda t: {"first_day": t.days()[1], "overlap_levels": [1, 2, 3]},
)


# ----------------------------------------------------------------------
# Checks


def assert_case(name: str) -> None:
    """The engine still reproduces the frozen digest of case ``name``."""
    assert digest(CASES[name].run()) == golden()[name], (
        f"{name} drifted from the frozen reference digest"
    )


def assert_day_case(name: str, trace, store) -> None:
    """Both day sources reproduce the frozen digest of ``name``."""
    case = DAY_CASES[name]
    for source in (trace, store):
        assert digest(case.run(source)) == golden()[name], (
            f"{name} on {type(source).__name__} drifted from the frozen "
            "reference digest"
        )
