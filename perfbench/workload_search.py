"""``search``: the 16-config DEFAULT search sweep over one static trace.

Why: this is the Section 5 simulator — request draw -> one-hop ->
two-hop -> fall-back — the paper's headline computation.  The sweep is
strategy {lru, history, random, popularity} x list size {5, 20} x
two-hop {off, on} with ``track_load=True``.  Two-hop does about half the
work (random lists with two-hop alone are ~40% of the sweep) while the
eight one-hop configs bypass it, so a two-hop change shows on half the
configs and not on the rest.  It never touches the network, the fault
seam or the codec.

Loads: trace.compiled (set-up), core.requests, core.search,
core.neighbours.  Bypasses: edonkey.*, faults.*, service.*.
"""

from __future__ import annotations

import time

from common import (
    DATASET_SEED,
    SETUP_REPEATS,
    DigestBook,
    Stopwatch,
    at_reference_speed,
    calibrate,
    digest,
    median_of,
    metric,
    peak_rss_mb,
    ratio,
    timed_setup,
)

STRATEGIES = ("lru", "history", "random", "popularity")
CONFIGS = [
    (strategy, list_size, two_hop)
    for strategy in STRATEGIES
    for list_size in (5, 20)
    for two_hop in (False, True)
]
#: Requests per timed lap (~0.1 s; about 125 laps per sweep).
LAP_REQUESTS = 5000


def _generate():
    """A fresh DEFAULT static trace (a private cache, so nothing is reused)."""
    from repro.runtime.cache import TraceCache
    from repro.runtime.scale import Scale

    return TraceCache().static(Scale.DEFAULT, DATASET_SEED)


def _setup():
    """Trace generation + ``compiled()``, repeated; keep the last trace.

    Returns (trace, median reference-speed seconds, median wall
    seconds, median ``compiled()`` seconds)."""
    paced, walls, compile_times = [], [], []

    def build():
        trace = _generate()
        with Stopwatch() as comp:
            trace.compiled()
        compile_times.append(comp.elapsed)
        return trace

    static = None
    for _ in range(SETUP_REPEATS):
        static = None  # release the previous trace before timing the next
        static, wall, at_ref = timed_setup(build)
        walls.append(wall)
        paced.append(at_ref)
    return static, median_of(paced), median_of(walls), median_of(compile_times)


class _Laps:
    """Stands in for a ``Checkpointer``: ``SearchSimulator.run`` calls
    ``save`` every ``LAP_REQUESTS`` requests, between two events, and
    this one only times the lap since the last call and then calibrates
    the core (outside the lap)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.paced = 0.0
        self.start = time.perf_counter()

    def save(self, *_args, **_kwargs) -> None:
        lap = time.perf_counter() - self.start
        self.seconds += lap
        self.paced += at_reference_speed(lap, calibrate())
        self.start = time.perf_counter()


def _sweep(static, seed: int, obs=None):
    """Run the 16 configs, ``seed`` driving the request stream and the
    random lists; returns (per-config seconds, reference-speed seconds
    of the sweep, results).  Without an observer each config is timed
    and calibrated in laps of ``LAP_REQUESTS`` requests."""
    from repro.core.search import SearchConfig, SearchSimulator

    seconds, paced, results = [], 0.0, []
    for strategy, list_size, two_hop in CONFIGS:
        config = SearchConfig(
            list_size=list_size,
            strategy=strategy,
            two_hop=two_hop,
            track_load=True,
            seed=seed,
        )
        laps = _Laps()
        simulator = SearchSimulator(static, config, obs=obs)
        if obs is None:
            result = simulator.run(checkpointer=laps, checkpoint_every=LAP_REQUESTS)
        else:
            result = simulator.run()
        laps.save()
        seconds.append(laps.seconds)
        paced += laps.paced
        results.append(result)
    return seconds, paced, results


def _events(result) -> int:
    return result.rates.requests + result.rates.contributions


def _check(seed, static, results, book, record):
    """Returns (failed configs, note).  Recorded seeds compare each
    config's hit-rate accumulator; other seeds check its identities."""
    from repro.core.requests import request_count

    digests = [
        digest(
            {
                "requests": r.rates.requests,
                "hits": r.rates.hits,
                "one_hop_hits": r.rates.one_hop_hits,
                "two_hop_hits": r.rates.two_hop_hits,
                "contributions": r.rates.contributions,
                "messages": r.load.total_messages,
            }
        )
        for r in results
    ]
    if record:
        book.record(seed, "configs", digests)
    expected = book.expected(seed, "configs")
    if expected is not None:
        return sum(1 for a, b in zip(digests, expected) if a != b), "digest"
    total = request_count(static)
    failed = 0
    for (_, _, two_hop), r in zip(CONFIGS, results):
        rates = r.rates
        ok = (
            _events(r) == total
            and rates.hits == rates.one_hop_hits + rates.two_hop_hits
            and 0 < rates.hits <= rates.requests
            and (two_hop or rates.two_hop_hits == 0)
        )
        failed += not ok
    return failed, "identities"


def _draw_seconds(static, seed: int) -> float:
    """Mean seconds to drain the request stream of one config alone."""
    from repro.core.requests import iter_requests_compiled
    from repro.util.rng import RngStream

    compiled = static.compiled()
    times = []
    for _ in CONFIGS:
        start = time.perf_counter()
        for _event in iter_requests_compiled(
            compiled, RngStream(seed, "search").child("requests")
        ):
            pass
        times.append(time.perf_counter() - start)
    return sum(times) / len(times)


def _layer_wraps(tracer) -> None:
    from repro.core.neighbours import NeighbourStrategy
    from repro.core.search import SearchSimulator

    tracer.wrap(SearchSimulator, "run", "core.search.run")
    pending = [NeighbourStrategy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("ordered", "record_upload"):
            if attr in cls.__dict__ and cls is not NeighbourStrategy:
                tracer.wrap(cls, attr, f"core.neighbours.{attr}")


def run(seed: int, seconds: int, trace_mode: bool, record: bool, out):
    """One run; returns (attempted, failed, metrics, details).

    The sweep is the fixed unit of work (about 15 s on the reference
    box), so ``seconds`` does not change it."""
    book = DigestBook("search")
    static, setup_s, setup_wall_s, compile_s = _setup()
    plain, paced, results = _sweep(static, seed)
    failed, check = _check(seed, static, results, book, record and not trace_mode)
    events = sum(_events(r) for r in results)
    requests_per_s = events / paced
    if not trace_mode:
        details = {
            "search.requests_per_s": (requests_per_s, "req/s"),
            "search.requests_per_s_wall": (events / sum(plain), "req/s"),
            "search.events": (events, "requests"),
            "setup_wall_s": (setup_wall_s, "s"),
            "fail_frac": (ratio(failed, len(CONFIGS)), "ratio"),
            "check": (check, ""),
        }
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ops_per_s": metric(requests_per_s, "op/s"),
        }
        return len(CONFIGS), failed, metrics, details

    from repro.obs import Observer
    from tracing import SpanTracer, new_recorder

    recorder = new_recorder()
    tracer = SpanTracer(recorder)
    obs = Observer(tracer=recorder)
    _layer_wraps(tracer)
    try:
        traced, _, traced_results = _sweep(static, seed, obs=obs)
    finally:
        tracer.unwrap_all()
    traced_failed, _ = _check(seed, static, traced_results, book, False)
    failed += traced_failed
    draw_s = _draw_seconds(static, seed)
    out.write_chrome(recorder)

    def span_total(name):
        stat = obs.span_stats.get(name)
        return stat.total_s if stat is not None else 0.0

    def hist_sum(name):
        hist = obs.histograms.get(name)
        return hist.total if hist is not None else 0.0

    probes = hist_sum("search/probes_per_request")
    hits = sum(r.rates.hits for r in traced_results)
    layers = tracer.self_times()
    m = {
        "trace.compiled.compile_s": (compile_s, "s"),
        "core.requests.draw_s": (draw_s, "s"),
        "core.search.one_hop_s": (span_total("search/one_hop"), "s"),
        "core.search.two_hop_s": (span_total("search/two_hop"), "s"),
        "core.search.fallback_s": (span_total("search/fallback"), "s"),
        "core.search.probes": (probes, "count"),
        "core.search.two_hop_contacts": (
            probes - hist_sum("search/hops_per_request"),
            "count",
        ),
        "core.search.hits_per_probe": (ratio(hits, probes), "ratio"),
        "core.neighbours.ordered_us": (
            tracer.mean_us("core.neighbours.ordered"),
            "us",
        ),
        "core.neighbours.record_upload_us": (
            tracer.mean_us("core.neighbours.record_upload"),
            "us",
        ),
        # The request draw runs inside SearchSimulator.run; its separately
        # measured cost is moved from core.search to core.requests.
        "core.search.self_s": (
            layers.get("core.search", 0.0) - draw_s * len(CONFIGS),
            "s",
        ),
        "core.neighbours.self_s": (layers.get("core.neighbours", 0.0), "s"),
        "core.requests.self_s": (draw_s * len(CONFIGS), "s"),
        "search.requests_per_s": (requests_per_s, "req/s"),
        "trace.overhead_x": (sum(traced) / sum(plain), "x"),
    }
    for strategy in STRATEGIES:
        m[f"core.search.config_s.{strategy}"] = (
            sum(s for s, (name, _, _) in zip(plain, CONFIGS) if name == strategy),
            "s",
        )
    return len(CONFIGS), failed, m, {"check": (check, "")}
