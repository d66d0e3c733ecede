"""``crawl``: build a DEFAULT network, then crawl it day by day.

Why: this is the simulated message plane — crawler -> ``Network`` ->
fault seam -> ``ProtocolHandler`` -> ``Server``/``Client`` — plus the
daily cache churn inside ``Network.advance_day``.  One day's nickname
sweep alone is 52,728 ``QueryUsers`` hops.  It never touches the wire
codec, the TCP transport or the search simulator, so a change to those
must leave every ``crawl`` figure where it was.

Loads: edonkey.crawler, edonkey.network, faults.injector,
edonkey.protocol, edonkey.server, edonkey.client, workload.generator.
Bypasses: edonkey.wire, edonkey.transport, service.*, core.*, trace.compiled.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from common import (
    DATASET_SEED,
    SETUP_REPEATS,
    DigestBook,
    at_reference_speed,
    calibrate,
    digest,
    median_of,
    metric,
    peak_rss_mb,
    ratio,
    timed_setup,
)

#: Crawl days per ``--seconds``: one DEFAULT day takes ~0.5 s on the
#: reference 2-core box and the crawl is replayed ``SETUP_REPEATS``
#: times, so the replays together last about ``--seconds``.  The day
#: count is fixed by ``--seconds`` alone, never by measured speed, so
#: runs of different code do the same work.
DAYS_PER_SECOND = 2 / SETUP_REPEATS


def _build():
    from repro.edonkey.network import NetworkConfig, build_network
    from repro.runtime.scale import Scale, workload_config

    return build_network(
        NetworkConfig(workload=workload_config(Scale.DEFAULT)),
        seed=DATASET_SEED,
    )


def _crawl(network, seed: int, days: int):
    """Run ``days`` crawl days with the crawler's RNG (browse order)
    seeded by ``seed``, calibrating the core between days.

    Returns (seconds per day, reference-speed seconds per day, trace,
    crawler, cumulative counters after each day, first network day)."""
    from repro.edonkey.crawler import Crawler, CrawlerConfig

    crawler = Crawler(network, CrawlerConfig(days=days), seed=seed)
    counters: List[Dict[str, float]] = []
    day_seconds: List[float] = []
    paced: List[float] = []
    calibrations = [calibrate()]
    start = [time.perf_counter()]

    def day_end(_offset):
        elapsed = time.perf_counter() - start[0]
        day_seconds.append(elapsed)
        counters.append(crawler.stats.as_dict())
        calibrations.append(calibrate())
        paced.append(at_reference_speed(elapsed, *calibrations[-2:]))
        start[0] = time.perf_counter()

    first_day = network.day
    trace = crawler.crawl(on_day_end=day_end)
    return day_seconds, paced, trace, crawler, counters, first_day


def _day_digests(trace, counters, first_day) -> List[str]:
    """One digest per day of its snapshots and cumulative counters."""
    day_digests = []
    for offset, stats in enumerate(counters):
        snapshots = trace.snapshots_on(first_day + offset)
        day_digests.append(
            digest(
                {
                    "snapshots": sorted(
                        (client, sorted(files))
                        for client, files in snapshots.items()
                    ),
                    "crawler": stats,
                }
            )
        )
    return day_digests


def _mismatches(day_digests, expected) -> int:
    failed = sum(1 for a, b in zip(day_digests, expected) if a != b)
    return failed + abs(len(expected) - len(day_digests))


def _check(seed, days, day_digests, counters, network, book, record):
    """Returns (failed days, note).  Recorded seeds compare per-day
    digests of the snapshots and the cumulative ``crawler/*`` counters;
    other seeds run ``Network.check_invariants()``."""
    key = f"days={days}"
    if record:
        book.record(seed, key, day_digests)
    expected = book.expected(seed, key)
    if expected is not None:
        return _mismatches(day_digests, expected), "digest"
    problems = network.check_invariants()
    if not counters or counters[-1]["browse_succeeded"] <= 0:
        problems.append("crawl browsed nobody")
    return (len(counters) if problems else 0), "invariants"


def _layer_wraps(tracer) -> None:
    from repro.edonkey.client import Client
    from repro.edonkey.crawler import Crawler
    from repro.edonkey.messages import QueryUsers
    from repro.edonkey.network import Network
    from repro.edonkey.protocol import ProtocolHandler
    from repro.edonkey.server import Server
    from repro.faults import FaultInjector
    from repro.workload.generator import SyntheticWorkloadGenerator

    def count_yield(t, args, reply):
        if isinstance(args[2], QueryUsers):
            t.count("query_users_sent")
            if reply is not None and reply.users:
                t.count("query_users_useful")

    tracer.wrap(Crawler, "crawl", "edonkey.crawler.crawl")
    tracer.wrap(Crawler, "sweep_nicknames", "edonkey.crawler.sweep")
    tracer.wrap(Crawler, "browse_all", "edonkey.crawler.browse")
    tracer.wrap(Network, "advance_day", "edonkey.network.advance_day")
    tracer.wrap(Network, "to_server", "edonkey.network.to_server", count_yield)
    tracer.wrap(Network, "to_client", "edonkey.network.to_client")
    tracer.wrap(FaultInjector, "filtered_dispatch", "faults.injector.dispatch")
    tracer.wrap(ProtocolHandler, "handle", "edonkey.protocol.handle")
    tracer.wrap(Server, "handle_query_users", "edonkey.server.query_users")
    tracer.wrap(Server, "handle_publish", "edonkey.server.publish")
    tracer.wrap(Client, "publish", "edonkey.client.publish")
    tracer.wrap(Client, "handle_browse", "edonkey.client.browse")
    tracer.wrap(
        SyntheticWorkloadGenerator, "churn_cache", "workload.generator.churn"
    )


def run(seed: int, seconds: int, trace_mode: bool, record: bool, out):
    """One run; returns (attempted, failed, metrics, details)."""
    book = DigestBook("crawl")
    if not trace_mode:
        days = max(2, round(DAYS_PER_SECOND * seconds))
        # SETUP_REPEATS replays, each a fresh build (one set-up sample)
        # and the same seeded crawl of ``days`` days, all timed at the
        # reference core speed (see ``common.calibrate``).  The first
        # replay is checked; the others must match it exactly.
        setup_times, setup_walls, replays, walls = [], [], [], []
        failed, attempted, first = 0, 0, None
        for _ in range(SETUP_REPEATS):
            network = crawler = trace = None  # release the previous replay
            gc.collect()
            network, wall, at_ref = timed_setup(_build)
            setup_walls.append(wall)
            setup_times.append(at_ref)
            day_seconds, paced, trace, crawler, counters, first_day = _crawl(
                network, seed, days
            )
            day_digests = _day_digests(trace, counters, first_day)
            if first is None:
                first = day_digests
                failed, check = _check(
                    seed, days, day_digests, counters, network, book, record
                )
            else:
                failed += _mismatches(day_digests, first)
            attempted += len(counters)
            replays.append(paced)
            walls.append(day_seconds)
        # Each day does the same work in every replay, so its best time
        # over the replays drops what the calibration between days did
        # not catch of a slow spell, unless that hit the day every time.
        best = [min(times) for times in zip(*replays)]
        days_per_s = len(best) / sum(best)
        details = {
            "crawl.days_per_s": (days_per_s, "days/s"),
            "crawl.days_per_s_wall": (attempted / sum(map(sum, walls)), "days/s"),
            "crawl.days": (days, "days"),
            "crawl.replays": (SETUP_REPEATS, ""),
            "setup_wall_s": (median_of(setup_walls), "s"),
            "fail_frac": (ratio(failed, attempted), "ratio"),
            "check": (check, ""),
        }
        metrics = {
            "setup_s": metric(median_of(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ops_per_s": metric(days_per_s, "op/s"),
        }
        return attempted, failed, metrics, details

    # Traced mode: the same crawl untraced, then traced on a fresh build
    # of the same network; the ratio of the two is the tracing overhead.
    from tracing import SpanTracer, new_recorder

    days = max(2, seconds)
    _, plain_paced, _, _, plain_counters, _ = _crawl(_build(), seed, days)
    network = _build()
    tracer = SpanTracer(new_recorder())
    _layer_wraps(tracer)
    try:
        _, traced_paced, trace, crawler, counters, first_day = _crawl(
            network, seed, days
        )
    finally:
        tracer.unwrap_all()
    failed, check = _check(
        seed, days, _day_digests(trace, counters, first_day), counters,
        network, book, False,
    )
    if counters != plain_counters:
        failed += 1  # tracing must not change what the crawl does
    out.write_chrome(tracer.recorder)
    n = len(counters)
    stats = crawler.stats
    m = {
        "edonkey.crawler.sweep_s": (tracer.total("edonkey.crawler.sweep") / n, "s"),
        "edonkey.crawler.browse_s": (tracer.total("edonkey.crawler.browse") / n, "s"),
        "edonkey.crawler.sweep_yield": (
            ratio(
                tracer.counters.get("query_users_useful", 0),
                tracer.counters.get("query_users_sent", 0),
            ),
            "ratio",
        ),
        "edonkey.crawler.browse_success": (
            ratio(stats.browse_succeeded, stats.browse_attempts),
            "ratio",
        ),
        "edonkey.network.advance_day_s": (
            tracer.total("edonkey.network.advance_day") / n,
            "s",
        ),
        "edonkey.network.to_server_us": (
            tracer.mean_us("edonkey.network.to_server"),
            "us",
        ),
        "edonkey.network.server_hops": (
            tracer.calls("edonkey.network.to_server") / n,
            "count",
        ),
        "edonkey.network.client_hops": (
            tracer.calls("edonkey.network.to_client") / n,
            "count",
        ),
        "faults.injector.dispatch_us": (
            tracer.mean_us("faults.injector.dispatch"),
            "us",
        ),
        "edonkey.protocol.handle_us": (
            tracer.mean_us("edonkey.protocol.handle"),
            "us",
        ),
        "edonkey.server.query_users_us": (
            tracer.mean_us("edonkey.server.query_users"),
            "us",
        ),
        "edonkey.client.publish_s": (
            tracer.total("edonkey.client.publish") / n,
            "s",
        ),
        "workload.generator.churn_s": (
            tracer.total("workload.generator.churn") / n,
            "s",
        ),
        "crawl.days_per_s": (len(plain_paced) / sum(plain_paced), "days/s"),
        "trace.overhead_x": (sum(traced_paced) / sum(plain_paced), "x"),
    }
    for layer, self_s in tracer.self_times().items():
        m[f"{layer}.self_s"] = (self_s / n, "s")
    return n, failed, m, {"check": (check, ""), "days": (n, "days")}
