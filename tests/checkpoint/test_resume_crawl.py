"""The killer acceptance test: kill a crawl at any day, resume, and the
final trace and metrics must be identical to an uninterrupted run's.

The "kill" here is an exception raised from the end-of-day hook — the
checkpoint on disk is the only thing the resumed crawler sees, exactly
as after a SIGKILL (the subprocess variant lives in ``test_chaos.py``).
Equivalence is byte-level on the serialized trace and exact on the
metrics counters/gauges/histograms, at two scales and three kill days
each, and at TINY over generated seeds, day counts, kill days and fault
knobs.
"""

import tempfile
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import Checkpointer
from repro.edonkey.crawler import CRAWL_CHECKPOINT_KIND, Crawler, CrawlerConfig
from repro.edonkey.network import NetworkConfig, build_network
from repro.faults import FaultConfig, RetryPolicy
from repro.obs import Observer, RunMetrics
from repro.runtime import DEFAULT_SEED, Scale, workload_config
from repro.trace.io import dumps_trace

# (scale, crawl days, kill days) — days trimmed so the suite stays fast.
SCENARIOS = {
    "tiny": (Scale.TINY, 6, (0, 2, 4)),
    "small": (Scale.SMALL, 5, (0, 2, 3)),
}

_PARAMS = [
    pytest.param(name, kill_day, id=f"{name}-kill@{kill_day}")
    for name, (_, _, kill_days) in SCENARIOS.items()
    for kill_day in kill_days
]


class SimulatedCrash(Exception):
    """Stands in for SIGKILL: aborts the crawl after a day's checkpoint."""


def build_crawler(
    scale: Scale,
    days: int,
    seed: int = DEFAULT_SEED,
    faults: FaultConfig = FaultConfig(),
    session_churn: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> Crawler:
    network = build_network(
        NetworkConfig(
            workload=workload_config(scale),
            faults=faults,
            session_churn=session_churn,
        ),
        seed=seed,
        obs=Observer(),
    )
    return Crawler(network, CrawlerConfig(days=days, retry=retry), seed=seed)


def deterministic_metrics(metrics: RunMetrics):
    """The metric sections a resume must reproduce exactly (span
    timings are wall-clock)."""
    return metrics.counters, metrics.gauges, metrics.histograms


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """One uninterrupted (but checkpointing) run per scale."""
    refs = {}
    for name, (scale, days, _) in SCENARIOS.items():
        crawler = build_crawler(scale, days)
        store = Checkpointer(tmp_path_factory.mktemp(f"ref-{name}"))
        trace = crawler.crawl(checkpointer=store)
        refs[name] = (dumps_trace(trace), crawler.obs.report())
    return refs


@pytest.mark.parametrize("name, kill_day", _PARAMS)
def test_killed_and_resumed_run_is_byte_identical(
    name, kill_day, references, tmp_path
):
    scale, days, _ = SCENARIOS[name]
    ref_trace, ref_metrics = references[name]
    store = Checkpointer(tmp_path / "ckpt")

    crawler = build_crawler(scale, days)

    def crash(day_offset: int) -> None:
        if day_offset == kill_day:
            raise SimulatedCrash

    with pytest.raises(SimulatedCrash):
        crawler.crawl(checkpointer=store, on_day_end=crash)
    # The dead run wrote one checkpoint per completed day.
    assert len(store.list(CRAWL_CHECKPOINT_KIND)) == kill_day + 1

    resumed = Crawler.resume_from(store)
    assert resumed is not crawler  # a fresh object graph from disk
    assert resumed.next_day_offset == kill_day + 1
    trace = resumed.crawl(checkpointer=store)

    assert dumps_trace(trace) == ref_trace
    assert deterministic_metrics(resumed.obs.report()) == deterministic_metrics(
        ref_metrics
    )
    assert resumed.network.check_invariants() == []


@given(
    seed=st.integers(0, 2**31),
    days=st.integers(2, 4),
    loss_rate=st.floats(0.0, 0.3),
    peer_downtime=st.floats(0.0, 0.2),
    retries=st.integers(0, 3),
    session_churn=st.booleans(),
    data=st.data(),
)
@settings(max_examples=8, deadline=None)
def test_kill_and_resume_equals_run_over_generated_seeds(
    seed, days, loss_rate, peer_downtime, retries, session_churn, data
):
    """Run ≡ kill+resume at TINY for a drawn seed, day count, kill day
    before the last and fault knobs: the resumed crawl ends with the
    same trace bytes, metrics and invariant report as the uninterrupted
    one.  The report is compared, not asserted empty: a lossy crawl can
    end with sessions a timed-out connect left behind."""
    kill_day = data.draw(st.integers(0, days - 2), label="kill_day")
    knobs = dict(
        faults=FaultConfig(loss_rate=loss_rate, peer_downtime=peer_downtime),
        session_churn=session_churn,
        retry=RetryPolicy(max_retries=retries) if retries else None,
    )
    with tempfile.TemporaryDirectory() as tmp:
        reference = build_crawler(Scale.TINY, days, seed, **knobs)
        ref_trace = dumps_trace(
            reference.crawl(checkpointer=Checkpointer(f"{tmp}/ref"))
        )
        store = Checkpointer(f"{tmp}/ckpt")
        crawler = build_crawler(Scale.TINY, days, seed, **knobs)

        def crash(day_offset: int) -> None:
            if day_offset == kill_day:
                raise SimulatedCrash

        with pytest.raises(SimulatedCrash):
            crawler.crawl(checkpointer=store, on_day_end=crash)
        resumed = Crawler.resume_from(store)
        assert resumed.next_day_offset == kill_day + 1
        trace = resumed.crawl(checkpointer=store)

    assert dumps_trace(trace) == ref_trace
    assert deterministic_metrics(resumed.obs.report()) == deterministic_metrics(
        reference.obs.report()
    )
    assert (
        resumed.network.check_invariants() == reference.network.check_invariants()
    )


def test_resume_after_every_day_of_a_run(tmp_path):
    """Crash after *every* day in sequence — the worst uptime imaginable
    (one day of progress per process) still converges to the reference."""
    scale, days, _ = SCENARIOS["tiny"]
    reference = build_crawler(scale, days)
    ref_trace = dumps_trace(
        reference.crawl(checkpointer=Checkpointer(tmp_path / "ref"))
    )

    store = Checkpointer(tmp_path / "ckpt")
    crawler = build_crawler(scale, days)

    def crash_immediately(day_offset: int) -> None:
        raise SimulatedCrash

    for expected_progress in range(1, days + 1):
        with pytest.raises(SimulatedCrash):
            crawler.crawl(checkpointer=store, on_day_end=crash_immediately)
        crawler = Crawler.resume_from(store)
        assert crawler.next_day_offset == expected_progress
    # Every day is done; the last resume just assembles the final trace.
    trace = crawler.crawl(checkpointer=store)
    assert dumps_trace(trace) == ref_trace


def test_resume_from_mid_run_checkpoint_reruns_only_the_tail(tmp_path):
    scale, days, _ = SCENARIOS["tiny"]
    store = Checkpointer(tmp_path / "ckpt")
    crawler = build_crawler(scale, days)
    crawler.crawl(checkpointer=store)

    resumed = Crawler.resume_from(store)
    assert resumed.next_day_offset == days
    # Nothing left to do: the resumed crawl immediately returns the
    # completed trace without advancing the network.
    trace = resumed.crawl()
    assert trace.num_snapshots > 0


def test_checkpoint_meta_describes_progress(tmp_path):
    scale, days, _ = SCENARIOS["tiny"]
    store = Checkpointer(tmp_path / "ckpt")
    crawler = build_crawler(scale, days)
    crawler.crawl(checkpointer=store)
    infos = [store.inspect(p) for p in store.list(CRAWL_CHECKPOINT_KIND)]
    assert [info.step for info in infos] == list(range(1, days + 1))
    assert all(info.seed == DEFAULT_SEED for info in infos)
    assert infos[-1].meta["day"] == days
