"""Crawler -> trace store composition: incremental per-day appends produce
a store equal to the crawled trace, and the append composes with the
checkpoint/resume machinery (a killed-and-resumed crawl yields a
byte-identical store, because re-appending a replayed day replaces its
segment with the same bytes)."""

import pytest

from repro.checkpoint import Checkpointer
from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.network import NetworkConfig, build_network
from repro.runtime import DEFAULT_SEED, Scale, workload_config
from repro.trace.store import open_store, verify_store

DAYS = 4


class SimulatedCrash(Exception):
    """Stands in for SIGKILL: aborts the crawl after a day's checkpoint."""


def build_crawler(store_dir=None) -> Crawler:
    network = build_network(
        NetworkConfig(workload=workload_config(Scale.TINY)), seed=DEFAULT_SEED
    )
    return Crawler(
        network,
        CrawlerConfig(days=DAYS),
        seed=DEFAULT_SEED,
        store_dir=store_dir,
    )


def store_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_crawl_store_matches_trace(tmp_path):
    store_dir = tmp_path / "store"
    trace = build_crawler(store_dir).crawl()
    assert verify_store(store_dir) == []
    with open_store(store_dir) as store:
        assert store.days() == trace.days()
        restored = store.to_trace()
    assert dict(restored.files) == dict(trace.files)
    assert dict(restored.clients) == dict(trace.clients)
    assert all(
        restored.snapshots_on(d) == trace.snapshots_on(d) for d in trace.days()
    )


@pytest.mark.parametrize("kill_day", [0, 2])
def test_killed_and_resumed_crawl_store_is_byte_identical(tmp_path, kill_day):
    ref_dir = tmp_path / "ref-store"
    build_crawler(ref_dir).crawl()

    store_dir = tmp_path / "store"
    checkpoints = Checkpointer(tmp_path / "ckpt")
    crawler = build_crawler(store_dir)

    def crash(day_offset: int) -> None:
        if day_offset == kill_day:
            raise SimulatedCrash

    with pytest.raises(SimulatedCrash):
        crawler.crawl(checkpointer=checkpoints, on_day_end=crash)

    resumed, _ = Crawler.resume_from(checkpoints)
    assert resumed.store_dir == str(store_dir)  # travels in the checkpoint
    resumed.crawl(checkpointer=checkpoints)

    assert verify_store(store_dir) == []
    assert store_bytes(store_dir) == store_bytes(ref_dir)


def test_crash_before_checkpoint_is_replayed_idempotently(tmp_path):
    """A crash *between* the store append and the checkpoint leaves the
    store one day ahead; the resumed crawl replays that day and must
    converge to the reference bytes anyway."""
    ref_dir = tmp_path / "ref-store"
    build_crawler(ref_dir).crawl()

    store_dir = tmp_path / "store"
    checkpoints = Checkpointer(tmp_path / "ckpt")
    crawler = build_crawler(store_dir)

    # Run two full days, then simulate the torn state by rolling the
    # checkpoint back: delete the newest checkpoint so resume restarts at
    # day 1 while the store already holds day 1's segment.
    def crash(day_offset: int) -> None:
        if day_offset == 1:
            raise SimulatedCrash

    with pytest.raises(SimulatedCrash):
        crawler.crawl(checkpointer=checkpoints, on_day_end=crash)
    newest = checkpoints.list("crawl")[-1]
    newest.unlink()

    resumed, _ = Crawler.resume_from(checkpoints)
    assert resumed.next_day_offset == 1  # day 1 will be replayed
    resumed.crawl(checkpointer=checkpoints)

    assert verify_store(store_dir) == []
    assert store_bytes(store_dir) == store_bytes(ref_dir)
