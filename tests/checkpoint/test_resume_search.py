"""Search-simulation resume: interrupt mid-run, resume, identical result.

The search loop checkpoints every ``checkpoint_every`` processed
requests (between requests — never mid-event), so the test interrupts by
capturing a checkpoint and rebuilding the simulator from disk.  The
resumed run must produce hit rates, load, evictions and exchange counts
identical to an uninterrupted run with the same seed.
"""

import pytest

from repro.checkpoint import Checkpointer
from repro.core.search import (
    SEARCH_CHECKPOINT_KIND,
    SearchConfig,
    SearchSimulator,
    simulate_search,
)
from repro.runtime.cache import SHARED_TRACE_CACHE
from repro.runtime.scale import DEFAULT_SEED, Scale


@pytest.fixture(scope="module")
def static_trace():
    return SHARED_TRACE_CACHE.static(Scale.TINY, DEFAULT_SEED)


def _rates(acc):
    if acc is None:
        return None
    return (
        acc.requests,
        acc.hits,
        acc.one_hop_hits,
        acc.two_hop_hits,
        acc.contributions,
    )


def _result_fingerprint(result):
    """Everything a SimulationResult asserts on, as comparable data."""
    return (
        _rates(result.rates),
        dict(result.load.messages) if result.load else None,
        result.unresolvable,
        result.probes_lost,
        result.evictions,
        _rates(result.rare_rates),
        result.exchanges,
    )


CONFIGS = {
    "plain-lru": SearchConfig(list_size=10, seed=DEFAULT_SEED),
    "churny-lossy": SearchConfig(
        list_size=10,
        availability=0.8,
        probe_loss_rate=0.1,
        evict_dead=True,
        seed=DEFAULT_SEED,
    ),
    "plain-history": SearchConfig(
        list_size=10, strategy="history", seed=DEFAULT_SEED
    ),
    # Random lists carry their draw stream and owner index across the
    # snapshot; evictions re-rank a Popularity list mid-run.
    "random-two-hop": SearchConfig(
        list_size=10,
        strategy="random",
        two_hop=True,
        seed=DEFAULT_SEED,
    ),
    "evicting-popularity": SearchConfig(
        list_size=10,
        strategy="popularity",
        availability=0.8,
        evict_dead=True,
        seed=DEFAULT_SEED,
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_resumed_run_matches_uninterrupted(name, static_trace, tmp_path):
    config = CONFIGS[name]
    reference = simulate_search(static_trace, config)

    # Interrupted variant: checkpoint every 500 requests, abandon the
    # simulator mid-run after a few checkpoints, resume from disk.
    store = Checkpointer(tmp_path / "ckpt")
    victim = SearchSimulator(static_trace, config)
    victim.run(checkpointer=store, checkpoint_every=500)
    saves = store.list(SEARCH_CHECKPOINT_KIND)
    assert len(saves) >= 2, "workload too small to checkpoint mid-run"

    # Roll back to an *early* snapshot by deleting the later ones — the
    # resumed simulator must replay the tail identically.
    for path in saves[1:]:
        path.unlink()
    resumed, _ = SearchSimulator.resume_from(store)
    assert resumed is not victim
    result = resumed.run()

    assert _result_fingerprint(result) == _result_fingerprint(reference)


def test_resume_mid_run_state_is_from_disk(static_trace, tmp_path):
    config = CONFIGS["plain-lru"]
    store = Checkpointer(tmp_path / "ckpt")
    simulator = SearchSimulator(static_trace, config)
    simulator.run(checkpointer=store, checkpoint_every=500)

    resumed, info = SearchSimulator.resume_from(store)
    assert info.meta["processed"] == info.step
    assert resumed._run_state.processed == info.step


def test_checkpoint_every_must_be_positive(static_trace, tmp_path):
    simulator = SearchSimulator(static_trace, CONFIGS["plain-lru"])
    with pytest.raises(ValueError):
        simulator.run(
            checkpointer=Checkpointer(tmp_path / "ckpt"), checkpoint_every=0
        )


def test_checkpointing_run_equals_plain_run(static_trace, tmp_path):
    """Checkpointing must not perturb the simulation it snapshots."""
    config = CONFIGS["churny-lossy"]
    plain = simulate_search(static_trace, config)
    store = Checkpointer(tmp_path / "ckpt")
    checkpointed = SearchSimulator(static_trace, config).run(
        checkpointer=store, checkpoint_every=500
    )
    assert _result_fingerprint(checkpointed) == _result_fingerprint(plain)
