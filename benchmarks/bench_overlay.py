"""Extension: the epidemic semantic overlay (two-tier Cyclon+Vicinity).

The paper's conclusion announces an implementation of semantic links in a
real client, and its related work highlights the gossip-based semantic
overlay evaluated on the authors' earlier eDonkey trace.  This bench runs
that proactive architecture on the reproduction workload and compares it
with the paper's reactive LRU lists at the same view size.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.overlay_experiments import run_gossip_overlay
from repro.runtime import RunContext


def test_gossip_overlay(benchmark):
    result = run_once(benchmark, run_gossip_overlay, RunContext(scale=Scale.DEFAULT))
    record(result)
    # The bottom tier stays connected; the top tier converges to most of
    # the true k-NN graph within the round budget...
    assert result.metric("connected") == 1.0
    assert result.metric("overlay_knn_quality") > 0.6
    # ...and the converged semantic views cover interests far better than
    # the random bootstrap views.
    assert result.metric("overlay_hit_rate") > 1.5 * result.metric(
        "overlay_initial_hit_rate"
    )
    # Proactive gossip is competitive with upload-driven LRU lists.
    assert result.metric("overlay_hit_rate") > 0.6 * result.metric("lru_hit_rate")


def test_overlay_vs_reactive(benchmark):
    from repro.experiments.overlay_experiments import run_overlay_vs_reactive

    result = run_once(benchmark, run_overlay_vs_reactive, RunContext(scale=Scale.DEFAULT))
    record(result)
    # Converged proactive views dominate the cold reactive baseline...
    assert result.metric("fixed_overlay") > result.metric("lru_cold")
    # ...and warm-starting LRU with them also beats starting cold.
    assert result.metric("lru_warm") > result.metric("lru_cold")
