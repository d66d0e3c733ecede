"""Extension: AS-level PeerCache locality (Section 4.1's opportunity).

The paper: "a large proportion of the clients (54%) are connected to one
of five autonomous systems.  This leaves a clear opportunity to leverage
this tendency at AS level."  The bench quantifies the opportunity in
index mode (operator stores pointers, not content), isolates the share
attributable to geographic interest clustering via the geo_affinity=0
ablation, and reports classic content-cache hit rates for comparison.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale
from repro.experiments.peercache_experiments import run_peercache
from repro.runtime import RunContext


def test_peercache(benchmark):
    result = run_once(benchmark, run_peercache, RunContext(scale=Scale.DEFAULT))
    record(result)
    # A substantial share of requests are servable inside the home AS...
    assert result.metric("index_hit_rate") > 0.2
    # ...and a large part of that locality comes from geographic interest
    # clustering, not just AS population size.
    assert result.metric("geo_clustering_gain") > 0.05
    assert result.metric("index_hit_rate") > result.metric(
        "index_hit_rate_no_geo"
    )
