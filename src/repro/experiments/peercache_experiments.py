"""Extension experiment: how much traffic can AS-level PeerCaches keep
local, and how much of that is due to geographic clustering?

Three runs on the same workload shape:

1. index mode on the default workload (geo clustering planted);
2. index mode with ``geo_affinity = 0`` (ablation: no geographic
   clustering — the locality that remains is what AS size alone buys);
3. content mode with a per-AS byte budget (classic cacheability).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.cache.peercache import PeerCacheConfig, simulate_peercache
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, Scale, experiment, workload_config
from repro.util.tables import format_table
from repro.workload.generator import SyntheticWorkloadGenerator


def _build_static(scale: Scale, seed: int, geo_affinity: float):
    base = workload_config(scale)
    config = dataclasses.replace(
        base,
        interest_model=dataclasses.replace(
            base.interest_model, geo_affinity=geo_affinity
        ),
    )
    generator = SyntheticWorkloadGenerator(config=config, seed=seed)
    static = generator.generate_static()
    aliases = [
        p.meta.client_id for p in generator.profiles if p.alias_of is not None
    ]
    return static.without_clients(aliases)


@experiment(
    "peercache",
    artefact="Section 4.1 (extension)",
    description="AS-level PeerCache locality, with/without geo clustering",
)
def run_peercache(
    ctx: RunContext,
    capacity_gb: int = 50,
) -> ExperimentResult:
    """PeerCache locality with and without geographic clustering."""
    scale, seed = ctx.scale, ctx.seed
    clustered = _build_static(scale, seed, geo_affinity=0.7)
    unclustered = _build_static(scale, seed, geo_affinity=0.0)

    index_clustered = simulate_peercache(
        clustered, PeerCacheConfig(mode="index", seed=seed)
    )
    index_unclustered = simulate_peercache(
        unclustered, PeerCacheConfig(mode="index", seed=seed)
    )
    content = simulate_peercache(
        clustered,
        PeerCacheConfig(
            mode="content", capacity_bytes=capacity_gb * 1024**3, seed=seed
        ),
    )

    rows = [
        (
            "index (geo clustering on)",
            f"{100 * index_clustered.hit_rate:.0f}%",
            f"{100 * index_clustered.byte_locality:.0f}%",
        ),
        (
            "index (geo clustering off)",
            f"{100 * index_unclustered.hit_rate:.0f}%",
            f"{100 * index_unclustered.byte_locality:.0f}%",
        ),
        (
            f"content LRU ({capacity_gb} GB/AS)",
            f"{100 * content.hit_rate:.0f}%",
            f"{100 * content.byte_locality:.0f}%",
        ),
    ]
    table = format_table(
        ("cache", "requests served intra-AS", "bytes kept local"),
        rows,
        title="PeerCache: intra-AS service rates",
    )

    as_rows = [
        (asn, n, f"{100 * rate:.0f}%")
        for asn, n, rate in index_clustered.top_as_rows(5)
    ]
    as_table = format_table(
        ("AS", "requests", "intra-AS rate"),
        as_rows,
        title="Busiest autonomous systems (index mode, clustered)",
    )

    metrics: Dict[str, float] = {
        "index_hit_rate": index_clustered.hit_rate,
        "index_hit_rate_no_geo": index_unclustered.hit_rate,
        "index_byte_locality": index_clustered.byte_locality,
        "content_hit_rate": content.hit_rate,
        "content_byte_locality": content.byte_locality,
        "geo_clustering_gain": (
            index_clustered.hit_rate - index_unclustered.hit_rate
        ),
    }
    return ExperimentResult(
        experiment_id="peercache",
        title="AS-level PeerCache locality (Section 4.1 opportunity)",
        table_text=table + "\n\n" + as_table,
        metrics=metrics,
        notes="the clustered-vs-unclustered gap is the traffic the "
        "operators' caches save *because* peers in one AS share interests",
    )
