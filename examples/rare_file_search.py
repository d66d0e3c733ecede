#!/usr/bin/env python
"""Scenario: locating *rare* files — where semantic neighbours shine.

The paper's motivating observation is that rare files are both the hardest
ones to find (a flooding search must contact ~1/spread peers) and the most
semantically clustered.  This example quantifies that on one workload:

1. generate a workload and split the request stream into rare-file and
   popular-file queries;
2. measure per-class hit rates for LRU semantic search (one- and two-hop);
3. compare against the unstructured baselines (flooding, random walks)
   on the same rare files, counting messages per query.

Run with::

    python examples/rare_file_search.py [--scale small|default]
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.baselines.flooding import FloodingConfig, FloodingSearch
from repro.baselines.random_walk import RandomWalkConfig, RandomWalkSearch
from repro.core.neighbours import make_strategy
from repro.core.requests import generate_requests
from repro.core.search import SearchConfig, SearchSimulator, simulate_search
from repro.runtime.scale import Scale, workload_config
from repro.util.rng import RngStream
from repro.util.tables import format_table, percent
from repro.workload.generator import SyntheticWorkloadGenerator


def build_static(scale: Scale, seed: int):
    generator = SyntheticWorkloadGenerator(config=workload_config(scale), seed=seed)
    static = generator.generate_static()
    aliases = [p.meta.client_id for p in generator.profiles if p.alias_of is not None]
    return static.without_clients(aliases)


def per_class_hit_rates(static, list_size, two_hop, seed):
    """Run the Section 5 simulation, splitting hits by file popularity."""
    counts = static.replica_counts()
    rare_cut = 3  # files with <= 3 replicas are "rare"
    simulator = SearchSimulator(
        static,
        SearchConfig(
            list_size=list_size, two_hop=two_hop, track_load=False, seed=seed
        ),
    )
    # Re-implement the loop with per-class accounting by wrapping run():
    # simplest is to run the standard simulation twice on class-filtered
    # traces; instead we tally classes post-hoc via the public simulate API
    # on the full trace and the rare-only subset.
    full = simulator.run()

    rare_files = {f for f, c in counts.items() if c <= rare_cut}
    rare_only = static.replace_caches(
        {c: (set(cache) & rare_files) for c, cache in static.caches.items()}
    )
    rare_result = simulate_search(
        rare_only,
        SearchConfig(list_size=list_size, two_hop=two_hop, track_load=False, seed=seed),
    )
    return full, rare_result, rare_files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=["small", "default"], default="small")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    scale = Scale.SMALL if args.scale == "small" else Scale.DEFAULT

    print(f"Generating {args.scale} workload...")
    static = build_static(scale, args.seed)
    counts = static.replica_counts()
    rare_share = sum(1 for c in counts.values() if c <= 3) / len(counts)
    print(
        f"  {len(counts)} distinct files, {percent(rare_share)} with <= 3 "
        "replicas (the hard ones)"
    )

    rows = []
    for list_size in (5, 20):
        for two_hop in (False, True):
            full, rare, _ = per_class_hit_rates(
                static, list_size, two_hop, args.seed
            )
            label = f"{'2-hop' if two_hop else '1-hop'} LRU-{list_size}"
            rows.append(
                (
                    label,
                    percent(full.hit_rate),
                    percent(rare.hit_rate),
                    f"<= {list_size * (list_size if two_hop else 1)}",
                )
            )
    print()
    print(
        format_table(
            ("mechanism", "all-files hit rate", "rare-files hit rate", "msgs/query"),
            rows,
            title="Semantic search, rare files vs all files",
        )
    )

    # Unstructured baselines on the same rare files.
    print("\nBaselines on rare files (messages until found):")
    rare_files = sorted(f for f, c in counts.items() if c == 2)
    rng = RngStream(args.seed, "baseline-queries")
    flooding = FloodingSearch(static, FloodingConfig(degree=4), seed=args.seed)
    walker = RandomWalkSearch(
        static, RandomWalkConfig(walkers=4, steps=128), seed=args.seed
    )
    flood_costs = []
    walk_hits = 0
    n_queries = min(60, len(rare_files))
    peers = sorted(static.caches)
    for i in range(n_queries):
        fid = rare_files[i % len(rare_files)]
        requester = peers[rng.py.randrange(len(peers))]
        ok, cost = flooding.contacts_until_hit(requester, fid)
        if ok:
            flood_costs.append(cost)
        walk_hits += int(walker.search(requester, fid).hit)
    mean_flood = sum(flood_costs) / max(1, len(flood_costs))
    print(
        format_table(
            ("baseline", "hit rate", "mean msgs/query"),
            [
                ("flooding (until hit)", percent(len(flood_costs) / n_queries), f"{mean_flood:.0f}"),
                ("random walk (4x128)", percent(walk_hits / n_queries), "<= 512"),
            ],
        )
    )
    print(
        "\nRare files cost unstructured search hundreds of messages; a "
        "20-entry semantic list answers a large share of those queries "
        "with at most 20."
    )


if __name__ == "__main__":
    main()
