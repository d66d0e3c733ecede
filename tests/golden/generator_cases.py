"""Seeded workload generators pinned by the frozen digests in ``generator.json``.

Each case builds one :class:`SyntheticWorkloadGenerator` at a scale
preset and seed and reduces what it draws to a handful of digests:

- ``files``: every ``FileMeta`` (id, size, kind, category, name);
- ``births``: the birth day of every file, shocks applied;
- ``shocks``: every ``ShockEvent``;
- ``profiles``: every client profile (meta, free-rider flag, interests
  in pick order, target cache size, ``online_prob``, ``alias_of``,
  ``join_day``), in profile order;
- ``static``: ``generate_static()``'s caches, in client order;
- ``snapshots``: ``generate()``'s snapshots, day by day in observation
  order (not at DEFAULT, where the temporal trace takes too long);
- ``network``: the draws the eDonkey network makes — ``initial_cache``
  at the start day and three days of ``churn_cache`` for the first 20
  sharers, then one ``draw_request`` for each of them mid-trace.

DEFAULT seed 0 is the population of the repository benchmark.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Dict

from repro.runtime.scale import Scale, workload_config
from repro.util.rng import RngStream
from repro.workload.generator import SyntheticWorkloadGenerator
from tests.golden.cases import digest

GENERATOR_GOLDEN_PATH = Path(__file__).with_name("generator.json")

#: Sharers whose cache draws the ``network`` digest follows.
NETWORK_SHARERS = 20
CHURN_DAYS = 3

CASES = tuple(
    f"{scale}/seed{seed}" for scale in ("tiny", "small") for seed in (0, 1, 2)
) + ("default/seed0",)


def build(name: str) -> SyntheticWorkloadGenerator:
    scale, seed = name.split("/")
    generator = SyntheticWorkloadGenerator(
        workload_config(Scale(scale)), seed=int(seed[len("seed"):])
    )
    generator.build()
    return generator


def _profile(profile) -> list:
    return [
        profile.meta,
        profile.free_rider,
        profile.interests,
        profile.target_cache_size,
        profile.online_prob,
        profile.alias_of,
        profile.join_day,
    ]


def _network_draws(generator: SyntheticWorkloadGenerator) -> list:
    cfg = generator.config
    sharers = [p for p in generator.profiles if not p.free_rider]
    mid_day = cfg.start_day + cfg.days // 2
    draws = []
    for profile in sharers[:NETWORK_SHARERS]:
        cid = profile.meta.client_id
        rng = RngStream(generator.seed, f"golden/network/c[{cid}]")
        cache = generator.initial_cache(profile, cfg.start_day, rng)
        days = [sorted(cache)]
        for offset in range(1, CHURN_DAYS + 1):
            generator.churn_cache(profile, cache, cfg.start_day + offset, rng)
            days.append(sorted(cache))
        request = generator.draw_request(profile, mid_day, rng, cache)
        draws.append([cid, days, request])
    return draws


def digests(name: str) -> Dict[str, object]:
    generator = build(name)
    out = {
        "files": digest(
            [[f.file_id, f.size, f.kind, f.category, f.name] for f in generator.files]
        ),
        "births": digest([int(day) for day in generator.birth_days]),
        "shocks": digest(generator.shocks),
        "profiles": digest([_profile(p) for p in generator.profiles]),
        "static": digest(
            [
                [cid, sorted(cache)]
                for cid, cache in generator.generate_static().caches.items()
            ]
        ),
    }
    if not name.startswith("default/"):
        trace = generator.generate()
        out["snapshots"] = digest(
            [
                [day, [[cid, sorted(c)] for cid, c in trace.snapshots_on(day).items()]]
                for day in trace.days()
            ]
        )
    out["network"] = digest(_network_draws(generator))
    return out


@lru_cache(maxsize=None)
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GENERATOR_GOLDEN_PATH.read_text())["digests"]
