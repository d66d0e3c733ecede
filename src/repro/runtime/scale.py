"""Workload scales and their presets.

Experiments come in four scales:

- ``Scale.TINY``    — ~100 clients; the ``run-all`` smoke preset (CI runs
  every registered experiment end-to-end at this scale);
- ``Scale.SMALL``   — a few hundred clients; used by the test suite;
- ``Scale.DEFAULT`` — a couple thousand clients; used by the benchmarks;
- ``Scale.LARGE``   — the stress preset;
- ``Scale.HUGE``    — paper scale (≥100k clients, the order of the
  crawled eDonkey population); the size the multi-process search
  fan-out and the store-backed streaming crawl are built for.

The preset keeps scale ratios (files per client, categories vs. sharers)
close to the defaults so the planted clustering survives the shrink.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.workload.config import WorkloadConfig

DEFAULT_SEED = 20060418  # EuroSys'06 started April 18, 2006


class Scale(enum.Enum):
    TINY = "tiny"
    SMALL = "small"
    DEFAULT = "default"
    LARGE = "large"
    HUGE = "huge"


def workload_config(scale: Scale = Scale.DEFAULT) -> WorkloadConfig:
    """The workload preset for a scale (see WorkloadConfig for dials)."""
    base = WorkloadConfig()
    if scale is Scale.DEFAULT:
        return base
    if scale is Scale.TINY:
        return dataclasses.replace(
            base,
            num_clients=120,
            num_files=4000,
            # Extrapolation eligibility needs an observation span of at
            # least ExtrapolationConfig.min_span_days (10), so the trace
            # must run comfortably longer than that.
            days=14,
            num_shock_files=2,
            mainstream_pool_size=240,
            interest_model=dataclasses.replace(
                base.interest_model, num_categories=20
            ),
        )
    if scale is Scale.SMALL:
        return dataclasses.replace(
            base,
            num_clients=320,
            num_files=12000,
            days=24,
            num_shock_files=4,
            mainstream_pool_size=600,
            interest_model=dataclasses.replace(
                base.interest_model, num_categories=48
            ),
        )
    if scale is Scale.LARGE:
        return dataclasses.replace(
            base,
            num_clients=5000,
            num_files=200000,
            mainstream_pool_size=10000,
            interest_model=dataclasses.replace(
                base.interest_model, num_categories=750
            ),
        )
    if scale is Scale.HUGE:
        return dataclasses.replace(
            base,
            num_clients=100_000,
            num_files=1_000_000,
            mainstream_pool_size=50_000,
            interest_model=dataclasses.replace(
                base.interest_model, num_categories=15_000
            ),
        )
    raise ValueError(f"unknown scale {scale!r}")


def crawl_workload(
    clients: int, days: int, scale: Scale = Scale.SMALL
) -> WorkloadConfig:
    """The workload of a crawl of ``clients`` clients over ``days`` days:
    ``scale``'s preset with 15 files per client (at least 500), and every
    client in the mainstream pool."""
    num_files = max(clients * 15, 500)
    return dataclasses.replace(
        workload_config(scale),
        num_clients=clients,
        num_files=num_files,
        days=days,
        mainstream_pool_size=min(clients, num_files),
    )
