"""The unified runtime layer: context, registry, manifest-driven runner.

This package owns the cross-cutting run plumbing that every experiment,
benchmark and CLI command used to hand-wire:

- :mod:`repro.runtime.scale`    — :class:`Scale` presets (tiny → large)
  and the default seed;
- :mod:`repro.runtime.cache`    — the bounded, (scale, seed)-keyed
  :class:`TraceCache` shared across a process;
- :mod:`repro.runtime.registry` — the declarative experiment registry
  populated by the :func:`experiment` decorator;
- :mod:`repro.runtime.context`  — :class:`RunContext`, bundling seed,
  scale, observer and the trace cache;
- :mod:`repro.runtime.runner`   — :class:`Runner`, which executes any
  registered experiment through a context and maintains per-experiment
  run manifests (``repro.manifest/1``) with skip-on-hash-match caching.

Import order in this file matters: ``registry`` is imported first because
experiment modules import it mid-way through ``repro.experiments``'s own
import (the decorator must already exist).
"""

from repro.runtime.registry import (
    ExperimentSpec,
    UnknownExperimentError,
    all_experiments,
    experiment,
    load_all,
)
from repro.runtime.scale import (
    DEFAULT_SEED,
    Scale,
    crawl_workload,
    workload_config,
)
from repro.runtime.cache import SHARED_TRACE_CACHE, TraceCache
from repro.runtime.context import RunContext
from repro.runtime.runner import (
    MANIFEST_SCHEMA,
    RunManifest,
    RunOutcome,
    Runner,
    validate_manifest,
)

__all__ = [
    "DEFAULT_SEED",
    "ExperimentSpec",
    "MANIFEST_SCHEMA",
    "RunContext",
    "RunManifest",
    "RunOutcome",
    "Runner",
    "SHARED_TRACE_CACHE",
    "Scale",
    "TraceCache",
    "UnknownExperimentError",
    "all_experiments",
    "crawl_workload",
    "experiment",
    "load_all",
    "validate_manifest",
    "workload_config",
]
