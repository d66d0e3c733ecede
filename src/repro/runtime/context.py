"""The run context: one value naming a run.

A :class:`RunContext` bundles the seed, scale, observer and trace cache
of one run.  Every registered ``run_*`` experiment takes one as its only
identity parameter, and the :class:`~repro.runtime.runner.Runner` executes
any registered experiment through it.  Components below the experiments
(``build_network``, ``Crawler``, ``SearchSimulator``) take plain
``seed``/``obs`` arguments instead.

Ownership rules (see DESIGN.md §9):

- the context *owns identity* (seed, scale) — a runner hands its
  ``ctx.seed`` to the components it builds and never reseeds;
- the context *carries* the observer but does not mutate it;
  instrumentation stays RNG-neutral;
- the trace cache defaults to the process-wide shared one
  (:data:`~repro.runtime.cache.SHARED_TRACE_CACHE`); pass a private
  :class:`~repro.runtime.cache.TraceCache` for isolation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.obs import NULL_OBSERVER, Observer
from repro.runtime.cache import SHARED_TRACE_CACHE, TraceCache
from repro.runtime.scale import DEFAULT_SEED, Scale, workload_config


def _shared_cache() -> TraceCache:
    return SHARED_TRACE_CACHE


@dataclass
class RunContext:
    """Seed, scale, observer and trace cache for one run."""

    seed: int = DEFAULT_SEED
    scale: Scale = Scale.DEFAULT
    obs: Observer = NULL_OBSERVER
    traces: TraceCache = field(default_factory=_shared_cache)

    def derive(self, **changes) -> "RunContext":
        """A copy with ``changes`` applied (seed, scale, obs, ...)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Workload / trace access (delegates to the bounded cache)

    def workload(self):
        """The workload preset at this context's scale."""
        return workload_config(self.scale)

    def temporal_trace(self):
        return self.traces.temporal(self.scale, self.seed)

    def filtered_trace(self):
        return self.traces.filtered(self.scale, self.seed)

    def extrapolated_trace(self):
        return self.traces.extrapolated(self.scale, self.seed)

    def static_trace(self):
        return self.traces.static(self.scale, self.seed)
