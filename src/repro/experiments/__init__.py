"""Runnable reproductions of every table and figure in the paper.

Each ``run_*`` function is registered with the runtime layer's experiment
registry (:mod:`repro.runtime.registry`) via the ``@experiment``
decorator, takes a :class:`~repro.runtime.RunContext` as its first,
required argument (``run_figure18(RunContext(scale=Scale.SMALL))``;
``RunContext()`` is seed 20060418 at DEFAULT scale), and returns an
:class:`~repro.experiments.result.ExperimentResult` that renders to text
and carries the headline metrics the benchmarks assert on.

Importing this package imports every experiment module (via
:func:`pkgutil.iter_modules`), which populates the registry as a side
effect — ``repro.runtime.registry.load_all()`` relies on exactly that.
The mapping from paper artefact to function lives in DESIGN.md's
per-experiment index; EXPERIMENTS.md records paper-vs-measured values.
"""

import importlib
import pkgutil

from repro.experiments.result import ExperimentResult
from repro.runtime.scale import Scale, workload_config

# Import every sibling module so each @experiment decorator runs.  New
# experiment modules are picked up automatically — no import list to
# maintain here.
_SELF = __name__
for _info in pkgutil.iter_modules(__path__):
    importlib.import_module(f"{_SELF}.{_info.name}")
del _SELF, _info

# Re-export every registered runner under its function name
# (``from repro.experiments import run_figure18``).
from repro.runtime import registry as _registry

_RUNNERS = {
    spec.runner_name: spec.runner for spec in _registry.all_experiments()
}
globals().update(_RUNNERS)

__all__ = sorted(
    ["ExperimentResult", "Scale", "workload_config"] + list(_RUNNERS)
)
