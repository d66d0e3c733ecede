"""The declarative experiment registry.

Every paper artefact (and every extension sweep) is reproduced by one
``run_*`` function; the :func:`experiment` decorator registers each of
them under a stable CLI name together with the artefact it reproduces, a
one-line description and its preferred scale::

    @experiment(
        "fig18",
        artefact="Figure 18",
        description="Hit rate vs semantic neighbours: LRU / History / Random",
    )
    def run_figure18(ctx: RunContext, ...) -> ExperimentResult: ...

A runner's only identity parameter is its required ``ctx``; its
preferred scale lives in ``default_scale=`` alone, which
:meth:`ExperimentSpec.run` applies when it builds the context itself.

``repro experiment <name>`` and ``repro run-all`` both dispatch through
:func:`get`, and ``repro experiment --list`` renders the registry.

This module deliberately imports nothing from the rest of the package so
it can be loaded from anywhere (experiment modules import it while they
are themselves being imported by ``repro.experiments``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class UnknownExperimentError(KeyError):
    """Raised when an experiment name is not in the registry.

    The message carries the full list of valid names, so surfacing it
    verbatim (as the CLI does) is already a usable error.
    """

    def __init__(self, name: str, valid: List[str]) -> None:
        self.name = name
        self.valid = valid
        super().__init__(name)

    def __str__(self) -> str:
        return (
            f"unknown experiment {self.name!r}; choose from: "
            + ", ".join(self.valid)
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata plus the runner it dispatches to."""

    name: str
    runner: Callable
    artefact: str
    description: str
    default_scale: Optional[object] = None  # a Scale, or None = Scale.DEFAULT
    aliases: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def runner_name(self) -> str:
        return self.runner.__name__

    @property
    def scale_name(self) -> str:
        return getattr(self.default_scale, "value", "default")

    def run(self, ctx=None, **overrides):
        """Execute the runner through a :class:`RunContext`.

        Without an explicit context, one is built at the experiment's
        ``default_scale`` — the scale its headline numbers are quoted at.
        """
        if ctx is None:
            from repro.runtime.context import RunContext

            if self.default_scale is None:
                ctx = RunContext()
            else:
                ctx = RunContext(scale=self.default_scale)
        return self.runner(ctx=ctx, **overrides)


_REGISTRY: Dict[str, ExperimentSpec] = {}  # primary name -> spec
_ALIASES: Dict[str, str] = {}  # alias -> primary name


def experiment(
    name: str,
    *,
    artefact: str,
    description: str,
    default_scale: Optional[object] = None,
    aliases: Tuple[str, ...] = (),
):
    """Register the decorated runner under ``name`` (see module docstring)."""

    def decorate(runner: Callable) -> Callable:
        register(
            ExperimentSpec(
                name=name,
                runner=runner,
                artefact=artefact,
                description=description,
                default_scale=default_scale,
                aliases=tuple(aliases),
            )
        )
        return runner

    return decorate


def register(spec: ExperimentSpec) -> None:
    """Add a spec to the registry; duplicate names/aliases are errors."""
    for candidate in (spec.name, *spec.aliases):
        if candidate in _REGISTRY or candidate in _ALIASES:
            raise ValueError(
                f"experiment name {candidate!r} registered twice "
                f"(second runner: {spec.runner_name})"
            )
    for registered in _REGISTRY.values():
        if registered.runner is spec.runner:
            raise ValueError(
                f"runner {spec.runner_name} registered twice "
                f"(as {registered.name!r} and {spec.name!r})"
            )
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name


def get(name: str) -> ExperimentSpec:
    """Resolve a name or alias to its spec, or raise with the valid list."""
    primary = _ALIASES.get(name, name)
    spec = _REGISTRY.get(primary)
    if spec is None:
        raise UnknownExperimentError(name, names())
    return spec


def all_experiments() -> List[ExperimentSpec]:
    """Every registered spec (one per runner), in natural name order."""
    return sorted(_REGISTRY.values(), key=lambda s: _natural_key(s.name))


def names(include_aliases: bool = True) -> List[str]:
    """All dispatchable names, naturally ordered (``fig2`` before ``fig10``)."""
    candidates = list(_REGISTRY)
    if include_aliases:
        candidates += list(_ALIASES)
    return sorted(candidates, key=_natural_key)


def load_all() -> List[ExperimentSpec]:
    """Import every experiment module (running their decorators), then list.

    Registration happens at import time, so anything that wants the *full*
    registry — the CLI, the runner, completeness tests — calls this
    instead of assuming ``repro.experiments`` was already imported.
    """
    import repro.experiments  # noqa: F401  (imports register the specs)

    return all_experiments()


def _natural_key(name: str):
    return [
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", name)
    ]
