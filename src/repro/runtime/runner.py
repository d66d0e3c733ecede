"""The manifest-driven experiment runner.

A :class:`Runner` executes registered experiments through a
:class:`~repro.runtime.context.RunContext` and writes one **run manifest**
per experiment into a results directory.  The manifest records everything
needed to trust (and skip) a reproduction:

Schema (``repro.manifest/1``) — a single JSON object:

- ``schema``      — the literal version string;
- ``experiment``  — the registry name (e.g. ``"fig18"``);
- ``artefact``    — the paper artefact it reproduces (``"Figure 18"``);
- ``config_hash`` — SHA-256 over the canonical run configuration
  (experiment, seed, scale, overrides) and the code identity
  (:func:`repro.code_identity`); the skip key;
- ``seed`` / ``scale`` — run identity;
- ``wall_time_s`` — wall-clock duration of the run;
- ``metrics``     — the experiment's headline scalars
  (:attr:`ExperimentResult.metrics`);
- ``run_metrics`` — the full ``repro.metrics/2`` observability blob.

``Runner.run`` skips an experiment when its manifest already exists with a
matching ``config_hash`` (``force`` re-runs anyway), which is what makes
``repro run-all`` incremental: a second invocation over the same results
directory is a no-op, changing the seed or scale invalidates exactly
the affected manifests, and changing any source file invalidates all of
them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import repro
from repro.obs import Observer, RunMetrics, record_telemetry, validate_metrics
from repro.runtime import registry
from repro.runtime.context import RunContext

MANIFEST_SCHEMA = "repro.manifest/1"


def config_hash(payload: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of a run configuration."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """One experiment run's provenance record (see module docstring)."""

    experiment: str
    artefact: str
    config_hash: str
    seed: int
    scale: str
    wall_time_s: float
    metrics: Dict[str, float] = field(default_factory=dict)
    run_metrics: Dict[str, object] = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "experiment": self.experiment,
            "artefact": self.artefact,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "scale": self.scale,
            "wall_time_s": self.wall_time_s,
            "metrics": dict(self.metrics),
            "run_metrics": dict(self.run_metrics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunManifest":
        problems = validate_manifest(payload)
        if problems:
            raise ValueError(
                "invalid manifest payload: " + "; ".join(problems)
            )
        return cls(
            experiment=payload["experiment"],
            artefact=payload["artefact"],
            config_hash=payload["config_hash"],
            seed=int(payload["seed"]),
            scale=payload["scale"],
            wall_time_s=float(payload["wall_time_s"]),
            metrics={k: float(v) for k, v in payload["metrics"].items()},
            run_metrics=dict(payload["run_metrics"]),
            schema=payload["schema"],
        )

    def write(self, path) -> None:
        from repro.util.atomic import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def read(cls, path) -> "RunManifest":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_manifest(payload: object) -> List[str]:
    """Check a parsed JSON payload against ``repro.manifest/1``.

    Returns human-readable problems; empty means valid.  The embedded
    ``run_metrics`` blob is validated against its own schema
    (``repro.metrics/2``) when non-empty.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for key in ("experiment", "artefact", "config_hash", "scale"):
        if not isinstance(payload.get(key), str):
            problems.append(f"missing or non-string field {key!r}")
    if not _is_number(payload.get("seed")):
        problems.append("missing or non-numeric field 'seed'")
    if not _is_number(payload.get("wall_time_s")):
        problems.append("missing or non-numeric field 'wall_time_s'")
    if not isinstance(payload.get("metrics"), dict):
        problems.append("missing or non-object section 'metrics'")
    else:
        for name, value in payload["metrics"].items():
            if not _is_number(value):
                problems.append(f"metrics[{name!r}] must be a number")
    blob = payload.get("run_metrics")
    if not isinstance(blob, dict):
        problems.append("missing or non-object section 'run_metrics'")
    elif blob:
        problems.extend(
            f"run_metrics: {p}" for p in validate_metrics(blob)
        )
    return problems


@dataclass
class RunOutcome:
    """What happened to one experiment in a batch."""

    name: str
    skipped: bool = False
    manifest: Optional[RunManifest] = None
    result: Optional[object] = None  # the ExperimentResult when executed
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Runner:
    """Executes registered experiments and maintains their manifests."""

    def __init__(
        self,
        ctx: Optional[RunContext] = None,
        results_dir="results",
        force: bool = False,
        telemetry=None,
    ) -> None:
        self.ctx = ctx if ctx is not None else RunContext()
        self.results_dir = Path(results_dir)
        self.force = force
        #: Optional :class:`~repro.obs.telemetry.TelemetrySpec`: each
        #: executed experiment flight-records into the shared JSONL,
        #: ``source``-tagged with its name.
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    # Paths and hashing

    def manifest_path(self, name: str) -> Path:
        return self.results_dir / f"{name}.manifest.json"

    def csv_path(self, name: str) -> Path:
        return self.results_dir / f"{name}.csv"

    def expected_hash(self, spec, overrides: Dict[str, object]) -> str:
        return config_hash(
            {
                "schema": MANIFEST_SCHEMA,
                "experiment": spec.name,
                "runner": spec.runner_name,
                "seed": self.ctx.seed,
                "scale": self.ctx.scale.value,
                "overrides": {k: repr(v) for k, v in sorted(overrides.items())},
                "code": repro.code_identity(),
            }
        )

    # ------------------------------------------------------------------
    # Execution

    def run(self, name: str, force: Optional[bool] = None, **overrides) -> RunOutcome:
        """Run one experiment (or skip it on a manifest hash match)."""
        # Registration happens on import, so a fresh process must load
        # the registry before it can resolve a name.
        registry.load_all()
        spec = registry.get(name)
        force = self.force if force is None else force
        expected = self.expected_hash(spec, overrides)
        path = self.manifest_path(spec.name)
        if not force and path.exists():
            manifest = self._load_manifest(path)
            if manifest is not None and manifest.config_hash == expected:
                return RunOutcome(spec.name, skipped=True, manifest=manifest)

        # A fresh Observer per run keeps each manifest's metrics blob
        # self-contained; instrumentation is RNG-neutral, so outputs are
        # unchanged whether or not the ambient context observed anything.
        run_obs = Observer()
        run_ctx = self.ctx.derive(obs=run_obs)
        start = time.perf_counter()
        with record_telemetry(
            self.telemetry,
            run_obs,
            source=spec.name,
            run={
                "experiment": spec.name,
                "seed": self.ctx.seed,
                "scale": self.ctx.scale.value,
            },
        ), run_obs.span(f"experiment/{spec.name}"):
            result = spec.run(ctx=run_ctx, **overrides)
        wall = time.perf_counter() - start
        report: RunMetrics = run_obs.report(
            run={
                "command": "run-all",
                "experiment": spec.name,
                "seed": run_ctx.seed,
                "scale": run_ctx.scale.value,
            }
        )
        self.results_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            experiment=spec.name,
            artefact=spec.artefact,
            config_hash=expected,
            seed=run_ctx.seed,
            scale=run_ctx.scale.value,
            wall_time_s=wall,
            metrics=dict(getattr(result, "metrics", {}) or {}),
            run_metrics=report.to_dict(),
        )
        manifest.write(path)
        if hasattr(result, "write_csv"):
            result.write_csv(self.csv_path(spec.name))
        return RunOutcome(spec.name, manifest=manifest, result=result)

    def run_all(
        self,
        names: Optional[List[str]] = None,
        force: Optional[bool] = None,
        on_outcome=None,
    ) -> List[RunOutcome]:
        """Run every registered experiment (or the ``names`` subset).

        A failing experiment is recorded as an errored outcome and the
        batch continues — one broken reproduction must not cost the other
        twenty-odd their manifests.  ``on_outcome`` (if given) is called
        after each experiment, for progress reporting.
        """
        if names is None:
            specs = registry.load_all()
            names = [spec.name for spec in specs]
        outcomes: List[RunOutcome] = []
        for name in names:
            try:
                outcome = self.run(name, force=force)
            except registry.UnknownExperimentError:
                raise
            except Exception as exc:  # noqa: BLE001 — batch isolation
                outcome = RunOutcome(name, error=f"{type(exc).__name__}: {exc}")
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes

    @staticmethod
    def _load_manifest(path: Path) -> Optional[RunManifest]:
        """A manifest, or None when unreadable (corrupt files re-run)."""
        try:
            return RunManifest.read(path)
        except (OSError, ValueError, json.JSONDecodeError, KeyError):
            return None
