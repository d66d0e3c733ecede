"""Extension experiment: crash-resilience of the checkpointed crawler.

The paper's 56-day crawl had exactly one shot: when the eDonkey servers
dropped ``query-users`` support mid-study, the trace simply ended.  A
measurement pipeline that can be SIGKILLed and resumed *without changing
its output* removes that fragility — and "without changing its output"
is checkable, not aspirational: the final trace must be byte-identical
and the metrics counters equal to an uninterrupted run's.

This experiment runs a :class:`~repro.checkpoint.ChaosRunner` campaign
(kill at seeded random days, resume, diff artefacts, check network
invariants) and reports the equivalence rate.  The kill/resume history
lands in the run manifest via ``ExperimentResult.lineage``.
"""

from __future__ import annotations

import tempfile

from repro.checkpoint import ChaosRunner, ChaosSpec
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, Scale, experiment


@experiment(
    "chaos",
    artefact="Robustness (extension)",
    description="SIGKILL crawls at random days; resumed artefacts must "
    "be byte-identical",
    default_scale=Scale.TINY,
    # Spawns and SIGKILLs its own CLI subprocesses; running it inside a
    # worker pool would orphan those children.
    sequential_only=True,
)
def run_chaos(
    ctx: RunContext,
    trials: int = 2,
    kills: int = 2,
    num_clients: int = 40,
    days: int = 5,
) -> ExperimentResult:
    """A chaos campaign at deliberately small scale (it forks real CLI
    subprocesses — one reference plus kills+1 runs per trial)."""
    seed, obs = ctx.seed, ctx.obs

    spec = ChaosSpec(clients=num_clients, days=days, seed=seed, kills=kills)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        with obs.span("experiment/chaos"):
            report = ChaosRunner(spec, workdir, obs=obs).run(trials=trials)

    equivalent = sum(1 for t in report.trials if t.equivalent)
    total_kills = sum(len(t.kill_days) for t in report.trials)
    metrics = {
        "trials": float(len(report.trials)),
        "kills": float(total_kills),
        "equivalent_trials": float(equivalent),
        "equivalence_rate": equivalent / len(report.trials),
        "passed": 1.0 if report.passed else 0.0,
    }
    return ExperimentResult(
        experiment_id="chaos-resilience",
        title="Crash/resume equivalence under randomized SIGKILLs",
        table_text=report.render(),
        metrics=metrics,
        notes="each trial SIGKILLs a checkpointing CLI crawl at seeded "
        "random days, resumes it, and diffs trace bytes + metrics "
        "counters against an uninterrupted reference",
        lineage=report.as_lineage(),
    )
