"""Sharded multi-process execution.

One seeded run, many processes, identical bytes.  Two fan-outs live
here, both built on the same two invariants:

- **worker-count invariance** — every worker's random stream is derived
  from the *run seed*, never from the worker count or the scheduling
  order, so ``--workers 1`` and ``--workers 8`` replay the exact same
  draws;
- **deterministic merge** — the coordinator folds worker results in the
  order the sequential loop would have produced them, so merged
  artefacts (stdout, metrics, tables) are identical to a
  single-process run.

The fan-outs:

``sharded_search``
    One task per list size.  The coordinator compiles the trace once
    and the pool initializer hands it to each worker once: a forked
    worker inherits it without a copy, a spawned one unpickles it once.
    Each task then runs its own seeded
    :class:`~repro.core.search.SearchSimulator` on that trace — each
    sequential run already re-seeds ``RngStream(seed, "search")``, so
    per-run isolation is free.

``run_experiments_parallel``
    One worker per experiment for ``repro run-all``.  Each worker runs
    :meth:`Runner.run` in its own process (manifests and CSVs are
    per-experiment files, so there is no write contention) and returns
    the outcome minus the in-memory result object.

Neither pool starts more workers than it has tasks.

The crawl has no fan-out: each simulated day is one nickname sweep of a
fixed size followed by one browse pass, and only the browse pass could
be split, so a sharded crawl measured slower than the sequential one.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

from repro.obs import NULL_OBSERVER, Observer, TraceRecorder, record_telemetry
from repro.obs.telemetry import TelemetrySpec
from repro.trace.compiled import CompiledTrace

__all__ = ["run_experiments_parallel", "sharded_search"]


def _pool(workers: int, tasks: int, **kwargs) -> ProcessPoolExecutor:
    # Under fork, the executor starts every worker at the first submit,
    # so a worker beyond the task count would only fork and idle.
    return ProcessPoolExecutor(max_workers=max(1, min(workers, tasks)), **kwargs)


# ----------------------------------------------------------------------
# Sharded search

#: The compiled trace of this worker process, set once by :func:`_adopt`.
_TRACE = None


def _adopt(compiled) -> None:
    """Pool initializer: keep the coordinator's trace for every task."""
    global _TRACE
    _TRACE = compiled


def _search_worker(
    config,
    span_name: str,
    want_obs: bool,
    index: int,
    want_trace: bool = False,
    telemetry: Optional[TelemetrySpec] = None,
):
    """Run one seeded simulation on the adopted trace."""
    from repro.core.search import SearchSimulator
    from repro.obs.log import set_context

    source = f"shard {index}"
    set_context(source)
    tracer = (
        TraceRecorder(pid=index + 2, process_name=source)
        if (want_obs and want_trace)
        else None
    )
    obs = Observer(tracer=tracer) if want_obs else NULL_OBSERVER
    with record_telemetry(
        telemetry if want_obs else None, obs, source=source
    ), obs.span(span_name):
        result = SearchSimulator(_TRACE, config, obs=obs).run()
    return result, (obs if want_obs else None)


def sharded_search(
    static,
    configs: Sequence[object],
    workers: int,
    obs=NULL_OBSERVER,
    span_names: Optional[Sequence[str]] = None,
    telemetry: Optional[TelemetrySpec] = None,
):
    """Run one :class:`SearchConfig` per task over one compiled trace.

    Returns the :class:`SimulationResult` list in ``configs`` order.
    Worker observers are folded back into ``obs`` in that same order, so
    counters, histograms and last-write gauges match a sequential loop
    exactly (span timings differ — they measure different processes).
    If ``obs`` carries a tracer, each worker records its own ring and
    the merge lays them out as per-worker process tracks; with a
    ``telemetry`` spec each worker flight-records into the shared JSONL.
    """
    if span_names is None:
        span_names = [f"search[{i}]" for i in range(len(configs))]
    want_trace = obs.tracer is not None
    compiled = static if isinstance(static, CompiledTrace) else static.compiled()
    with _pool(
        workers, len(configs), initializer=_adopt, initargs=(compiled,)
    ) as pool:
        futures = [
            pool.submit(
                _search_worker,
                config,
                name,
                obs.enabled,
                index,
                want_trace,
                telemetry,
            )
            for index, (config, name) in enumerate(zip(configs, span_names))
        ]
        pairs = [future.result() for future in futures]
    results = []
    for result, worker_obs in pairs:
        results.append(result)
        if worker_obs is not None:
            obs.merge_from(worker_obs)
    return results


# ----------------------------------------------------------------------
# Parallel run-all


def _run_all_worker(
    seed: int,
    scale_value: str,
    results_dir: str,
    force: bool,
    name: str,
    telemetry: Optional[TelemetrySpec] = None,
):
    """Run one experiment in its own process; return a slim outcome."""
    from repro.obs.log import set_context
    from repro.runtime import RunContext, Runner, Scale
    from repro.runtime.runner import RunOutcome

    set_context(name)
    runner = Runner(
        ctx=RunContext(seed=seed, scale=Scale(scale_value)),
        results_dir=results_dir,
        force=force,
        telemetry=telemetry,
    )
    try:
        outcome = runner.run(name)
    except Exception as exc:  # noqa: BLE001 — batch isolation, as run_all
        return RunOutcome(name, error=f"{type(exc).__name__}: {exc}")
    # The ExperimentResult can hold arbitrary (possibly unpicklable)
    # payloads and the parent only renders status lines — drop it.
    outcome.result = None
    return outcome


def run_experiments_parallel(
    names: List[str],
    seed: int,
    scale,
    results_dir: str,
    workers: int,
    force: bool = False,
    on_outcome=None,
    telemetry: Optional[TelemetrySpec] = None,
):
    """``Runner.run`` fan-out: one experiment per worker process.

    Outcomes are reported (and returned) in ``names`` order regardless
    of completion order, so progress output stays deterministic.
    """
    outcomes = []
    with _pool(workers, len(names)) as pool:
        futures = [
            pool.submit(
                _run_all_worker,
                seed,
                scale.value,
                results_dir,
                force,
                name,
                telemetry,
            )
            for name in names
        ]
        for future in futures:
            outcome = future.result()
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
    return outcomes
