"""Extension experiment: graceful degradation under injected faults.

The paper's crawler worked because the network cooperated: servers
answered ``query-users``, peers answered browses, and the one mid-study
outage (servers dropping ``query-users`` support) ended the trace for
good.  This experiment asks the robustness question the paper could not:
*how much trace fidelity and search quality survive when the network
misbehaves?*

Two sweeps, one per subsystem:

- **crawl side** — the protocol crawler runs against rising message-loss
  rates with a mid-crawl server crash, retries enabled; the headline is
  *trace completeness*: snapshots collected vs the fault-free baseline
  with the same seed.
- **search side** — the semantic-search simulation runs with rising
  probe-loss rates (dead-neighbour eviction on); the headline is the
  one-hop hit rate, which should degrade smoothly, not collapse.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.search import SearchConfig, simulate_search
from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.network import NetworkConfig, build_network
from repro.experiments.result import ExperimentResult
from repro.faults import FaultConfig, FaultSchedule, FaultWindow, RetryPolicy
from repro.obs import Observer
from repro.runtime import RunContext, Scale, crawl_workload, experiment
from repro.util.cdf import Series

DEFAULT_LOSS_RATES = (0.0, 0.01, 0.05, 0.20)


def _crawl_once(
    scale: Scale,
    seed: int,
    num_clients: int,
    days: int,
    faults: FaultConfig,
    retry: Optional[RetryPolicy],
    obs: Optional[Observer] = None,
    schedule: Optional[FaultSchedule] = None,
):
    """One crawl run; returns ``(crawler, trace)``."""
    network = build_network(
        NetworkConfig(
            workload=crawl_workload(num_clients, days, scale),
            faults=faults,
            fault_schedule=schedule,
        ),
        seed=seed,
        obs=obs,
    )
    crawler = Crawler(
        network,
        CrawlerConfig(
            days=days,
            # One sweep at day 0: re-sweeping daily dominates runtime and
            # adds nothing to the degradation signal being measured.
            refresh_users_every=days,
            retry=retry,
        ),
        seed=seed,
    )
    trace = crawler.crawl()
    return crawler, trace


@experiment(
    "faults",
    artefact="Robustness (extension)",
    description="Trace/search fidelity under message loss and server crashes",
    default_scale=Scale.SMALL,
)
def run_fault_degradation(
    ctx: RunContext,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    num_clients: int = 60,
    days: int = 4,
    list_size: int = 10,
) -> ExperimentResult:
    """Degradation sweep: fault intensity vs trace/search fidelity.

    Faulted crawl runs also crash a server mid-crawl (day ``days // 2``,
    recovering two days later), so completeness reflects the combined
    hostile scenario, not message loss alone.  The ``loss_rates[0] == 0``
    run doubles as the fault-free baseline.
    """
    scale, seed, obs = ctx.scale, ctx.seed, ctx.obs
    if not loss_rates or loss_rates[0] != 0.0:
        loss_rates = (0.0, *loss_rates)

    completeness = Series(name="trace completeness (%)")
    delivery = Series(name="crawler delivery rate (%)")
    hit_rate = Series(name="one-hop hit rate (%)")
    metrics: Dict[str, float] = {}

    # --- crawl side -------------------------------------------------
    baseline_snapshots: Optional[int] = None
    for rate in loss_rates:
        faulted = rate > 0
        faults = FaultConfig(
            loss_rate=rate,
            server_crash_day=days // 2 if faulted else None,
        )
        retry = RetryPolicy(max_retries=2) if faulted else None
        with obs.span(f"experiment/crawl@{rate:g}"):
            crawler, trace = _crawl_once(
                scale, seed, num_clients, days, faults, retry, obs=obs
            )
        if baseline_snapshots is None:
            baseline_snapshots = trace.num_snapshots
        report = crawler.degradation_report(
            trace, baseline_snapshots=baseline_snapshots
        )
        completeness.append(100 * rate, 100.0 * (report.completeness or 0.0))
        delivery.append(100 * rate, 100.0 * report.delivery_rate)
        metrics[f"completeness@{rate:g}"] = report.completeness or 0.0

    # --- search side ------------------------------------------------
    static = ctx.static_trace()
    for rate in loss_rates:
        with obs.span(f"experiment/search@{rate:g}"):
            result = simulate_search(
                static,
                SearchConfig(
                    list_size=list_size,
                    strategy="lru",
                    probe_loss_rate=rate,
                    evict_dead=rate > 0,
                    seed=seed,
                ),
                obs=obs,
            )
        hit_rate.append(100 * rate, 100.0 * result.hit_rate)
        metrics[f"hit_rate@{rate:g}"] = result.hit_rate

    return ExperimentResult(
        experiment_id="fault-degradation",
        title="Graceful degradation under message loss and server crashes",
        series=[completeness, delivery, hit_rate],
        metrics=metrics,
        notes="completeness is snapshots vs the fault-free run with the "
        "same seed; faulted crawls also lose a server mid-crawl — smooth "
        "decline (not collapse) is the design goal for a crawler facing "
        "a hostile network",
    )


def storm_schedule(days: int) -> FaultSchedule:
    """The canonical time-varying hostile scenario for ``days`` days.

    A calm start, then message loss that ramps in steps, a one-day
    flash-churn burst, and a mid-run server crash that recovers a day
    later — faults that *arrive and leave* rather than holding steady,
    which is what real measurement studies actually face.
    """
    q1, mid, q3 = days // 4, days // 2, (3 * days) // 4
    return FaultSchedule(
        windows=(
            FaultWindow(start=q1, end=mid, overrides={"loss_rate": 0.05}),
            FaultWindow(
                start=mid,
                end=q3,
                overrides={"loss_rate": 0.15, "peer_downtime": 0.35},
            ),
            FaultWindow(start=q3, end=days, overrides={"loss_rate": 0.30}),
            # The crash window must cover both the crash day and the
            # recovery day for the cycle to complete.
            FaultWindow(
                start=mid,
                end=days,
                overrides={"server_crash_day": mid, "server_downtime_days": 1},
            ),
        )
    )


@experiment(
    "fault-schedule",
    artefact="Robustness (extension)",
    description="Crawl fidelity under a time-varying fault schedule",
    default_scale=Scale.SMALL,
)
def run_fault_schedule(
    ctx: RunContext,
    num_clients: int = 60,
    days: int = 8,
) -> ExperimentResult:
    """Fault-free baseline vs the same crawl under :func:`storm_schedule`.

    Unlike :func:`run_fault_degradation` (steady fault rates swept across
    runs), here the fault intensity varies *within* one run, so the
    per-day snapshot counts show the storm arriving and passing.
    """
    scale, seed, obs = ctx.scale, ctx.seed, ctx.obs
    if days < 4:
        raise ValueError(f"days must be >= 4 for a meaningful storm, got {days}")
    schedule = storm_schedule(days)

    with obs.span("experiment/baseline"):
        _, base_trace = _crawl_once(
            scale, seed, num_clients, days, FaultConfig(), retry=None, obs=obs
        )
    with obs.span("experiment/scheduled"):
        crawler, storm_trace = _crawl_once(
            scale,
            seed,
            num_clients,
            days,
            FaultConfig(),
            retry=RetryPolicy(max_retries=2),
            obs=obs,
            schedule=schedule,
        )

    per_day_base = Series(name="snapshots/day (fault-free)")
    per_day_storm = Series(name="snapshots/day (scheduled faults)")
    for day in base_trace.days():
        per_day_base.append(day, len(base_trace.snapshots_on(day)))
    for day in storm_trace.days():
        per_day_storm.append(day, len(storm_trace.snapshots_on(day)))

    report = crawler.degradation_report(
        storm_trace, baseline_snapshots=base_trace.num_snapshots
    )
    # Trace days are absolute (paper-style day-of-year numbers); map the
    # schedule's 0-based offsets onto them before comparing per day.
    day0 = min(base_trace.days())
    calm_days = [
        day0 + d
        for d in range(days)
        if schedule.config_on(d, FaultConfig()) == FaultConfig()
    ]
    storm_days = [day0 + d for d in range(days) if day0 + d not in calm_days]
    base_by_day = {d: len(base_trace.snapshots_on(d)) for d in base_trace.days()}
    storm_by_day = {d: len(storm_trace.snapshots_on(d)) for d in storm_trace.days()}

    def _ratio(day_set) -> float:
        got = sum(storm_by_day.get(d, 0) for d in day_set)
        want = sum(base_by_day.get(d, 0) for d in day_set)
        return got / want if want else 1.0

    metrics = {
        "completeness": report.completeness or 0.0,
        "delivery_rate": report.delivery_rate,
        "calm_day_completeness": _ratio(calm_days),
        "storm_day_completeness": _ratio(storm_days),
        "storm_days": float(len(storm_days)),
    }
    return ExperimentResult(
        experiment_id="fault-schedule",
        title="Crawl fidelity under a time-varying fault schedule",
        series=[per_day_base, per_day_storm],
        metrics=metrics,
        notes="same seed, faults only inside schedule windows: calm days "
        "should match the fault-free run exactly, storm days degrade and "
        "recover when the window closes",
    )
