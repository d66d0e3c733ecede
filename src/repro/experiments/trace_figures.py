"""Reproductions of the measurement-study artefacts: Table 1, Table 2 and
Figures 1-12."""

from __future__ import annotations

from typing import List

from repro.analysis.contribution import (
    generosity_concentration,
    size_cdf_by_popularity,
    temporal_contribution_cdfs,
)
from repro.analysis.geographic import (
    country_histogram,
    home_locality_cdf,
    top_as_concentration,
    top_as_table,
)
from repro.analysis.popularity import (
    file_spread,
    max_spread_fraction,
    rank_evolution,
    rank_replication,
)
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, experiment
from repro.trace.stats import (
    daily_counts,
    discovery_curve,
    general_characteristics,
    new_files_per_client_per_day,
)
from repro.util.tables import format_table
from repro.util.zipf import fit_zipf_slope


@experiment(
    "table1",
    artefact="Table 1",
    description="General characteristics of the full/filtered/extrapolated traces",
)
def run_table1(ctx: RunContext) -> ExperimentResult:
    """Table 1: general characteristics of the full / filtered /
    extrapolated traces."""
    full = ctx.temporal_trace()
    filtered = ctx.filtered_trace()
    extrapolated = ctx.extrapolated_trace()

    rows = []
    metrics = {}
    for label, trace in (
        ("full", full),
        ("filtered", filtered),
        ("extrapolated", extrapolated),
    ):
        chars = general_characteristics(trace)
        rows.append(
            (
                label,
                chars.duration_days,
                chars.num_clients,
                chars.num_free_riders,
                f"{100 * chars.free_rider_fraction:.0f}%",
                chars.num_snapshots,
                chars.num_distinct_files,
                f"{chars.total_bytes_distinct_files / 1024**4:.2f} TB",
            )
        )
        metrics[f"{label}_clients"] = float(chars.num_clients)
        metrics[f"{label}_free_rider_fraction"] = chars.free_rider_fraction
        metrics[f"{label}_files"] = float(chars.num_distinct_files)
    metrics["full_snapshots"] = float(general_characteristics(full).num_snapshots)

    table = format_table(
        (
            "trace",
            "days",
            "clients",
            "free-riders",
            "fr%",
            "snapshots",
            "distinct files",
            "space",
        ),
        rows,
        title="Table 1: general characteristics",
    )
    return ExperimentResult(
        experiment_id="table-1",
        title="General characteristics of the trace",
        table_text=table,
        metrics=metrics,
        notes="paper: 84% free-riders (full), 70% (filtered), 74% (extrapolated)",
    )


@experiment(
    "fig1",
    artefact="Figure 1",
    description="Clients and shared files scanned per day",
)
def run_figure01(ctx: RunContext) -> ExperimentResult:
    """Figure 1: clients and files scanned per day."""
    trace = ctx.temporal_trace()
    clients, files, _ = daily_counts(trace)
    first_clients = clients.ys[0]
    last_clients = clients.ys[-1]
    return ExperimentResult(
        experiment_id="figure-1",
        title="Clients and shared files scanned per day",
        series=[clients, files],
        metrics={
            "clients_first_day": first_clients,
            "clients_last_day": last_clients,
            "decline_ratio": last_clients / first_clients if first_clients else 0.0,
        },
        notes="paper: 65k -> 35k clients/day (crawler bandwidth decline)",
    )


@experiment(
    "fig2",
    artefact="Figure 2",
    description="New and total files discovered per day",
)
def run_figure02(ctx: RunContext) -> ExperimentResult:
    """Figure 2: new and total files discovered per day."""
    trace = ctx.temporal_trace()
    new_files, total_files = discovery_curve(trace)
    rate = new_files_per_client_per_day(trace)
    tail_new = new_files.ys[-1]
    return ExperimentResult(
        experiment_id="figure-2",
        title="New / total files discovered over the trace",
        series=[new_files, total_files],
        metrics={
            "new_files_last_day": tail_new,
            "total_files": total_files.ys[-1],
            "new_files_per_client_per_day": rate,
        },
        notes="paper: still 100k new files/day after a month; ~5 new files "
        "per client per day",
    )


@experiment(
    "fig3",
    artefact="Figure 3",
    description="Files and non-empty caches per day (extrapolated trace)",
)
def run_figure03(ctx: RunContext) -> ExperimentResult:
    """Figure 3: files and non-empty caches per day after extrapolation."""
    trace = ctx.extrapolated_trace()
    _, files, non_empty = daily_counts(trace)
    return ExperimentResult(
        experiment_id="figure-3",
        title="Files and non-empty caches per day (extrapolated trace)",
        series=[files, non_empty],
        metrics={
            "min_daily_files": min(files.ys) if files.ys else 0.0,
            "min_daily_non_empty_caches": min(non_empty.ys) if non_empty.ys else 0.0,
        },
        notes="paper selected days 348-389 with >= 1M files and >= 7k caches",
    )


@experiment(
    "fig4",
    artefact="Figure 4",
    description="Distribution of clients per country",
)
def run_figure04(ctx: RunContext) -> ExperimentResult:
    """Figure 4: distribution of clients per country."""
    trace = ctx.temporal_trace()
    rows = country_histogram(trace)
    table = format_table(
        ("country", "clients", "share"),
        [(c, n, f"{100 * f:.1f}%") for c, n, f in rows[:12]],
        title="Figure 4: clients per country",
    )
    shares = {c: f for c, _, f in rows}
    return ExperimentResult(
        experiment_id="figure-4",
        title="Distribution of clients per country",
        table_text=table,
        metrics={
            "share_FR": shares.get("FR", 0.0),
            "share_DE": shares.get("DE", 0.0),
            "share_ES": shares.get("ES", 0.0),
            "share_US": shares.get("US", 0.0),
        },
        notes="paper: FR 29%, DE 28%, ES 16%, US 5%",
    )


@experiment(
    "fig5",
    artefact="Figure 5",
    description="File replication vs rank (log-log) across several days",
)
def run_figure05(
    ctx: RunContext,
    num_days: int = 5,
) -> ExperimentResult:
    """Figure 5: file replication against rank for several days."""
    trace = ctx.extrapolated_trace()
    days = trace.days()
    if not days:
        raise RuntimeError("extrapolated trace has no days")
    picks: List[int] = days[:: max(1, len(days) // num_days)][:num_days]
    series = [rank_replication(trace, day, max_rank=5000) for day in picks]
    slopes = []
    for s in series:
        if len(s) >= 20:
            slope, r2 = fit_zipf_slope(s.xs, s.ys, skip_head=5)
            slopes.append(slope)
    mean_slope = sum(slopes) / len(slopes) if slopes else 0.0
    return ExperimentResult(
        experiment_id="figure-5",
        title="Distribution of file replication by rank (log-log)",
        series=series,
        metrics={"mean_zipf_slope": mean_slope, "days_plotted": float(len(series))},
        notes="paper: flat head then linear trend on log-log, stable across days",
    )


@experiment(
    "fig6",
    artefact="Figure 6",
    description="CDF of file sizes by popularity threshold",
)
def run_figure06(ctx: RunContext) -> ExperimentResult:
    """Figure 6: cumulative distribution of file sizes by popularity."""
    trace = ctx.filtered_trace().to_static()
    series = size_cdf_by_popularity(trace, (1, 5, 10))
    metrics = {}
    for s, threshold in zip(series, (1, 5, 10)):
        if len(s) == 0:
            continue
        # fraction of files under 1 MB / over 600 MB
        under_1mb = max((p for x, p in zip(s.xs, s.ys) if x <= 1024.0), default=0.0)
        over_600mb = 1.0 - max(
            (p for x, p in zip(s.xs, s.ys) if x <= 600 * 1024.0), default=0.0
        )
        metrics[f"p{threshold}_under_1mb"] = under_1mb
        metrics[f"p{threshold}_over_600mb"] = over_600mb
    return ExperimentResult(
        experiment_id="figure-6",
        title="CDF of file sizes by popularity threshold",
        series=series,
        metrics=metrics,
        notes="paper: 40% of all files < 1MB; ~45% of popularity>=5 files "
        "> 600MB (DIVX)",
    )


@experiment(
    "fig7",
    artefact="Figure 7",
    description="Files and disk space shared per client",
)
def run_figure07(ctx: RunContext) -> ExperimentResult:
    """Figure 7: files and disk space shared per client.

    Contribution is measured per client as the mean *observed* cache (the
    instantaneous view the crawler saw), not the union over days — see
    :func:`repro.analysis.contribution.temporal_contribution_cdfs`.
    Generosity concentration, which the search ablations use, stays on the
    static view (the paper's "top 15% offer 75% of the files").
    """
    temporal = ctx.filtered_trace()
    trace = temporal.to_static()
    cdfs = temporal_contribution_cdfs(temporal)
    sharers_files = cdfs["files_sharers"]
    under_100 = max(
        (p for x, p in zip(sharers_files.xs, sharers_files.ys) if x < 100),
        default=0.0,
    )
    space_sharers = cdfs["space_sharers"]
    under_1gb = max(
        (p for x, p in zip(space_sharers.xs, space_sharers.ys) if x < 1.0),
        default=0.0,
    )
    concentration = generosity_concentration(trace, 0.15)
    free_riders = len(trace.free_riders()) / trace.num_clients
    return ExperimentResult(
        experiment_id="figure-7",
        title="Files and disk space shared per client",
        series=list(cdfs.values()),
        metrics={
            "free_rider_fraction": free_riders,
            "sharers_under_100_files": under_100,
            "sharers_under_1gb": under_1gb,
            "top15pct_share_of_files": concentration,
        },
        notes="paper: ~80% free-riders; 80% of sharers < 100 files; <10% of "
        "sharers < 1GB; top 15% offer 75% of files",
    )


@experiment(
    "fig8",
    artefact="Figure 8",
    description="Spread of the 6 most popular files over time",
)
def run_figure08(ctx: RunContext) -> ExperimentResult:
    """Figure 8: spread of the 6 most popular files over time."""
    trace = ctx.filtered_trace()
    series = file_spread(trace, top_k=6)
    peaks = [max(s.ys) if s.ys else 0.0 for s in series]
    rises = []
    for s in series:
        if not s.ys:
            continue
        peak_idx = s.ys.index(max(s.ys))
        rises.append(peak_idx)
    return ExperimentResult(
        experiment_id="figure-8",
        title="File spread over time, 6 most popular files",
        series=series,
        metrics={
            "max_spread_pct": max(peaks) if peaks else 0.0,
            "max_spread_fraction_any_file": max_spread_fraction(trace),
        },
        notes="paper: sudden increase then slow decrease; max spread < 0.7% "
        "(372 of 53,476 clients)",
    )


@experiment(
    "fig9",
    artefact="Figures 9-10",
    description="Rank evolution of early-day and mid-trace top-5 files",
    aliases=("fig10",),
)
def run_figure09_10(ctx: RunContext) -> ExperimentResult:
    """Figures 9 and 10: rank evolution of early-day and mid-trace top-5
    files."""
    trace = ctx.filtered_trace()
    days = trace.days()
    if len(days) < 3:
        raise RuntimeError("need at least 3 days")
    early_day = days[min(5, len(days) - 1)]
    mid_day = days[len(days) // 2]
    early = rank_evolution(trace, early_day, top_k=5)
    mid = rank_evolution(trace, mid_day, top_k=5)
    for s in early:
        s.name = f"day-{early_day} {s.name}"
    for s in mid:
        s.name = f"day-{mid_day} {s.name}"

    def mean_final_rank(series_list) -> float:
        finals = [s.ys[-1] for s in series_list if s.ys]
        return sum(finals) / len(finals) if finals else 0.0

    return ExperimentResult(
        experiment_id="figure-9-10",
        title="Evolution of file ranks for top-5 files",
        series=early + mid,
        metrics={
            "early_top5_mean_final_rank": mean_final_rank(early),
            "mid_top5_mean_final_rank": mean_final_rank(mid),
        },
        notes="paper: ranks of popular files remain fairly stable; early "
        "tops drift down gradually",
    )


@experiment(
    "table2",
    artefact="Table 2",
    description="Top-5 autonomous systems by hosted clients",
)
def run_table2(ctx: RunContext) -> ExperimentResult:
    """Table 2: the top-5 autonomous systems."""
    trace = ctx.temporal_trace()
    rows = top_as_table(trace, 5)
    table = format_table(
        ("AS", "global", "national", "country"),
        [
            (r.asn, f"{100 * r.global_share:.0f}%", f"{100 * r.national_share:.0f}%", r.country)
            for r in rows
        ],
        title="Table 2: top autonomous systems",
    )
    metrics = {"top5_concentration": top_as_concentration(trace, 5)}
    for r in rows:
        metrics[f"as{r.asn}_global"] = r.global_share
    return ExperimentResult(
        experiment_id="table-2",
        title="Top-5 autonomous systems by hosted clients",
        table_text=table,
        metrics=metrics,
        notes="paper: AS3320 21%/75%, AS3215 15%/51%, AS3352 8%/50%, "
        "AS12322 7%/24%, AS1668 3%/60%; top-5 host 54% of clients",
    )


def _locality_metrics(series_list) -> dict:
    """Median home-fraction per popularity class, for assertions."""
    metrics = {}
    for s in series_list:
        if len(s) == 0:
            continue
        # x where CDF crosses 0.5 = median home-source percentage.
        median_x = next(
            (x for x, p in zip(s.xs, s.ys) if p >= 0.5), s.xs[-1]
        )
        key = s.name.replace("avg popularity >= ", "median_home_pct_p")
        metrics[key] = median_x
        # fraction of files entirely in the home location
        all_home = 1.0 - max(
            (p for x, p in zip(s.xs, s.ys) if x < 100.0), default=0.0
        )
        metrics[s.name.replace("avg popularity >= ", "all_home_fraction_p")] = all_home
    return metrics


@experiment(
    "fig11",
    artefact="Figure 11",
    description="CDF of sources in the home country, by popularity class",
)
def run_figure11(ctx: RunContext) -> ExperimentResult:
    """Figure 11: sources in the main country, by average popularity.

    The paper's average-popularity classes (1, 5, 10, 20, 50, 100) are
    defined as distinct sources divided by days seen; at reproduction
    scale (~200x fewer clients) the same ratio tops out near 1.5, so the
    classes are rescaled to (0.1, 0.3, 0.6, 1.2) — the last one isolates
    the genuinely popular files just as the paper's high classes do.
    """
    trace = ctx.filtered_trace()
    series = home_locality_cdf(
        trace, level="country", popularity_thresholds=(0.1, 0.3, 0.6, 1.2)
    )
    return ExperimentResult(
        experiment_id="figure-11",
        title="CDF of the fraction of sources in the home country",
        series=series,
        metrics=_locality_metrics(series),
        notes="paper: unpopular files are strongly home-clustered; popular "
        "files much less",
    )


@experiment(
    "fig12",
    artefact="Figure 12",
    description="CDF of sources in the home AS, by popularity class",
)
def run_figure12(ctx: RunContext) -> ExperimentResult:
    """Figure 12: sources in the main AS, by average popularity.

    Popularity classes rescaled as in :func:`run_figure11`.
    """
    trace = ctx.filtered_trace()
    series = home_locality_cdf(
        trace, level="as", popularity_thresholds=(0.1, 0.3, 0.6, 1.2)
    )
    return ExperimentResult(
        experiment_id="figure-12",
        title="CDF of the fraction of sources in the home autonomous system",
        series=series,
        metrics=_locality_metrics(series),
        notes="paper: same ordering as Figure 11, weaker concentration at "
        "AS granularity",
    )
