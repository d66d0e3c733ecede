"""Reproductions of the semantic-clustering figures (13-17)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.semantic import (
    clustering_correlation,
    mean_overlap_decay,
    overlap_evolution,
    popularity_band_filter,
)
from repro.core.randomization import randomize_trace
from repro.experiments.result import ExperimentResult
from repro.runtime import RunContext, experiment
from repro.util.cdf import Series
from repro.util.rng import RngStream


def _day_caches(trace, day):
    return {c: f for c, f in trace.snapshots_on(day).items() if f}


@experiment(
    "fig13",
    artefact="Figure 13",
    description="P(another common file | n in common), by popularity band",
)
def run_figure13(ctx: RunContext) -> ExperimentResult:
    """Figure 13: probability of another common file, given n in common.

    Three curves: all shared files of the first analysis day, plus audio
    files in a rare and in a popular replication band (full trace).
    """
    extrapolated = ctx.extrapolated_trace()
    days = extrapolated.days()
    if not days:
        raise RuntimeError("extrapolated trace is empty")
    day = days[len(days) // 8]  # early, as the paper uses day 348
    caches = _day_caches(extrapolated, day)
    all_series = clustering_correlation(caches, name=f"all files day {day}")

    full_static = ctx.filtered_trace().to_static()
    static_caches = dict(full_static.caches)
    kind_of = {fid: meta.kind for fid, meta in full_static.files.items()}
    rare_filter = popularity_band_filter(
        static_caches, 1, 10, kind_of=kind_of, kind="audio"
    )
    popular_filter = popularity_band_filter(
        static_caches, 30, 40, kind_of=kind_of, kind="audio"
    )
    rare_series = clustering_correlation(
        static_caches, file_filter=rare_filter, name="audio popularity 1-10"
    )
    popular_series = clustering_correlation(
        static_caches, file_filter=popular_filter, name="audio popularity 30-40"
    )

    metrics: Dict[str, float] = {}
    if len(all_series) >= 1:
        metrics["all_p_at_1"] = all_series.ys[0]
    if len(all_series) >= 5:
        metrics["all_p_at_5"] = all_series.ys[4]
    if len(rare_series) >= 1:
        metrics["rare_audio_p_at_1"] = rare_series.ys[0]
    if len(popular_series) >= 1:
        metrics["popular_audio_p_at_1"] = popular_series.ys[0]

    return ExperimentResult(
        experiment_id="figure-13",
        title="Clustering correlation: P(another common file | n in common)",
        series=[all_series, rare_series, popular_series],
        metrics=metrics,
        notes="paper: steep increase with n; rare audio files cluster more "
        "than popular ones",
    )


@experiment(
    "fig14",
    artefact="Figure 14",
    description="Clustering correlation: real trace vs randomized trace",
)
def run_figure14(
    ctx: RunContext,
    popularity_levels: Sequence[int] = (3, 5),
) -> ExperimentResult:
    """Figure 14: clustering correlation, real trace vs randomized trace,
    for all files and for two low popularity levels."""
    static = ctx.filtered_trace().to_static()
    rng = RngStream(ctx.seed, "figure14-randomize")
    randomized = randomize_trace(static, rng)

    series: List[Series] = []
    metrics: Dict[str, float] = {}

    def add_pair(label: str, file_filter_real, file_filter_rand) -> None:
        real = clustering_correlation(
            dict(static.caches), file_filter=file_filter_real,
            name=f"{label} (trace)",
        )
        rand = clustering_correlation(
            dict(randomized.caches), file_filter=file_filter_rand,
            name=f"{label} (random)",
        )
        series.extend([real, rand])
        if len(real) >= 1 and len(rand) >= 1:
            metrics[f"{label}_trace_p1"] = real.ys[0]
            metrics[f"{label}_random_p1"] = rand.ys[0]

    add_pair("all", None, None)
    for level in popularity_levels:
        real_filter = popularity_band_filter(dict(static.caches), level, level)
        rand_filter = popularity_band_filter(dict(randomized.caches), level, level)
        add_pair(f"pop{level}", real_filter, rand_filter)

    return ExperimentResult(
        experiment_id="figure-14",
        title="Clustering correlation: trace vs randomized trace",
        series=series,
        metrics=metrics,
        notes="paper: trace ~ random over all files (popular files mask "
        "interests); trace >> random at popularity 3 and 5",
    )


@experiment(
    "fig15",
    artefact="Figures 15-17",
    description="Evolution of pairwise cache overlap over time",
    aliases=("fig16", "fig17"),
)
def run_figure15_17(
    ctx: RunContext,
    low_levels: Sequence[int] = (1, 2, 3, 5, 10),
    high_levels: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Figures 15-17: evolution of pairwise cache overlap over time.

    Low initial-overlap groups (Figure 15) decay smoothly; high-overlap
    groups (Figures 16-17) plateau — interest-based proximity persists.
    """
    seed = ctx.seed
    trace = ctx.extrapolated_trace()
    days = trace.days()
    if not days:
        raise RuntimeError("extrapolated trace is empty")
    first_day = days[min(2, len(days) - 1)]

    low_series = overlap_evolution(
        trace, first_day=first_day, overlap_levels=low_levels, seed=seed
    )
    all_series = overlap_evolution(trace, first_day=first_day, seed=seed)
    if high_levels is None:
        observed_levels = sorted(
            int(s.name.split(" ")[0]) for s in all_series if len(s) >= 2
        )
        high = [lv for lv in observed_levels if lv >= 15]
        high_levels = high[:8] if high else observed_levels[-3:]
    high_series = [
        s
        for s in all_series
        if int(s.name.split(" ")[0]) in set(high_levels) and len(s) >= 2
    ]

    metrics: Dict[str, float] = {}
    low_decays = [mean_overlap_decay(s) for s in low_series if len(s) >= 2]
    high_decays = [mean_overlap_decay(s) for s in high_series if len(s) >= 2]
    if low_decays:
        metrics["low_overlap_mean_retention"] = sum(low_decays) / len(low_decays)
    if high_decays:
        metrics["high_overlap_mean_retention"] = sum(high_decays) / len(high_decays)

    return ExperimentResult(
        experiment_id="figure-15-17",
        title="Evolution of pairwise cache overlap over time",
        series=low_series + high_series,
        metrics=metrics,
        notes="paper: low-overlap pairs decay homogeneously; high-overlap "
        "pairs sustain their overlap for weeks",
    )
