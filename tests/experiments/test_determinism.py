"""Determinism tests: same (scale, seed) must reproduce identical
experiment metrics even after the trace cache is cleared — the property
EXPERIMENTS.md's recorded numbers depend on."""

import pytest

from repro import experiments as E
from repro.experiments import Scale
from repro.runtime import RunContext
from repro.runtime.cache import SHARED_TRACE_CACHE

SCALE = Scale.SMALL


@pytest.mark.parametrize(
    "runner_name",
    ["run_table1", "run_figure05", "run_figure13", "run_figure18", "run_table3"],
)
def test_metrics_stable_across_cache_clears(runner_name):
    runner = getattr(E, runner_name)
    first = runner(RunContext(scale=SCALE)).metrics
    SHARED_TRACE_CACHE.clear()
    second = runner(RunContext(scale=SCALE)).metrics
    assert first == second


def test_different_seeds_change_metrics():
    first = E.run_figure18(
        RunContext(scale=SCALE, seed=1), list_sizes=(5, 20)
    ).metrics
    second = E.run_figure18(
        RunContext(scale=SCALE, seed=2), list_sizes=(5, 20)
    ).metrics
    assert first != second


def test_cache_clear_is_safe_mid_session():
    SHARED_TRACE_CACHE.clear()
    result = E.run_figure04(RunContext(scale=SCALE))
    assert result.metric("share_FR") > 0
