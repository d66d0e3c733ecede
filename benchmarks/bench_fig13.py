"""Figure 13: P(another common file | n files in common).

Paper: the probability climbs steeply with n (two clients with a handful
of common files will almost surely share another), and rare audio files
cluster more than popular ones.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_figure13
from repro.runtime import RunContext


def test_figure13(benchmark):
    result = run_once(benchmark, run_figure13, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert result.metric("all_p_at_5") > result.metric("all_p_at_1")
    assert result.metric("all_p_at_5") > 60.0
    if "popular_audio_p_at_1" in result.metrics:
        assert (
            result.metric("rare_audio_p_at_1")
            > result.metric("popular_audio_p_at_1") - 15.0
        )
