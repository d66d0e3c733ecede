"""The day-indexed analyses over a trace store must equal the same
analyses over the in-memory trace exactly — same Series names, xs, and
ys — on a seeded SMALL trace.

One implementation serves both sources (``Trace`` and ``TraceStore``
share the day-source protocol), so these tests pin the two sources to
each other and to the digests frozen in ``tests/golden/engines.json``
from the in-memory and store-only engines they replaced.  Any divergence
(ordering, tie-breaks, rng consumption, float accumulation) shows up as
a hard failure, not a tolerance.
"""

import pytest

from repro.analysis.popularity import file_spread
from repro.analysis.semantic import overlap_evolution
from repro.trace.io import trace_to_store
from tests.golden.cases import DAY_CASES, assert_day_case, canonical


@pytest.fixture(scope="module")
def store(tmp_path_factory, small_temporal_trace):
    path = tmp_path_factory.mktemp("streaming") / "store"
    with trace_to_store(small_temporal_trace, path) as opened:
        yield opened


def check(name, trace, store):
    """Trace and store agree, and both reproduce the frozen digest."""
    case = DAY_CASES[name]
    assert canonical(case.run(trace)) == canonical(case.run(store))
    assert_day_case(name, trace, store)


class TestPopularity:
    def test_rank_replication(self, small_temporal_trace, store):
        check("rank-replication/fixture/day1", small_temporal_trace, store)

    def test_rank_replication_truncated(self, small_temporal_trace, store):
        check("rank-replication/fixture/day0/max25", small_temporal_trace, store)

    def test_top_files_on(self, small_temporal_trace, store):
        for index in range(3):
            check(f"top-files/fixture/day{index}/k10", small_temporal_trace, store)

    def test_file_spread_reference_day(self, small_temporal_trace, store):
        check("file-spread/fixture/reference-day0/k6", small_temporal_trace, store)

    def test_file_spread_explicit_files(self, small_temporal_trace, store):
        check(
            "file-spread/fixture/explicit-last-day/k4", small_temporal_trace, store
        )

    def test_file_spread_static_default_needs_reference(self, store):
        # The static top-k selection needs whole-trace state by definition;
        # over a store the analysis refuses instead of approximating.
        with pytest.raises(ValueError, match="file_ids or reference_day"):
            file_spread(store)

    def test_rank_evolution(self, small_temporal_trace, store):
        check("rank-evolution/fixture/day0/k5", small_temporal_trace, store)

    def test_max_spread_fraction(self, small_temporal_trace, store):
        check("max-spread/fixture", small_temporal_trace, store)


class TestOverlapEvolution:
    def test_default_levels(self, small_temporal_trace, store):
        check("overlap-evolution/fixture/seed7", small_temporal_trace, store)

    def test_subsampled_levels(self, small_temporal_trace, store):
        # Small cap forces the rng-backed subsampling path on every level;
        # equality proves both sources consume the stream identically.
        check("overlap-evolution/fixture/seed3/max5", small_temporal_trace, store)

    def test_explicit_levels_and_first_day(self, small_temporal_trace, store):
        check(
            "overlap-evolution/fixture/day1/levels1-3", small_temporal_trace, store
        )

    def test_bad_first_day_raises(self, small_temporal_trace, store):
        for source in (small_temporal_trace, store):
            with pytest.raises(ValueError, match="not in trace"):
                overlap_evolution(source, first_day=-123)


def test_store_maps_one_day_at_a_time(monkeypatch, store):
    from repro.trace.store import TraceStore

    mapped = []
    original = TraceStore.segment

    def segment(self, day):
        seg = original(self, day)
        mapped.append(len(self._segments))
        return seg

    monkeypatch.setattr(TraceStore, "segment", segment)
    for case in DAY_CASES.values():
        case.run(store)
    assert max(mapped) == 1
    assert not store._segments
