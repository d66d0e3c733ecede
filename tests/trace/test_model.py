"""Tests for the trace data model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.model import (
    ClientMeta,
    FileMeta,
    Snapshot,
    StaticTrace,
    Trace,
    overlap,
)
from tests.conftest import build_static, build_trace, make_client


class TestFileMeta:
    def test_valid(self):
        meta = FileMeta(file_id="f1", size=100)
        assert meta.kind == "unknown"

    def test_negative_size(self):
        with pytest.raises(ValueError):
            FileMeta(file_id="f1", size=-1)

    def test_empty_id(self):
        with pytest.raises(ValueError):
            FileMeta(file_id="", size=1)


class TestClientMeta:
    def test_requires_uid(self):
        with pytest.raises(ValueError):
            ClientMeta(client_id=1, uid="", ip="1.2.3.4", country="FR", asn=1)

    def test_requires_country(self):
        with pytest.raises(ValueError):
            ClientMeta(client_id=1, uid="u", ip="1.2.3.4", country="", asn=1)


class TestTraceBasics:
    def test_snapshot_requires_known_client(self):
        trace = Trace()
        with pytest.raises(KeyError):
            trace.observe(1, 99, ["f1"])

    def test_days_sorted(self):
        trace = build_trace({5: {0: ["a"]}, 2: {0: ["a"]}, 9: {0: []}})
        assert trace.days() == [2, 5, 9]

    def test_reobservation_replaces(self):
        trace = build_trace({1: {0: ["a"]}})
        trace.observe(1, 0, ["b", "c"])
        assert trace.cache(0, 1) == frozenset({"b", "c"})
        assert trace.num_snapshots == 1

    def test_cache_missing_day(self):
        trace = build_trace({1: {0: ["a"]}})
        assert trace.cache(0, 2) is None

    def test_observed_clients(self):
        trace = build_trace({1: {0: ["a"], 1: []}})
        assert sorted(trace.observed_clients(1)) == [0, 1]
        assert trace.observed_clients(7) == []

    def test_iter_snapshots_ordered(self):
        trace = build_trace({2: {1: ["a"], 0: ["b"]}, 1: {0: ["a"]}})
        snaps = list(trace.iter_snapshots())
        assert [(s.day, s.client_id) for s in snaps] == [(1, 0), (2, 0), (2, 1)]


class TestDerivedIndexes:
    def test_static_cache_union(self):
        trace = build_trace({1: {0: ["a", "b"]}, 2: {0: ["b", "c"]}})
        assert trace.static_cache(0) == {"a", "b", "c"}

    def test_free_riders(self):
        trace = build_trace({1: {0: ["a"], 1: []}, 2: {1: []}})
        assert trace.free_riders() == {1}
        assert trace.is_free_rider(1)
        assert not trace.is_free_rider(0)

    def test_client_without_snapshot_is_free_rider(self):
        trace = build_trace({1: {0: ["a"]}})
        trace.add_client(make_client(42))
        assert trace.is_free_rider(42)
        assert trace.observation_days(42) == []

    def test_observation_days(self):
        trace = build_trace({3: {0: ["a"]}, 1: {0: ["a"]}})
        assert trace.observation_days(0) == [1, 3]

    def test_sources(self):
        trace = build_trace({1: {0: ["a"], 1: ["a", "b"], 2: []}})
        assert sorted(trace.sources("a", 1)) == [0, 1]
        assert trace.sources("b", 1) == [1]
        assert trace.sources("zz", 1) == []

    def test_replica_counts(self):
        trace = build_trace({1: {0: ["a", "b"], 1: ["a"]}})
        counts = trace.replica_counts(1)
        assert counts["a"] == 2
        assert counts["b"] == 1

    def test_static_replica_counts_dedupe_days(self):
        trace = build_trace({1: {0: ["a"]}, 2: {0: ["a"]}})
        assert trace.static_replica_counts()["a"] == 1

    def test_average_popularity(self):
        # "a" seen 2 days with 1 distinct source -> 0.5;
        # "b" seen 1 day with 2 sources -> 2.0
        trace = build_trace({1: {0: ["a"], 1: ["b"], 2: ["b"]}, 2: {0: ["a"]}})
        pop = trace.average_popularity()
        assert pop["a"] == pytest.approx(0.5)
        assert pop["b"] == pytest.approx(2.0)

    def test_index_invalidated_on_new_snapshot(self):
        trace = build_trace({1: {0: ["a"]}})
        assert trace.static_cache(0) == {"a"}
        trace.observe(2, 0, ["b"])
        assert trace.static_cache(0) == {"a", "b"}


class TestRestrictions:
    def test_restricted_to_clients(self):
        trace = build_trace({1: {0: ["a"], 1: ["b"]}})
        sub = trace.restricted_to_clients([0])
        assert 1 not in sub.clients
        assert sub.observed_clients(1) == [0]


class TestToStatic:
    def test_union_and_free_riders(self):
        trace = build_trace({1: {0: ["a"], 1: []}, 2: {0: ["b"]}})
        static = trace.to_static()
        assert static.caches[0] == frozenset({"a", "b"})
        assert static.caches[1] == frozenset()

    def test_drop_free_riders(self):
        trace = build_trace({1: {0: ["a"], 1: []}})
        static = trace.to_static(drop_free_riders=True)
        assert set(static.caches) == {0}


class TestStaticTrace:
    def test_counters(self):
        static = build_static({0: ["a", "b"], 1: ["a"], 2: []})
        assert static.num_clients == 3
        assert static.total_replicas() == 3
        assert static.replica_counts()["a"] == 2
        assert static.distinct_files() == {"a", "b"}
        assert sorted(static.non_free_riders()) == [0, 1]
        assert static.free_riders() == [2]

    def test_generosity(self):
        static = build_static({0: ["a", "b"], 1: []})
        assert static.generosity() == {0: 2, 1: 0}

    def test_without_clients(self):
        static = build_static({0: ["a"], 1: ["b"]})
        out = static.without_clients([0])
        assert set(out.caches) == {1}
        assert 0 not in out.clients
        # Original untouched.
        assert set(static.caches) == {0, 1}

    def test_without_files(self):
        static = build_static({0: ["a", "b"], 1: ["a"]})
        out = static.without_files(["a"])
        assert out.caches[0] == frozenset({"b"})
        assert out.caches[1] == frozenset()
        assert "a" not in out.files

    def test_replace_caches(self):
        static = build_static({0: ["a"]})
        out = static.replace_caches({0: ["b"]})
        assert out.caches[0] == frozenset({"b"})
        assert static.caches[0] == frozenset({"a"})


class TestHelpers:
    def test_overlap(self):
        assert overlap({"a", "b"}, frozenset({"b", "c"})) == 1
        assert overlap(["a", "b"], frozenset()) == 0

    @given(
        st.sets(st.integers(0, 30), max_size=15),
        st.sets(st.integers(0, 30), max_size=15),
    )
    def test_overlap_matches_set_intersection(self, a, b):
        assert overlap(a, frozenset(b)) == len(a & b)
