"""Tests for the compiled trace substrate: intern tables, columnar
caches, the inverted index and the overlap kernels."""

import pickle
from collections import Counter

import pytest

from repro.analysis.semantic import pair_overlaps
from repro.core.requests import iter_requests_compiled
from repro.trace.compiled import CompiledTrace, FileInterner
from repro.trace.model import StaticTrace
from repro.util.rng import RngStream
from tests.conftest import build_static
from tests.golden.cases import assert_case


@pytest.fixture
def trace() -> StaticTrace:
    return build_static(
        {
            0: ["beta", "alpha", "gamma"],
            1: ["alpha", "delta"],
            2: [],
            3: ["gamma", "alpha"],
        }
    )


@pytest.fixture
def compiled(trace) -> CompiledTrace:
    return trace.compiled()


class TestInterning:
    def test_monotone_intern(self, compiled):
        """Indices are assigned in sorted string order, so sorting int
        columns visits files in sorted-string order."""
        assert list(compiled.file_ids) == sorted(compiled.file_ids)
        assert compiled.file_idx("alpha") < compiled.file_idx("beta")
        assert compiled.file_idx("beta") < compiled.file_idx("gamma")

    def test_round_trip(self, compiled):
        for idx, fid in enumerate(compiled.file_ids):
            assert compiled.file_idx(fid) == idx
            assert compiled.file_id(idx) == fid
        ids = ["delta", "alpha"]
        assert compiled.to_file_ids(compiled.to_file_indices(ids)) == ids

    def test_unknown_file_raises(self, compiled):
        with pytest.raises(KeyError):
            compiled.file_idx("nope")

    def test_client_rows_keep_caches_order(self, trace, compiled):
        assert list(compiled.client_ids) == list(trace.caches)
        for cid in trace.caches:
            assert compiled.client_ids[compiled.row_of(cid)] == cid


class TestColumns:
    def test_sizes(self, trace, compiled):
        assert compiled.num_clients == len(trace.caches)
        assert compiled.num_files == len(trace.distinct_files())
        assert compiled.total_replicas == trace.total_replicas()

    def test_columns_are_sorted_interned_caches(self, trace, compiled):
        for cid, cache in trace.caches.items():
            column = compiled.cache_column(cid)
            assert list(column) == sorted(column)
            assert compiled.to_file_ids(column) == sorted(cache)
            assert compiled.cache_size(cid) == len(cache)
            assert compiled.cache_set(cid) == set(column)

    def test_shares_matches_caches(self, trace, compiled):
        for cid, cache in trace.caches.items():
            for fid in compiled.file_ids:
                assert compiled.shares(cid, compiled.file_idx(fid)) == (
                    fid in cache
                )

    def test_shares_unknown_client_is_false(self, compiled):
        assert not compiled.shares("ghost", 0)


class TestInvertedIndex:
    def test_sharers_match_caches(self, trace, compiled):
        for fid in compiled.file_ids:
            idx = compiled.file_idx(fid)
            expected = sorted(
                c for c, cache in trace.caches.items() if fid in cache
            )
            assert sorted(compiled.sharer_ids(idx)) == expected
            assert compiled.replica_count(idx) == len(expected)
            rows = list(compiled.sharer_rows_of(idx))
            assert rows == sorted(rows)

    def test_replica_counts_boundary(self, trace, compiled):
        expected = Counter()
        for cache in trace.caches.values():
            expected.update(cache)
        assert compiled.replica_counts() == expected
        assert 0 not in compiled.replica_counts().values()


class TestOverlapKernels:
    def test_overlap_pairwise(self, trace, compiled):
        for a in trace.caches:
            for b in trace.caches:
                assert compiled.overlap(a, b) == len(
                    trace.caches[a] & trace.caches[b]
                )

    def test_pair_overlaps_matches_legacy(self, trace, compiled):
        # The nested-loop engine's output, frozen as a digest too.
        expected = {(0, 1): 1, (0, 3): 2, (1, 3): 1}
        assert compiled.pair_overlaps() == expected
        assert pair_overlaps(compiled) == expected
        assert pair_overlaps(dict(trace.caches)) == expected
        assert_case("pair-overlaps/pair-trace/compiled")
        assert_case("pair-overlaps/pair-trace/cache-map")

    def test_pair_overlaps_with_filter(self, trace, compiled):
        keep = lambda fid: fid != "alpha"
        expected = {(0, 3): 1}
        assert pair_overlaps(compiled, file_filter=keep) == expected
        assert pair_overlaps(dict(trace.caches), file_filter=keep) == expected
        assert_case("pair-overlaps/pair-trace/filtered/compiled")
        assert_case("pair-overlaps/pair-trace/filtered/cache-map")

    def test_empty_trace(self):
        compiled = StaticTrace(caches={}).compiled()
        assert compiled.num_clients == 0
        assert compiled.num_files == 0
        assert compiled.pair_overlaps() == {}


class TestPickle:
    """A spawned search worker receives its trace by pickle, so a round
    trip must give back the same columns and the same seeded draws."""

    COLUMNS = (
        "file_ids",
        "client_ids",
        "cache_offsets",
        "cache_files",
        "cache_sets",
        "sharer_offsets",
        "sharer_rows",
        "static_counts",
    )

    @staticmethod
    def _round_trip(compiled):
        return pickle.loads(pickle.dumps(compiled))

    def test_columns_and_queries_identical(self, small_static_trace):
        compiled = small_static_trace.compiled()
        clone = self._round_trip(compiled)
        for name in self.COLUMNS:
            assert getattr(clone, name) == getattr(compiled, name), name
        assert clone.file_index == compiled.file_index
        assert clone.client_row == compiled.client_row
        assert clone.replica_counts() == compiled.replica_counts()
        assert clone.pair_overlaps() == compiled.pair_overlaps()

    def test_seeded_draws_identical(self, small_static_trace):
        compiled = small_static_trace.compiled()
        clone = self._round_trip(compiled)

        def draws(trace, weighted):
            return list(
                iter_requests_compiled(
                    trace, RngStream(3, "pickle"), weighted_by_cache=weighted
                )
            )

        for weighted in (False, True):
            assert draws(clone, weighted) == draws(compiled, weighted), weighted

    def test_empty_trace_round_trips(self):
        compiled = StaticTrace(caches={}).compiled()
        clone = self._round_trip(compiled)
        for name in self.COLUMNS:
            assert getattr(clone, name) == getattr(compiled, name), name
        assert clone.num_clients == 0
        assert clone.num_files == 0
        assert clone.replica_counts() == {}
        assert list(iter_requests_compiled(clone, RngStream(3, "pickle"))) == []


class TestMemoization:
    def test_compiled_is_cached_on_the_instance(self, trace):
        assert trace.compiled() is trace.compiled()

    def test_invalidate_compiled_recompiles(self, trace):
        first = trace.compiled()
        trace.invalidate_compiled()
        second = trace.compiled()
        assert second is not first
        assert second.file_ids == first.file_ids

    def test_derived_traces_compile_fresh(self, trace):
        derived = trace.without_clients([0])
        assert derived.compiled() is not trace.compiled()
        assert 0 not in derived.compiled().client_row


class TestFileInterner:
    def test_first_seen_order(self):
        interner = FileInterner()
        assert interner.intern("z") == 0
        assert interner.intern("a") == 1
        assert interner.intern("z") == 0
        assert len(interner) == 2

    def test_intern_preserves_set_arithmetic(self):
        interner = FileInterner()
        a = interner.intern_set(["x", "y", "z"])
        b = interner.intern_set(["y", "z", "w"])
        assert len(a & b) == 2
        assert len(a | b) == 4

    def test_intern_cache_map(self):
        caches = {1: frozenset(["a", "b"]), 2: frozenset(["b"])}
        interned = FileInterner().intern_cache_map(caches)
        assert set(interned) == {1, 2}
        assert len(interned[1] & interned[2]) == 1
