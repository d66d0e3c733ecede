"""Regression tests for the replica-count memoization (satellite of the
compiled-trace PR): repeated calls must not re-iterate the snapshots,
and any new observation must invalidate exactly the affected memo."""

from repro.trace.model import Snapshot, StaticTrace, Trace
from tests.conftest import make_client


class CountingFrozenset(frozenset):
    """A frozenset that counts how many times it is iterated."""

    def __new__(cls, iterable=()):
        self = super().__new__(cls, iterable)
        self.iterations = 0
        return self

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _trace_with_counting_caches():
    trace = Trace()
    caches = {}
    for cid in (1, 2):
        trace.add_client(make_client(cid))
        caches[cid] = CountingFrozenset({f"f{cid}", "shared"})
        # add_snapshot stores the set as-is (observe() would re-wrap it).
        trace.add_snapshot(Snapshot(0, cid, caches[cid]))
    return trace, caches


class TestDayMemo:
    def test_second_call_does_not_reiterate_snapshots(self):
        trace, caches = _trace_with_counting_caches()
        first = trace.replica_counts(0)
        iterations = [c.iterations for c in caches.values()]
        assert trace.replica_counts(0) == first
        assert [c.iterations for c in caches.values()] == iterations

    def test_returned_counter_is_a_copy(self):
        trace, _ = _trace_with_counting_caches()
        counts = trace.replica_counts(0)
        counts["shared"] = 999
        assert trace.replica_counts(0)["shared"] == 2

    def test_observe_invalidates_only_that_day(self):
        trace, caches = _trace_with_counting_caches()
        day1 = CountingFrozenset({"other"})
        trace.add_snapshot(Snapshot(1, 1, day1))
        trace.replica_counts(0)
        trace.replica_counts(1)
        day1_iterations = day1.iterations

        trace.observe(0, 1, {"f1"})  # re-observe client 1 on day 0
        assert trace.replica_counts(0)["shared"] == 1  # fresh, not stale
        assert trace.replica_counts(1) == {"other": 1}
        assert day1.iterations == day1_iterations  # day-1 memo survived


class TestStaticMemo:
    def test_second_call_does_not_reiterate(self):
        trace, _ = _trace_with_counting_caches()
        first = trace.static_replica_counts()
        # White-box: plant a counting set where the memo build reads from,
        # then drop the memo.  One rebuild of the memo iterates it once;
        # subsequent calls must not.
        probe = CountingFrozenset({"planted"})
        trace._static_caches[99] = probe
        trace._static_counts = None
        rebuilt = trace.static_replica_counts()
        assert rebuilt["planted"] == 1
        assert probe.iterations == 1
        trace.static_replica_counts()
        assert probe.iterations == 1
        assert first["shared"] == 2

    def test_new_snapshot_invalidates(self):
        trace, _ = _trace_with_counting_caches()
        before = trace.static_replica_counts()
        trace.add_client(make_client(3))
        trace.observe(0, 3, {"shared"})
        after = trace.static_replica_counts()
        assert after["shared"] == before["shared"] + 1

    def test_returned_counter_is_a_copy(self):
        trace, _ = _trace_with_counting_caches()
        counts = trace.static_replica_counts()
        counts.clear()
        assert trace.static_replica_counts()["shared"] == 2


class TestStaticTraceMemo:
    def test_replica_counts_memoized_without_reiteration(self):
        cache = CountingFrozenset({"a", "b"})
        static = StaticTrace(caches={1: cache})
        first = static.replica_counts()
        iterations = cache.iterations
        assert static.replica_counts() == first
        assert cache.iterations == iterations

    def test_matches_compiled_counts(self):
        static = StaticTrace(
            caches={1: frozenset({"a", "b"}), 2: frozenset({"b"})}
        )
        static.compiled()
        assert static.replica_counts() == {"a": 1, "b": 2}
