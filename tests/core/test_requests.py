"""Tests for request-sequence generation."""

from collections import Counter

from repro.core.requests import generate_requests, request_count
from repro.util.rng import RngStream
from tests.conftest import build_static


class TestCoverage:
    def test_every_replica_requested_once(self):
        trace = build_static({0: ["a", "b"], 1: ["a"], 2: []})
        rng = RngStream(0)
        requests = list(generate_requests(trace, rng))
        assert len(requests) == 3
        seen = Counter((r.peer, r.file_id) for r in requests)
        assert set(seen) == {(0, "a"), (0, "b"), (1, "a")}
        assert all(v == 1 for v in seen.values())

    def test_request_count_helper(self):
        trace = build_static({0: ["a", "b"], 1: ["a"]})
        assert request_count(trace) == 3

    def test_free_riders_request_nothing(self):
        trace = build_static({0: [], 1: ["x"]})
        requests = list(generate_requests(trace, RngStream(1)))
        assert all(r.peer == 1 for r in requests)

    def test_empty_trace(self):
        trace = build_static({0: []})
        assert list(generate_requests(trace, RngStream(0))) == []


class TestOrdering:
    def test_deterministic_given_seed(self):
        trace = build_static({i: [f"f{j}" for j in range(5)] for i in range(4)})
        a = list(generate_requests(trace, RngStream(3)))
        b = list(generate_requests(trace, RngStream(3)))
        assert a == b

    def test_seed_changes_order(self):
        trace = build_static({i: [f"f{j}" for j in range(5)] for i in range(4)})
        a = list(generate_requests(trace, RngStream(3)))
        b = list(generate_requests(trace, RngStream(4)))
        assert a != b
        assert sorted((r.peer, r.file_id) for r in a) == sorted(
            (r.peer, r.file_id) for r in b
        )

    def test_peers_interleaved(self):
        """With uniform peer picking, a peer's requests are spread through
        the sequence rather than clumped at the start."""
        trace = build_static(
            {0: [f"a{i}" for i in range(30)], 1: [f"b{i}" for i in range(30)]}
        )
        requests = list(generate_requests(trace, RngStream(5)))
        first_half_peers = {r.peer for r in requests[:20]}
        assert first_half_peers == {0, 1}
