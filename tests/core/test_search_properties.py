"""Property-based tests: search-simulator invariants on random traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighbours import STRATEGY_NAMES
from repro.core.randomization import randomize_trace
from repro.core.search import SearchConfig, simulate_search
from repro.util.rng import RngStream
from tests.conftest import build_static
from tests.golden.cases import scale_static, search_payload

# Random small static traces: up to 12 peers, up to 18 files per peer,
# drawn from a 30-file universe so overlaps actually happen.
random_caches = st.dictionaries(
    keys=st.integers(0, 11),
    values=st.sets(st.integers(0, 29), max_size=18),
    max_size=12,
)


def to_trace(caches):
    return build_static({c: [f"f{i}" for i in files] for c, files in caches.items()})


class TestSimulationInvariants:
    @given(random_caches, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_event_accounting(self, caches, list_size):
        trace = to_trace(caches)
        result = simulate_search(
            trace, SearchConfig(list_size=list_size, track_load=False, seed=1)
        )
        assert (
            result.rates.contributions + result.rates.requests
            == trace.total_replicas()
        )
        assert result.rates.contributions == len(trace.distinct_files())
        assert 0 <= result.rates.hits <= result.rates.requests
        assert result.rates.one_hop_hits == result.rates.hits  # no two-hop

    @given(random_caches)
    @settings(max_examples=25, deadline=None)
    def test_two_hop_dominates_one_hop(self, caches):
        trace = to_trace(caches)
        one = simulate_search(
            trace, SearchConfig(list_size=3, track_load=False, seed=2)
        )
        two = simulate_search(
            trace,
            SearchConfig(list_size=3, two_hop=True, track_load=False, seed=2),
        )
        assert two.rates.hits >= one.rates.hits

    @given(random_caches, st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_churn_accounting(self, caches, availability):
        trace = to_trace(caches)
        result = simulate_search(
            trace,
            SearchConfig(
                list_size=3,
                availability=availability,
                track_load=False,
                seed=3,
            ),
        )
        assert (
            result.rates.contributions
            + result.rates.requests
            + result.unresolvable
            == trace.total_replicas()
        )

    @given(random_caches)
    @settings(max_examples=25, deadline=None)
    def test_exchange_totals_match_requests(self, caches):
        trace = to_trace(caches)
        result = simulate_search(
            trace,
            SearchConfig(
                list_size=3, track_load=False, track_exchanges=True, seed=4
            ),
        )
        assert result.exchanges is not None
        assert sum(result.exchanges.values()) == result.rates.requests
        # nobody uploads to themselves
        assert all(u != d for (u, d) in result.exchanges)

    @given(random_caches)
    @settings(max_examples=25, deadline=None)
    def test_load_equals_messages_sent(self, caches):
        trace = to_trace(caches)
        result = simulate_search(
            trace, SearchConfig(list_size=3, track_load=True, seed=5)
        )
        # every message lands on a peer that shared something at the time
        assert set(result.load.messages) <= set(trace.caches)
        # at most list_size messages per request
        assert result.load.total_messages <= 3 * result.rates.requests


class TestPathEquality:
    @given(
        strategy=st.sampled_from(STRATEGY_NAMES),
        list_size=st.integers(1, 30),
        two_hop=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_load_accounting_on_equals_off(self, strategy, list_size, two_hop, seed):
        """Counting load never changes a result: on the TINY static
        trace, runs with and without it differ only in ``load``."""
        on, off = (
            search_payload(
                simulate_search(
                    scale_static("tiny", 0),
                    SearchConfig(
                        list_size=list_size, strategy=strategy,
                        two_hop=two_hop, track_load=track_load,
                        rare_cutoff=3, track_exchanges=True, seed=seed,
                    ),
                )
            )
            for track_load in (True, False)
        )
        assert on.pop("load")
        assert off.pop("load") == {}
        assert on == off


class TestRandomizationProperties:
    @given(random_caches, st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_marginals_always_preserved(self, caches, seed):
        trace = to_trace(caches)
        randomized = randomize_trace(trace, RngStream(seed))
        assert randomized.replica_counts() == trace.replica_counts()
        assert {c: len(f) for c, f in randomized.caches.items()} == {
            c: len(f) for c, f in trace.caches.items()
        }

    @given(random_caches)
    @settings(max_examples=20, deadline=None)
    def test_randomized_hit_rate_not_higher_much(self, caches):
        """Randomization never *creates* semantic structure: the
        randomized hit rate stays within noise of the original on random
        (structure-free) inputs and far below on clustered ones."""
        trace = to_trace(caches)
        if trace.total_replicas() < 4:
            return
        original = simulate_search(
            trace, SearchConfig(list_size=3, track_load=False, seed=6)
        )
        randomized = simulate_search(
            randomize_trace(trace, RngStream(7)),
            SearchConfig(list_size=3, track_load=False, seed=6),
        )
        # requests counts match: popularity vector is preserved.
        assert randomized.rates.requests == original.rates.requests
