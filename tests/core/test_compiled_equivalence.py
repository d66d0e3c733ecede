"""Seeded equivalence between the compiled engines and the frozen
string-keyed reference engines.

The string-keyed engines were deleted once their seeded outputs were
recorded as digests in ``tests/golden/engines.json`` (the recorder
refused to write unless both engines agreed on every case).  These
tests pin the surviving engine of every layer — the search simulator
(all strategies, two-hop, availability), request generation,
randomization, the three baselines, the semantic overlay and the
clustering analyses — to those digests: identical RNG draw order,
identical results.
"""

import pytest

from tests.golden.cases import assert_case


class TestSearchEquivalence:
    @pytest.mark.parametrize(
        "strategy", ["lru", "history", "random", "popularity"]
    )
    @pytest.mark.parametrize("two_hop", [False, True])
    def test_all_strategies(self, strategy, two_hop):
        hops = "two" if two_hop else "one"
        assert_case(f"search/fixture/{strategy}/{hops}-hop")

    def test_availability_below_one(self):
        assert_case("search/fixture/availability")

    def test_rare_files_and_exchanges(self):
        assert_case("search/fixture/rare-exchanges")

    def test_load_tracking(self):
        # The payload carries the per-peer message counts.
        assert_case("search/fixture/lru/one-hop")


class TestRequestEquivalence:
    def test_streams_are_byte_identical(self):
        assert_case("requests/fixture/uniform")


class TestRandomizationEquivalence:
    def test_randomize_trace(self):
        # The payload keeps the caches' client order: request generation
        # iterates the dict, so insertion order matters downstream.
        assert_case("randomize/fixture")

    def test_schedule_checkpoints(self):
        assert_case("randomize/fixture/schedule")

    def test_search_on_randomized_trace(self):
        assert_case("randomize/fixture/search")


class TestBaselineEquivalence:
    def test_flooding(self):
        assert_case("flooding/fixture")

    def test_random_walk(self):
        assert_case("random-walk/fixture")

    def test_server_lookup(self):
        # Includes publish/unpublish of an id unknown to the intern table.
        assert_case("server-lookup/fixture")


class TestOverlayEquivalence:
    @pytest.mark.parametrize("jaccard", [False, True])
    def test_overlay_series(self, jaccard):
        assert_case(f"overlay/fixture/{'jaccard' if jaccard else 'overlap'}")


class TestAnalysisEquivalence:
    def test_clustering_correlation(self):
        assert_case("clustering/fixture/compiled")
        assert_case("clustering/fixture/cache-map")

    def test_overlap_evolution(self, small_temporal_trace, tmp_path):
        from repro.trace.io import trace_to_store
        from tests.golden.cases import assert_day_case

        with trace_to_store(small_temporal_trace, tmp_path / "store") as store:
            assert_day_case(
                "overlap-evolution/fixture/seed6", small_temporal_trace, store
            )
