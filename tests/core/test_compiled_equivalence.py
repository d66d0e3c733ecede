"""Seeded equivalence between the compiled engines and the frozen
string-keyed reference engines.

The string-keyed engines were deleted once their seeded outputs were
recorded as digests in ``tests/golden/engines.json`` (the recorder
refused to write unless both engines agreed on every case).  These
tests pin the surviving engine of every layer — the search simulator
(all strategies, two-hop, availability, probe loss), request
generation, randomization, the two unstructured baselines, the semantic
overlay and the clustering analyses — to those digests: identical RNG
draw order, identical results.  Request streams must also survive
mid-stream pickling, which is what a checkpoint does to a live stream.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.requests import iter_requests_compiled
from repro.util.rng import RngStream
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

    def test_availability_loss_and_load(self):
        assert_case("search/fixture/availability-loss/uniform")


class TestRequestEquivalence:
    def test_streams_are_byte_identical(self):
        assert_case("requests/fixture/uniform")

    def test_pickled_mid_stream_resumes_exactly(self, small_static_trace):
        compiled = small_static_trace.compiled()

        def stream():
            return iter_requests_compiled(compiled, RngStream(7, "req"))

        reference = list(stream())
        for cut in (1, 17, len(reference) // 2, len(reference) - 1):
            interrupted = stream()
            head = [next(interrupted) for _ in range(cut)]
            resumed = pickle.loads(pickle.dumps(interrupted))
            tail = list(resumed)
            assert head + tail == reference, f"diverged after cut={cut}"


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


class TestOverlayEquivalence:
    def test_overlay_series(self):
        assert_case("overlay/fixture/overlap")


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


def test_import_does_not_pull_numpy():
    """Drawing requests and searching must not tax a process with numpy.

    Draining a request stream and running a one-hop and a two-hop
    search on a hand-built trace must leave numpy unimported.
    """
    script = (
        "import sys\n"
        "from repro.core.requests import iter_requests_compiled\n"
        "from repro.core.search import SearchConfig, simulate_search\n"
        "from repro.trace.model import StaticTrace\n"
        "from repro.util.rng import RngStream\n"
        "caches = {\n"
        "    f'c{i:02d}': frozenset(f'f{(i * k) % 40:02d}' for k in range(1, 6))\n"
        "    for i in range(30)\n"
        "}\n"
        "trace = StaticTrace(caches=caches)\n"
        "compiled = trace.compiled()\n"
        "events = list(iter_requests_compiled(compiled, RngStream(3, 'req')))\n"
        "assert len(events) == trace.total_replicas()\n"
        "for two_hop in (False, True):\n"
        "    result = simulate_search(\n"
        "        trace, SearchConfig(list_size=3, two_hop=two_hop, seed=3)\n"
        "    )\n"
        "    assert result.rates.requests > 0, two_hop\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by a draw'\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
    )
