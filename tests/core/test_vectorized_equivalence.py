"""Seeded equivalence between the search engine and the scalar draws.

The request streams and the search simulator must not change a single
seeded draw.  These tests pin byte-identity at two
levels — the request streams and the full search simulator (all
strategies, two-hop, availability, probe loss) — plus mid-stream
pickling, which is what a checkpoint does to a live stream.  The scalar
engine the streams and the simulator were compared against is deleted;
its seeded outputs survive as the digests in
``tests/golden/engines.json``.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.requests import iter_requests_compiled
from repro.util.rng import RngStream
from tests.golden.cases import assert_case


class TestRequestStreamEquivalence:
    def test_streams_byte_identical(self):
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


class TestSearchEquivalence:
    @pytest.mark.parametrize(
        "strategy", ["lru", "history", "random", "popularity"]
    )
    @pytest.mark.parametrize("two_hop", [False, True])
    def test_all_strategies(self, strategy, two_hop):
        hops = "two" if two_hop else "one"
        assert_case(f"search/fixture/{strategy}/{hops}-hop")

    def test_availability_loss_and_load(self):
        assert_case("search/fixture/availability-loss/uniform")


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
