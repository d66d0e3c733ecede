"""The engines reproduce the frozen reference digests at Scale.TINY and
Scale.SMALL, three seeds each: search (every strategy, one-hop, two-hop
with load accounting, availability and probe loss) and the request
stream.  The same two-hop runs without load
accounting must equal the frozen ones in everything but their load.

The fixture-trace cases are checked by the equivalence suites they came
from (``test_compiled_equivalence``, ``test_vectorized_equivalence``,
``tests/trace/test_compiled`` and ``test_streaming_equivalence``); this
module also checks that the golden file and the case table match.
"""

import pytest

from repro.core.search import SearchConfig, simulate_search
from tests.golden.cases import (
    CASES,
    DAY_CASES,
    SCALES,
    SEEDS,
    STRATEGIES,
    assert_case,
    digest,
    golden,
    scale_static,
    search_payload,
)

SCALE_CASES = sorted(
    name for name in CASES if name.split("/")[1] in SCALES
)


def test_golden_file_covers_exactly_the_cases():
    assert set(golden()) == set(CASES) | set(DAY_CASES)


@pytest.mark.parametrize("name", SCALE_CASES)
def test_scale_case(name):
    assert_case(name)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", SCALES)
def test_two_hop_without_load_accounting(scale, seed, strategy):
    """Counting load never changes who answers: the frozen two-hop case
    run with ``track_load=False`` differs only in its empty load."""
    name = f"search/{scale}/seed{seed}/{strategy}/two-hop"
    counted = CASES[name].run()
    assert digest(counted) == golden()[name]
    uncounted = simulate_search(
        scale_static(scale, seed),
        SearchConfig(
            list_size=10, strategy=strategy, two_hop=True,
            track_load=False, seed=seed,
        ),
    )
    assert search_payload(uncounted) == {**counted, "load": {}}
