"""The engines reproduce the frozen reference digests at Scale.TINY and
Scale.SMALL, three seeds each: search (every strategy, one-hop, two-hop
with and without load accounting, weighted requests, availability and
probe loss) and both request streams.

The fixture-trace cases are checked by the equivalence suites they came
from (``test_compiled_equivalence``, ``test_vectorized_equivalence``,
``tests/trace/test_compiled`` and ``test_streaming_equivalence``); this
module also checks that the golden file and the case table match.
"""

import pytest

from tests.golden.cases import CASES, DAY_CASES, SCALES, assert_case, golden

SCALE_CASES = sorted(
    name for name in CASES if name.split("/")[1] in SCALES
)


def test_golden_file_covers_exactly_the_cases():
    assert set(golden()) == set(CASES) | set(DAY_CASES)


@pytest.mark.parametrize("name", SCALE_CASES)
def test_scale_case(name):
    assert_case(name)
