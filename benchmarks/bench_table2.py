"""Table 2: the top-5 autonomous systems.

Paper: AS3320 (Deutsche Telekom) 21% global / 75% national, AS3215
(France Telecom) 15%/51%, AS3352 (Telefonica) 8%/50%, AS12322 (Proxad)
7%/24%, AS1668 (AOL) 3%/60%; together the top five host 54% of clients.
"""

from benchmarks.conftest import record, run_once
from repro.experiments import Scale, run_table2
from repro.runtime import RunContext


def test_table2(benchmark):
    result = run_once(benchmark, run_table2, RunContext(scale=Scale.DEFAULT))
    record(result)
    assert abs(result.metric("as3320_global") - 0.21) < 0.04
    assert abs(result.metric("as3215_global") - 0.15) < 0.04
    assert abs(result.metric("top5_concentration") - 0.54) < 0.08
