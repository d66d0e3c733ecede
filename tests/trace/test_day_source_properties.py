"""In-memory ≡ store, over generated traces.

Every day-indexed analysis runs once over the day-source protocol, so a
``Trace`` and the ``TraceStore`` converted from it must give equal
results — on any trace, not just the seeded fixtures.  The generated
traces are small and include empty caches, days on which every observed
cache is empty, absent days, and ties in replica counts.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.popularity import (
    file_spread,
    max_spread_fraction,
    rank_evolution,
    rank_replication,
    top_files_on,
)
from repro.analysis.semantic import overlap_evolution
from repro.trace.io import trace_to_store
from tests.conftest import build_trace
from tests.golden.cases import canonical

FILES = ["a", "b", "c", "d", "e"]

caches = st.frozensets(st.sampled_from(FILES), max_size=4)
# An empty day map is an absent day: no snapshot was taken.
day_maps = st.dictionaries(st.integers(0, 5), caches, max_size=5)
traces = st.dictionaries(st.integers(0, 6), day_maps, max_size=5).map(build_trace)


def outcome(fn, *args, **kwargs):
    """Canonical result, or the raised error (both sources must agree)."""
    try:
        return canonical(fn(*args, **kwargs))
    except ValueError as exc:
        return ("ValueError", str(exc))


def analyses(source, days):
    out = [
        outcome(max_spread_fraction, source),
        outcome(file_spread, source, file_ids=["a", "c", "zz"]),
        outcome(overlap_evolution, source, seed=1),
        outcome(overlap_evolution, source, max_pairs_per_level=2, seed=2),
    ]
    for day in days + [99]:
        out += [
            outcome(rank_replication, source, day),
            outcome(rank_replication, source, day, max_rank=2),
            outcome(top_files_on, source, day, 3),
            outcome(file_spread, source, reference_day=day, top_k=3),
            outcome(rank_evolution, source, day, top_k=3),
            outcome(overlap_evolution, source, first_day=day, overlap_levels=[1, 2]),
        ]
    return out


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trace=traces)
def test_trace_and_store_agree(trace):
    with tempfile.TemporaryDirectory() as tmp:
        with trace_to_store(trace, os.path.join(tmp, "store")) as store:
            assert store.days() == trace.days()
            assert analyses(store, store.days()) == analyses(trace, trace.days())
            # Day-outer passes leave no segment mapped behind them.
            assert not store._segments
