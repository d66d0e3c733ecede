"""Seeded workload generators reproduce the frozen digests in
``tests/golden/generator.json``: the same files, births, shocks,
profiles, static caches, temporal snapshots and network-path draws as
the numpy-table generator they were recorded from (see
``tests/golden/generator_cases.py``)."""

import pytest

from tests.golden.generator_cases import CASES, digests, golden


def test_golden_file_covers_exactly_the_cases():
    assert set(golden()) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_generator_digest(name):
    assert digests(name) == golden()[name]
