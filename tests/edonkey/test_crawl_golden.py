"""Seeded crawls reproduce the frozen digests in ``tests/golden/crawl.json``:
the same snapshots, crawler, message and fault counters, server indexes
and invariant reports as the remove-all-then-add-all re-publication they
were recorded from (see ``tests/golden/crawl_cases.py``)."""

import pytest

from tests.golden.crawl_cases import CASES, digests, golden


def test_golden_file_covers_exactly_the_cases():
    assert set(golden()) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_crawl_digest(name):
    assert digests(name) == golden()[name]
