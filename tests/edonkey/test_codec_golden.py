"""The codec and the keyword search reproduce the frozen digests in
``tests/golden/codec.json``: the same frame bytes and the same decoded
objects as the per-value codec walkers and the unmemoised search they
were recorded from (see ``tests/golden/codec_cases.py``)."""

from functools import lru_cache

import pytest

from tests.golden.codec_cases import cases, digests, golden


@lru_cache(maxsize=None)
def _cases():
    return cases()


def test_golden_file_covers_exactly_the_cases():
    assert set(golden()) == set(_cases())


@pytest.mark.parametrize("name", sorted(golden()))
def test_codec_digest(name):
    assert digests(_cases()[name]) == golden()[name]
