"""Tests for the ed2k block-hashing scheme."""

import pytest

from repro.edonkey.hashing import (
    BLOCK_SIZE,
    block_hashes,
    ed2k_hash,
    num_blocks,
    root_hash,
)
from repro.edonkey.md4 import md4_digest


class TestNumBlocks:
    def test_small_file(self):
        assert num_blocks(1) == 1
        assert num_blocks(BLOCK_SIZE) == 1

    def test_multi_block(self):
        assert num_blocks(BLOCK_SIZE + 1) == 2
        assert num_blocks(3 * BLOCK_SIZE) == 3

    def test_empty(self):
        assert num_blocks(0) == 1

    def test_negative(self):
        with pytest.raises(ValueError):
            num_blocks(-1)

    def test_block_size_is_9_5_mb(self):
        assert BLOCK_SIZE == 9_728_000


class TestBlockHashes:
    def test_single_block(self):
        data = b"hello world"
        assert block_hashes(data) == [md4_digest(data)]

    def test_empty_data(self):
        assert block_hashes(b"") == [md4_digest(b"")]

    def test_multi_block_count(self):
        data = b"\x01" * (BLOCK_SIZE + 10)
        hashes = block_hashes(data)
        assert len(hashes) == 2
        assert hashes[0] == md4_digest(data[:BLOCK_SIZE])
        assert hashes[1] == md4_digest(data[BLOCK_SIZE:])


class TestRootHash:
    def test_single_block_identity(self):
        digest = md4_digest(b"x")
        assert root_hash([digest]) == digest

    def test_multi_block_combines(self):
        d1, d2 = md4_digest(b"a"), md4_digest(b"b")
        assert root_hash([d1, d2]) == md4_digest(d1 + d2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            root_hash([])

    def test_wrong_digest_length_rejected(self):
        with pytest.raises(ValueError):
            root_hash([b"too-short"])


class TestEd2kHash:
    def test_small_file_is_plain_md4(self):
        assert ed2k_hash(b"abc") == md4_digest(b"abc").hex()

    def test_order_sensitivity(self):
        data = b"\x01" * BLOCK_SIZE + b"\x02" * 100
        swapped = b"\x02" * 100 + b"\x01" * BLOCK_SIZE
        assert ed2k_hash(data) != ed2k_hash(swapped)
