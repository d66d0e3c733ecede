"""The eDonkey (ed2k) file hashing scheme.

Files are divided into 9.5 MB blocks (9,728,000 bytes); each block gets an
MD4 checksum, and the file identifier is the MD4 of the concatenation of all
partial checksums.  A single-block file's identifier is simply the MD4 of
its content (the historical ed2k convention: the root hash is only computed
when there is more than one block digest to combine).

Checksums let clients verify blocks independently, which is what enables
eDonkey's *partial sharing*: a file is shared as soon as one block has been
downloaded and verified.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.edonkey.md4 import MD4, md4_digest

#: 9.5 MB, the eDonkey block ("chunk") size.
BLOCK_SIZE = 9_728_000


def num_blocks(file_size: int) -> int:
    """Number of blocks for a file of ``file_size`` bytes (min 1)."""
    if file_size < 0:
        raise ValueError(f"file size must be >= 0, got {file_size}")
    if file_size == 0:
        return 1
    return (file_size + BLOCK_SIZE - 1) // BLOCK_SIZE


def block_hashes(data: bytes) -> List[bytes]:
    """MD4 digests of each 9.5 MB block of ``data``."""
    if len(data) == 0:
        return [md4_digest(b"")]
    return [
        md4_digest(data[offset : offset + BLOCK_SIZE])
        for offset in range(0, len(data), BLOCK_SIZE)
    ]


def root_hash(partials: Sequence[bytes]) -> bytes:
    """Combine partial block digests into the ed2k file identifier."""
    if not partials:
        raise ValueError("need at least one block digest")
    for digest in partials:
        if len(digest) != 16:
            raise ValueError("block digests must be 16 bytes (MD4)")
    if len(partials) == 1:
        return bytes(partials[0])
    combined = MD4()
    for digest in partials:
        combined.update(digest)
    return combined.digest()


def ed2k_hash(data: bytes) -> str:
    """The ed2k identifier (hex) of an in-memory file."""
    return root_hash(block_hashes(data)).hex()
