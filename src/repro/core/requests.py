"""Request-sequence generation (Section 5.1).

The simulation uses each peer's static cache content as the *potential set
of files it will request*.  Requests are generated by repeatedly picking a
random peer (among those with files left to request) and a random file from
its remaining set.  The first requester of a file is deemed its original
contributor (the file enters its cache without a simulated search); every
later request for the file is an actual search event.

The paper picks "at random a peer p and a file f in its set"; we implement
the literal uniform-peer reading by default and a replica-weighted variant
(peers picked proportionally to their remaining request count) behind a
flag, so the sensitivity of the results to this choice can be measured.

The sequence is drawn on :class:`~repro.trace.compiled.CompiledTrace`:
per-peer file lists are interned ints (the monotone intern makes the
sorted int lists correspond elementwise to the sorted string lists), each
event's peer is one ``randrange`` on the stream's own ``random.Random``,
and the replica-weighted variant picks peers through a Fenwick tree
(O(log n) per event instead of an O(n) scan).  Every draw equals the one
a per-event ``randrange`` over the string-keyed lists would make, so
seeded sequences match the digests pinned in ``tests/golden/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.trace.compiled import CompiledTrace, FileIdx
from repro.trace.model import ClientId, FileId, StaticTrace
from repro.util.rng import RngStream


@dataclass(frozen=True)
class Request:
    """One generated event: ``peer`` wants ``file_id``."""

    peer: ClientId
    file_id: FileId


class UniformRequestStream:
    """Uniform-peer request iterator over a compiled trace.

    Picklable mid-sequence: all mutable draw state (the shuffled per-peer
    lists, the compacting peer list and the RNG) lives in instance
    attributes, so a checkpoint taken between events resumes the sequence
    exactly where it stopped.  ``peers`` is compacted lazily: exhausted
    peers are swap-removed.
    """

    __slots__ = ("pending", "peers", "rng")

    def __init__(
        self,
        pending: Dict[ClientId, List[FileIdx]],
        peers: List[ClientId],
        rng: RngStream,
    ) -> None:
        self.pending = pending
        self.peers = peers
        self.rng = rng

    def __iter__(self) -> "UniformRequestStream":
        return self

    def __next__(self) -> Tuple[ClientId, FileIdx]:
        peers = self.peers
        if not peers:
            raise StopIteration
        idx = self.rng.py.randrange(len(peers))
        peer = peers[idx]
        files = self.pending[peer]
        file_idx = files.pop()
        if not files:
            peers[idx] = peers[-1]
            peers.pop()
            del self.pending[peer]
        return (peer, file_idx)


class WeightedRequestStream:
    """Replica-weighted request iterator (Fenwick-tree peer selection).

    One leaf per position in ``peers`` holding that peer's remaining
    request count; selection draws ``randrange(total)`` (the same single
    draw the linear scan makes) and descends the tree to the leaf whose
    cumulative range contains it.  Swap-removal of an exhausted peer
    moves the last live leaf's weight into the freed position and zeroes
    the tail, mirroring the list compaction.  ``n`` and the tree size
    stay fixed at the original peer count; only ``peers``/``sizes``
    shrink.  Picklable mid-sequence like its uniform sibling.
    """

    __slots__ = ("pending", "peers", "rng", "n", "sizes", "tree", "total", "top")

    def __init__(
        self,
        pending: Dict[ClientId, List[FileIdx]],
        peers: List[ClientId],
        rng: RngStream,
    ) -> None:
        self.pending = pending
        self.peers = peers
        self.rng = rng
        n = len(peers)
        self.n = n
        self.sizes = [len(pending[p]) for p in peers]
        tree = [0] * (n + 1)
        for i, s in enumerate(self.sizes):
            j = i + 1
            while j <= n:
                tree[j] += s
                j += j & -j
        self.tree = tree
        self.total = sum(self.sizes)
        self.top = 1 << (n.bit_length() - 1) if n else 0

    def _add(self, i: int, delta: int) -> None:
        i += 1
        n = self.n
        tree = self.tree
        while i <= n:
            tree[i] += delta
            i += i & -i

    def __iter__(self) -> "WeightedRequestStream":
        return self

    def __next__(self) -> Tuple[ClientId, FileIdx]:
        peers = self.peers
        if not peers:
            raise StopIteration
        n = self.n
        tree = self.tree
        rem = self.rng.py.randrange(self.total)
        pos = 0
        bit = self.top
        while bit:
            nxt = pos + bit
            if nxt <= n and tree[nxt] <= rem:
                pos = nxt
                rem -= tree[nxt]
            bit >>= 1
        idx = pos  # first position with cumulative size > drawn value
        peer = peers[idx]
        files = self.pending[peer]
        file_idx = files.pop()
        self._add(idx, -1)
        self.sizes[idx] -= 1
        self.total -= 1
        if not files:
            last = len(peers) - 1
            if idx != last:
                last_size = self.sizes[last]
                self._add(idx, last_size)
                self.sizes[idx] = last_size
                peers[idx] = peers[last]
                self._add(last, -last_size)
            peers.pop()
            self.sizes.pop()
            del self.pending[peer]
        return (peer, file_idx)


def iter_requests_compiled(
    compiled: CompiledTrace,
    rng: RngStream,
    weighted_by_cache: bool = False,
) -> Iterator[Tuple[ClientId, FileIdx]]:
    """The request sequence as ``(peer, file_idx)`` int tuples.

    This is the hot-path form: consumers that already run on the compiled
    representation (the search simulator) avoid the per-event string
    translation and :class:`Request` allocation.

    Returns a picklable stream object (:class:`UniformRequestStream` or
    :class:`WeightedRequestStream`); the per-peer shuffles happen here, at
    construction, so a stream pickled mid-sequence resumes exactly.  The
    shuffles and the per-event draws share ``rng.py``: all shuffles run
    before the first event is drawn.
    """
    pending: Dict[ClientId, List[FileIdx]] = {}
    offsets = compiled.cache_offsets
    columns = compiled.cache_files
    for row, peer in enumerate(compiled.client_ids):
        column = columns[offsets[row] : offsets[row + 1]]
        if len(column):
            files = list(column)  # sorted ascending == sorted string order
            rng.py.shuffle(files)
            pending[peer] = files

    peers: List[ClientId] = sorted(pending)
    if weighted_by_cache:
        return WeightedRequestStream(pending, peers, rng)
    return UniformRequestStream(pending, peers, rng)


def generate_requests(
    trace: StaticTrace,
    rng: RngStream,
    weighted_by_cache: bool = False,
) -> Iterator[Request]:
    """Yield the full request sequence for ``trace``.

    The sequence has exactly ``trace.total_replicas()`` events (every cached
    file of every peer is requested exactly once), in random order subject
    to the per-peer interleaving rule described above.

    ``weighted_by_cache=True`` picks peers proportionally to their number
    of remaining requests (the replica-uniform variant); the default picks
    uniformly among peers with remaining requests.
    """
    compiled = trace.compiled()
    file_ids = compiled.file_ids
    for peer, file_idx in iter_requests_compiled(compiled, rng, weighted_by_cache):
        yield Request(peer=peer, file_id=file_ids[file_idx])


def request_count(trace: StaticTrace) -> int:
    """Number of events :func:`generate_requests` will yield."""
    return trace.total_replicas()
