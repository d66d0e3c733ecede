"""Request-sequence generation (Section 5.1).

The simulation uses each peer's static cache content as the *potential set
of files it will request*.  Requests are generated by repeatedly picking a
random peer (among those with files left to request) and a random file from
its remaining set.  The first requester of a file is deemed its original
contributor (the file enters its cache without a simulated search); every
later request for the file is an actual search event.

The paper picks "at random a peer p and a file f in its set"; every peer
with files left to request is equally likely at each step.

The sequence is drawn on :class:`~repro.trace.compiled.CompiledTrace`:
per-peer file lists are interned ints (the monotone intern makes the
sorted int lists correspond elementwise to the sorted string lists) and
each event's peer is one ``randrange`` on the stream's own
``random.Random``.  Every draw equals the one a per-event ``randrange``
over the string-keyed lists would make, so seeded sequences match the
digests pinned in ``tests/golden/``.
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


def iter_requests_compiled(
    compiled: CompiledTrace, rng: RngStream
) -> Iterator[Tuple[ClientId, FileIdx]]:
    """The request sequence as ``(peer, file_idx)`` int tuples.

    This is the hot-path form: consumers that already run on the compiled
    representation (the search simulator) avoid the per-event string
    translation and :class:`Request` allocation.

    Returns a picklable :class:`UniformRequestStream`; the per-peer
    shuffles happen here, at construction, so a stream pickled
    mid-sequence resumes exactly.  The shuffles and the per-event draws
    share ``rng.py``: all shuffles run before the first event is drawn.
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

    return UniformRequestStream(pending, sorted(pending), rng)


def generate_requests(trace: StaticTrace, rng: RngStream) -> Iterator[Request]:
    """Yield the full request sequence for ``trace``.

    The sequence has exactly ``trace.total_replicas()`` events (every cached
    file of every peer is requested exactly once), in random order subject
    to the per-peer interleaving rule described above.
    """
    compiled = trace.compiled()
    file_ids = compiled.file_ids
    for peer, file_idx in iter_requests_compiled(compiled, rng):
        yield Request(peer=peer, file_id=file_ids[file_idx])


def request_count(trace: StaticTrace) -> int:
    """Number of events :func:`generate_requests` will yield."""
    return trace.total_replicas()
