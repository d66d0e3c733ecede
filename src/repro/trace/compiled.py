"""The compiled trace: an interned, columnar view of a static trace.

Every Section-5 simulation and Section-4 analysis hammers
:class:`~repro.trace.model.StaticTrace` — a dict of frozensets keyed by
*string* file ids — so the hottest paths (membership probes, sharer
lookups, replica counts, cache overlaps) pay string hashing and
pointer-chasing on every operation.  A :class:`CompiledTrace` is built
once from a static trace and gives the same information in a form the
hot loops can consume directly:

- **Intern tables**: every :data:`~repro.trace.model.FileId` string is
  interned to a dense ``FileIdx`` int.  Indices are assigned in sorted
  string order, so the mapping is *monotone*: ``sorted()`` over indices
  visits files in exactly the order ``sorted()`` over the original
  strings would.  That property is what keeps seeded consumers
  byte-identical — any code that sorts a cache before feeding it to an
  RNG draws in the same order on either representation.
- **Columnar caches**: per-client static caches are packed into one
  ``array('i')`` of sorted file indices plus an offsets array (CSR
  layout), with a per-client ``frozenset`` of ints for O(1) membership.
- **Inverted index**: per-file sharer arrays (client rows, ascending)
  and the static replica count of every file, precomputed.
- **Overlap kernel**: pairwise cache-overlap computation through
  C-level ``Counter`` accumulation over each file's sharer pairs —
  exactly the dict the pure-Python pair loop would produce.

Translation back to the public string ids happens at the boundary via
:meth:`CompiledTrace.file_id` / :meth:`CompiledTrace.to_file_ids`.

A compiled trace is built one way, :meth:`CompiledTrace.from_static`,
and pickles as a whole: that is how a spawned search worker receives it.

Invalidation: a compiled trace is a snapshot.  ``StaticTrace.compiled()``
memoizes it on the instance; every StaticTrace-producing operation
(``replace_caches``, ``without_clients``, ``without_files``,
``Trace.to_static`` — the only mutation paths in the library) returns a
*new* instance and therefore a fresh compilation.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.trace.model import ClientId, FileId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.model import StaticTrace

FileIdx = int


class CompiledTrace:
    """An immutable, interned, columnar snapshot of a static trace."""

    __slots__ = (
        "file_ids",
        "file_index",
        "client_ids",
        "client_row",
        "cache_offsets",
        "cache_files",
        "cache_sets",
        "sharer_offsets",
        "sharer_rows",
        "static_counts",
    )

    def __init__(
        self,
        file_ids: Sequence[FileId],
        client_ids: Sequence[ClientId],
        cache_columns: Sequence[Sequence[FileIdx]],
    ) -> None:
        self.file_ids: Tuple[FileId, ...] = tuple(file_ids)
        self.file_index: Dict[FileId, FileIdx] = {
            fid: i for i, fid in enumerate(self.file_ids)
        }
        self.client_ids: Tuple[ClientId, ...] = tuple(client_ids)
        self.client_row: Dict[ClientId, int] = {
            cid: r for r, cid in enumerate(self.client_ids)
        }
        if len(self.client_row) != len(self.client_ids):
            raise ValueError("duplicate client ids")

        offsets = array("q", [0])
        files = array("i")
        sets: List[FrozenSet[FileIdx]] = []
        for column in cache_columns:
            files.extend(column)
            offsets.append(len(files))
            sets.append(frozenset(column))
        if len(sets) != len(self.client_ids):
            raise ValueError("one cache column per client required")
        self.cache_offsets = offsets
        self.cache_files = files
        self.cache_sets: Tuple[FrozenSet[FileIdx], ...] = tuple(sets)
        self._build_inverted_index()

    def _build_inverted_index(self) -> None:
        # Inverted index: count, prefix-sum, fill — client rows ascending
        # because rows are visited in ascending order.
        m = len(self.file_ids)
        counts = array("i", bytes(4 * m)) if m else array("i")
        for idx in self.cache_files:
            counts[idx] += 1
        self.static_counts = counts
        sharer_offsets = array("q", [0] * (m + 1))
        acc = 0
        for i in range(m):
            sharer_offsets[i] = acc
            acc += counts[i]
        sharer_offsets[m] = acc
        fill = array("q", sharer_offsets)
        sharer_rows = array("i", bytes(4 * acc)) if acc else array("i")
        for row in range(len(self.client_ids)):
            for idx in self.cache_files[
                self.cache_offsets[row] : self.cache_offsets[row + 1]
            ]:
                sharer_rows[fill[idx]] = row
                fill[idx] += 1
        self.sharer_offsets = sharer_offsets
        self.sharer_rows = sharer_rows

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def from_static(cls, trace: "StaticTrace") -> "CompiledTrace":
        """Compile ``trace``.

        File indices are assigned in sorted string order (monotone
        intern); client rows keep the ``caches`` dict insertion order so
        consumers that iterate ``caches.items()`` see the same client
        sequence on either representation.
        """
        distinct: set = set()
        for cache in trace.caches.values():
            distinct.update(cache)
        file_ids = sorted(distinct)
        index = {fid: i for i, fid in enumerate(file_ids)}
        client_ids = list(trace.caches)
        columns = [
            sorted(index[fid] for fid in trace.caches[cid])
            for cid in client_ids
        ]
        return cls(file_ids, client_ids, columns)

    # ------------------------------------------------------------------
    # Sizes

    @property
    def num_clients(self) -> int:
        return len(self.client_ids)

    @property
    def num_files(self) -> int:
        return len(self.file_ids)

    @property
    def total_replicas(self) -> int:
        return len(self.cache_files)

    # ------------------------------------------------------------------
    # Intern / lookup boundary

    def file_idx(self, file_id: FileId) -> FileIdx:
        """Interned index of ``file_id`` (KeyError if unknown)."""
        return self.file_index[file_id]

    def file_id(self, idx: FileIdx) -> FileId:
        """Public string id of interned index ``idx``."""
        return self.file_ids[idx]

    def to_file_ids(self, idxs: Iterable[FileIdx]) -> List[FileId]:
        ids = self.file_ids
        return [ids[i] for i in idxs]

    # ------------------------------------------------------------------
    # Membership and columns

    def shares(self, client_id: ClientId, idx: FileIdx) -> bool:
        """O(1): does ``client_id``'s static cache contain file ``idx``?"""
        row = self.client_row.get(client_id)
        if row is None:
            return False
        return idx in self.cache_sets[row]

    def cache_column(self, client_id: ClientId) -> array:
        """The client's static cache as a sorted ``array('i')`` slice."""
        row = self.client_row[client_id]
        return self.cache_files[
            self.cache_offsets[row] : self.cache_offsets[row + 1]
        ]

    # ------------------------------------------------------------------
    # Inverted index

    def sharer_rows_of(self, idx: FileIdx) -> array:
        """Rows of the clients sharing file ``idx`` (ascending)."""
        return self.sharer_rows[
            self.sharer_offsets[idx] : self.sharer_offsets[idx + 1]
        ]

    def replica_counts(self) -> Counter:
        """Counter ``file_id -> replica count`` (string-keyed boundary)."""
        return Counter(
            {
                fid: count
                for fid, count in zip(self.file_ids, self.static_counts)
                if count
            }
        )

    # ------------------------------------------------------------------
    # Overlap kernels

    def overlap(self, a: ClientId, b: ClientId) -> int:
        """Number of common files between two clients' static caches."""
        sa = self.cache_sets[self.client_row[a]]
        sb = self.cache_sets[self.client_row[b]]
        return len(sa & sb)

    def pair_overlaps(
        self, file_mask: Optional[Sequence[bool]] = None
    ) -> Dict[Tuple[ClientId, ClientId], int]:
        """Common-file counts for every client pair with >= 1 common file.

        Exactly what the pure-Python inverted-index pair loop computes,
        via C-level ``Counter`` accumulation over ``combinations`` of
        each file's sorted sharers.  ``file_mask[idx]`` restricts the
        computation to the files where it is true.
        """
        ids = self.client_ids
        overlaps: Counter = Counter()
        for idx in range(self.num_files):
            if file_mask is not None and not file_mask[idx]:
                continue
            rows = self.sharer_rows_of(idx)
            if len(rows) < 2:
                continue
            sharers = sorted(ids[r] for r in rows)
            overlaps.update(combinations(sharers, 2))
        return dict(overlaps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTrace(clients={self.num_clients}, "
            f"files={self.num_files}, replicas={self.total_replicas})"
        )


class FileInterner:
    """A growing string-to-int intern table for ad-hoc cache maps.

    Consumers that operate on arbitrary cache maps rather than on a
    ``StaticTrace`` (the Vicinity overlay's proximity caches) use this to
    run their set arithmetic on ints.  Unlike :class:`CompiledTrace`,
    indices are assigned in first-seen order — these consumers only use
    intersection/union *sizes*, which are order-independent.
    """

    __slots__ = ("index", "ids")

    def __init__(self) -> None:
        self.index: Dict[FileId, int] = {}
        self.ids: List[FileId] = []

    def intern(self, file_id: FileId) -> int:
        idx = self.index.get(file_id)
        if idx is None:
            idx = len(self.ids)
            self.index[file_id] = idx
            self.ids.append(file_id)
        return idx

    def intern_set(self, file_ids: Iterable[FileId]) -> FrozenSet[int]:
        intern = self.intern
        return frozenset(intern(f) for f in file_ids)

    def intern_cache_map(
        self, caches: Mapping[ClientId, Iterable[FileId]]
    ) -> Dict[ClientId, FrozenSet[int]]:
        intern_set = self.intern_set
        return {cid: intern_set(cache) for cid, cache in caches.items()}

    def __len__(self) -> int:
        return len(self.ids)
