"""Core trace datatypes.

Terminology follows the paper:

- a **snapshot** is one successful browse of one client's shared-file cache
  on one day;
- a **free-rider** is a client whose cache was empty in every snapshot;
- a file's **sources** on a day are the clients whose snapshot that day
  contains the file;
- a client's **static cache** is the union of its caches over all days —
  Section 5 runs the search simulation on this static view.

Days are plain integers.  The paper numbers days within the measurement
period as day-of-year-like values (e.g. "day 348"); nothing in the library
depends on the origin, only on ordering.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.compiled import CompiledTrace

FileId = str
ClientId = int


@dataclass(frozen=True)
class FileMeta:
    """Metadata of a shared file.

    ``size`` is in bytes.  ``kind`` is a coarse content class used by the
    analyses that single out audio files (Figure 13); the synthetic workload
    uses ``audio``, ``video``, ``album``, ``program`` and ``document``.
    ``category`` is the interest category the file belongs to in the
    synthetic workload (``-1`` when unknown, e.g. for crawled traces).
    """

    file_id: FileId
    size: int
    kind: str = "unknown"
    category: int = -1
    name: str = ""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file size must be >= 0, got {self.size}")
        if not self.file_id:
            raise ValueError("file_id must be non-empty")


@dataclass(frozen=True)
class ClientMeta:
    """Metadata of a crawled client.

    ``uid`` is the eDonkey unique identifier (a hash in real clients);
    ``ip`` is dotted-quad text.  Clients that reinstall their software get a
    fresh ``uid``; clients on DHCP change ``ip`` — the filtering step uses
    both to discard ambiguous identities.
    """

    client_id: ClientId
    uid: str
    ip: str
    country: str
    asn: int
    nickname: str = ""

    def __post_init__(self) -> None:
        if not self.uid:
            raise ValueError("uid must be non-empty")
        if not self.country:
            raise ValueError("country must be non-empty")


def to_record(meta: FileMeta | ClientMeta) -> Dict[str, object]:
    """The JSON record of one file or client: a trace file's ``file`` and
    ``client`` lines (after their ``type`` key) and a trace store's
    ``files.jsonl``/``clients.jsonl`` lines.  Key order is part of both
    formats' bytes."""
    if isinstance(meta, FileMeta):
        return {
            "id": meta.file_id,
            "size": meta.size,
            "kind": meta.kind,
            "category": meta.category,
            "name": meta.name,
        }
    return {
        "id": meta.client_id,
        "uid": meta.uid,
        "ip": meta.ip,
        "country": meta.country,
        "asn": meta.asn,
        "nickname": meta.nickname,
    }


def from_record(cls, record: Mapping[str, object]) -> FileMeta | ClientMeta:
    """The inverse of :func:`to_record` for ``cls`` (:class:`FileMeta` or
    :class:`ClientMeta`); keys a record omits take the field defaults."""
    if cls is FileMeta:
        return FileMeta(
            file_id=record["id"],
            size=record["size"],
            kind=record.get("kind", "unknown"),
            category=record.get("category", -1),
            name=record.get("name", ""),
        )
    return ClientMeta(
        client_id=record["id"],
        uid=record["uid"],
        ip=record["ip"],
        country=record["country"],
        asn=record["asn"],
        nickname=record.get("nickname", ""),
    )


@dataclass(frozen=True)
class Snapshot:
    """One successful browse of one client's cache on one day."""

    day: int
    client_id: ClientId
    file_ids: FrozenSet[FileId]

    @property
    def empty(self) -> bool:
        return len(self.file_ids) == 0


class DaySource(Protocol):
    """What the day-indexed analyses read: a :class:`Trace` in memory or a
    :class:`~repro.trace.store.TraceStore` on disk.

    Each call returns fresh state for one day, so an analysis that loops
    over days on the outside holds one day at a time whichever source it
    is given.
    """

    def days(self) -> List[int]:
        """Sorted days having snapshots."""

    def replica_counts(self, day: int) -> Counter:
        """Counter file id -> number of sources on ``day``."""

    def snapshots_on(self, day: int) -> Dict[ClientId, FrozenSet[FileId]]:
        """Client -> cache observed on ``day``."""


class Trace:
    """A collection of daily cache snapshots plus file/client metadata.

    The structure is deliberately simple — nested dictionaries — with the
    derived indexes (file sources, free-rider sets) computed on demand and
    cached, and invalidated whenever a snapshot is added.

    Days with no snapshots simply do not appear in :meth:`days`.
    """

    def __init__(
        self,
        files: Optional[Mapping[FileId, FileMeta]] = None,
        clients: Optional[Mapping[ClientId, ClientMeta]] = None,
    ) -> None:
        self.files: Dict[FileId, FileMeta] = dict(files or {})
        self.clients: Dict[ClientId, ClientMeta] = dict(clients or {})
        # day -> client -> cache
        self._snapshots: Dict[int, Dict[ClientId, FrozenSet[FileId]]] = {}
        self._snapshot_count = 0
        self._dirty = True
        self._static_caches: Dict[ClientId, Set[FileId]] = {}
        self._observation_days: Dict[ClientId, List[int]] = {}
        # Memoized replica counts, invalidated on observe/add_snapshot.
        self._static_counts: Optional[Counter] = None
        self._day_counts: Dict[int, Counter] = {}

    # ------------------------------------------------------------------
    # Construction

    def add_file(self, meta: FileMeta) -> None:
        self.files[meta.file_id] = meta

    def add_client(self, meta: ClientMeta) -> None:
        self.clients[meta.client_id] = meta

    def add_snapshot(self, snapshot: Snapshot) -> None:
        """Record a snapshot.  Re-observing the same (day, client) replaces
        the earlier observation (the crawler connects repeatedly; the last
        browse of the day wins)."""
        if snapshot.client_id not in self.clients:
            raise KeyError(
                f"snapshot references unknown client {snapshot.client_id}"
            )
        day_map = self._snapshots.setdefault(snapshot.day, {})
        if snapshot.client_id not in day_map:
            self._snapshot_count += 1
        day_map[snapshot.client_id] = snapshot.file_ids
        self._dirty = True
        self._static_counts = None
        self._day_counts.pop(snapshot.day, None)

    def observe(self, day: int, client_id: ClientId, file_ids: Iterable[FileId]) -> None:
        """Convenience wrapper around :meth:`add_snapshot`."""
        self.add_snapshot(Snapshot(day, client_id, frozenset(file_ids)))

    def drop_day(self, day: int) -> None:
        """Discard a day's snapshots after they have been persisted.

        The streaming crawl appends each day to an on-disk store and then
        drops it, so resident memory is bounded by one day regardless of
        crawl length.  ``num_snapshots`` keeps counting dropped
        observations (it reports what was crawled, not what is resident);
        derived caches are invalidated because the in-memory view changed.
        """
        if self._snapshots.pop(day, None) is None:
            return
        self._dirty = True
        self._static_counts = None
        self._day_counts.pop(day, None)

    # ------------------------------------------------------------------
    # Basic accessors

    def days(self) -> List[int]:
        """Sorted list of days having at least one snapshot."""
        return sorted(self._snapshots)

    @property
    def num_snapshots(self) -> int:
        """Number of (day, client) observations recorded."""
        return self._snapshot_count

    def observed_clients(self, day: int) -> List[ClientId]:
        """Clients snapshotted on ``day`` (empty list if the day is absent)."""
        return list(self._snapshots.get(day, {}))

    def cache(self, client_id: ClientId, day: int) -> Optional[FrozenSet[FileId]]:
        """The cache observed for ``client_id`` on ``day``, or ``None`` if
        the client was not observed that day."""
        return self._snapshots.get(day, {}).get(client_id)

    def snapshots_on(self, day: int) -> Dict[ClientId, FrozenSet[FileId]]:
        """Mapping client -> cache for ``day`` (a shallow copy)."""
        return dict(self._snapshots.get(day, {}))

    def iter_snapshots(self) -> Iterator[Snapshot]:
        """Iterate over all snapshots in (day, client) order."""
        for day in self.days():
            day_map = self._snapshots[day]
            for client_id in sorted(day_map):
                yield Snapshot(day, client_id, day_map[client_id])

    def iter_day_snapshots(
        self,
    ) -> Iterator[Tuple[int, Mapping[ClientId, FrozenSet[FileId]]]]:
        """Iterate ``(day, {client -> cache})`` in day order, without
        copying the per-day maps — the unit of work for day-at-a-time
        consumers (the on-disk store converter streams over this)."""
        for day in self.days():
            yield day, self._snapshots[day]

    # ------------------------------------------------------------------
    # Derived indexes

    def _rebuild(self) -> None:
        if not self._dirty:
            return
        static: Dict[ClientId, Set[FileId]] = defaultdict(set)
        obs_days: Dict[ClientId, List[int]] = defaultdict(list)
        for day in self.days():
            for client_id, cache in self._snapshots[day].items():
                static[client_id].update(cache)
                obs_days[client_id].append(day)
        # Clients with metadata but no snapshots still get (empty) entries so
        # that free-rider accounting matches the number of known clients.
        for client_id in self.clients:
            static.setdefault(client_id, set())
            obs_days.setdefault(client_id, [])
        self._static_caches = dict(static)
        self._observation_days = {c: sorted(d) for c, d in obs_days.items()}
        self._dirty = False

    def static_cache(self, client_id: ClientId) -> Set[FileId]:
        """Union of the client's caches over all observation days."""
        self._rebuild()
        return set(self._static_caches.get(client_id, set()))

    def observation_days(self, client_id: ClientId) -> List[int]:
        """Sorted days on which ``client_id`` was successfully browsed."""
        self._rebuild()
        return list(self._observation_days.get(client_id, []))

    def is_free_rider(self, client_id: ClientId) -> bool:
        """True when every observed cache of the client was empty."""
        self._rebuild()
        return len(self._static_caches.get(client_id, set())) == 0

    def free_riders(self) -> Set[ClientId]:
        self._rebuild()
        return {c for c, cache in self._static_caches.items() if not cache}

    def distinct_files(self) -> Set[FileId]:
        """All file ids observed in any snapshot."""
        self._rebuild()
        out: Set[FileId] = set()
        for cache in self._static_caches.values():
            out.update(cache)
        return out

    def sources(self, file_id: FileId, day: int) -> List[ClientId]:
        """Clients sharing ``file_id`` on ``day``."""
        return [
            client_id
            for client_id, cache in self._snapshots.get(day, {}).items()
            if file_id in cache
        ]

    def replica_counts(self, day: int) -> Counter:
        """Counter file_id -> number of sources on ``day``.

        Memoized per day; re-observing a day drops that day's memo.  The
        returned Counter is a copy — callers may mutate it freely.
        """
        memo = self._day_counts.get(day)
        if memo is None:
            memo = Counter()
            for cache in self._snapshots.get(day, {}).values():
                memo.update(cache)
            self._day_counts[day] = memo
        return Counter(memo)

    def static_replica_counts(self) -> Counter:
        """Counter file_id -> number of distinct clients that ever shared it.

        Memoized; any new snapshot invalidates.  The returned Counter is
        a copy — callers may mutate it freely.
        """
        if self._static_counts is None:
            self._rebuild()
            counts: Counter = Counter()
            for cache in self._static_caches.values():
                counts.update(cache)
            self._static_counts = counts
        return Counter(self._static_counts)

    def file_observation_days(self) -> Dict[FileId, int]:
        """For each file, the number of distinct days it was seen on."""
        seen: Dict[FileId, Set[int]] = defaultdict(set)
        for day in self.days():
            for cache in self._snapshots[day].values():
                for fid in cache:
                    seen[fid].add(day)
        return {fid: len(days) for fid, days in seen.items()}

    def average_popularity(self) -> Dict[FileId, float]:
        """Section 4.1's *average popularity*: distinct sources of the file
        divided by the number of days the file was seen in the trace."""
        days_seen = self.file_observation_days()
        static_counts = self.static_replica_counts()
        return {
            fid: static_counts[fid] / days_seen[fid]
            for fid in days_seen
            if days_seen[fid] > 0
        }

    # ------------------------------------------------------------------
    # Conversions

    def to_static(self, drop_free_riders: bool = False) -> "StaticTrace":
        """Collapse the temporal dimension: each client's cache becomes the
        union over days.  This is the input to the Section 5 simulations."""
        self._rebuild()
        caches = {
            cid: frozenset(cache)
            for cid, cache in self._static_caches.items()
            if cache or not drop_free_riders
        }
        return StaticTrace(
            caches=caches,
            files=dict(self.files),
            clients=dict(self.clients),
        )

    def restricted_to_clients(self, client_ids: Iterable[ClientId]) -> "Trace":
        """A new trace containing only the given clients (metadata and
        snapshots); file metadata is shared."""
        wanted = set(client_ids)
        out = Trace(
            files=self.files,
            clients={c: m for c, m in self.clients.items() if c in wanted},
        )
        for day in self.days():
            for client_id, cache in self._snapshots[day].items():
                if client_id in wanted:
                    out.add_snapshot(Snapshot(day, client_id, cache))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(clients={len(self.clients)}, files={len(self.files)}, "
            f"days={len(self._snapshots)}, snapshots={self._snapshot_count})"
        )


@dataclass
class StaticTrace:
    """A time-collapsed trace: one cache per client.

    This is the unit of input for the semantic-search simulator, the
    randomization algorithm, and the static analyses.  ``caches`` maps every
    known client (including free-riders, unless dropped) to a frozen set of
    file ids.
    """

    caches: Dict[ClientId, FrozenSet[FileId]]
    files: Dict[FileId, FileMeta] = field(default_factory=dict)
    clients: Dict[ClientId, ClientMeta] = field(default_factory=dict)
    # Memoized derived views.  Every StaticTrace-producing operation in
    # the library returns a *new* instance, so these never go stale.
    _compiled: Optional["CompiledTrace"] = field(
        default=None, init=False, repr=False, compare=False
    )
    _replica_counts: Optional[Counter] = field(
        default=None, init=False, repr=False, compare=False
    )

    def compiled(self) -> "CompiledTrace":
        """The interned, columnar view of this trace (built once, cached).

        See :mod:`repro.trace.compiled` for the representation and the
        byte-identity guarantee.
        """
        if self._compiled is None:
            from repro.trace.compiled import CompiledTrace

            self._compiled = CompiledTrace.from_static(self)
        return self._compiled

    @property
    def num_clients(self) -> int:
        return len(self.caches)

    def non_free_riders(self) -> List[ClientId]:
        return [c for c, cache in self.caches.items() if cache]

    def free_riders(self) -> List[ClientId]:
        return [c for c, cache in self.caches.items() if not cache]

    def replica_counts(self) -> Counter:
        """Counter file_id -> replica count (memoized; returns a copy)."""
        if self._replica_counts is None:
            if self._compiled is not None:
                self._replica_counts = self._compiled.replica_counts()
            else:
                counts: Counter = Counter()
                for cache in self.caches.values():
                    counts.update(cache)
                self._replica_counts = counts
        return Counter(self._replica_counts)

    def total_replicas(self) -> int:
        return sum(len(cache) for cache in self.caches.values())

    def distinct_files(self) -> Set[FileId]:
        out: Set[FileId] = set()
        for cache in self.caches.values():
            out.update(cache)
        return out

    def generosity(self) -> Dict[ClientId, int]:
        """Number of files shared per client (the paper's *generosity*)."""
        return {c: len(cache) for c, cache in self.caches.items()}

    def without_clients(self, client_ids: Iterable[ClientId]) -> "StaticTrace":
        """A copy with the given clients removed entirely."""
        dropped = set(client_ids)
        return StaticTrace(
            caches={c: f for c, f in self.caches.items() if c not in dropped},
            files=self.files,
            clients={c: m for c, m in self.clients.items() if c not in dropped},
        )

    def without_files(self, file_ids: Iterable[FileId]) -> "StaticTrace":
        """A copy with the given files removed from every cache."""
        dropped = set(file_ids)
        return StaticTrace(
            caches={
                c: frozenset(f for f in cache if f not in dropped)
                for c, cache in self.caches.items()
            },
            files={f: m for f, m in self.files.items() if f not in dropped},
            clients=self.clients,
        )

    def replace_caches(
        self, caches: Mapping[ClientId, Iterable[FileId]]
    ) -> "StaticTrace":
        """A copy of this trace with caches replaced (metadata shared)."""
        return StaticTrace(
            caches={c: frozenset(f) for c, f in caches.items()},
            files=self.files,
            clients=self.clients,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticTrace(clients={self.num_clients}, "
            f"files={len(self.distinct_files())}, "
            f"replicas={self.total_replicas()})"
        )


def overlap(a: Iterable[FileId], b: FrozenSet[FileId]) -> int:
    """Number of common files between two caches."""
    a_set = a if isinstance(a, (set, frozenset)) else set(a)
    if len(a_set) > len(b):
        a_set, b = b, a_set  # type: ignore[assignment]
    return sum(1 for f in a_set if f in b)
