"""An append-only, memory-mapped columnar trace store (``repro.tracestore/1``).

Whole-file JSONL traces (:mod:`repro.trace.io`) load everything into RAM,
capping both the number of days and the number of clients an analysis can
handle.  The paper's trace spans 56 days of ~1.16M clients; the "Ten weeks
in the life of an eDonkey server" capture is longer still.  This module
stores a trace *out of core*: one binary **segment per day**, holding the
day's snapshots as sorted interned int columns in the same CSR layout
:class:`~repro.trace.compiled.CompiledTrace` uses, so a day can be mapped
straight into the analysis kernels without parsing, string hashing, or
holding any other day in memory.

Layout of a store directory::

    manifest.json     # repro.tracestore/1: counts, byte offsets, sha256s
    files.jsonl       # one metadata record per interned file id (idx = line)
    clients.jsonl     # one metadata record per interned client id (row = line)
    day-00000012.seg  # one segment per day (see segment layout below)

Segment layout (all little-endian)::

    header   magic b"RTS1" | u32 version | i64 day | u64 n_clients | u64 n_replicas
    rows     n_clients x i32     global client rows, strictly ascending
    pad      zero bytes to the next 8-byte boundary
    offsets  (n_clients+1) x i64 CSR offsets into the files column
    files    n_replicas x i32    global file indices, ascending per client

Integrity model: every segment and both metadata tables carry a sha256 in
the manifest; the manifest itself is rewritten atomically (temp file +
rename) *after* the data it describes, so a crash mid-append leaves the
previous manifest describing intact data.  Metadata tables are append-only;
the manifest records their exact byte length, and the writer truncates any
torn tail beyond it before appending again.  ``verify_store`` re-hashes
everything and checks the structural invariants (monotone offsets, sorted
columns, in-range indices, count consistency).

Interning: file and client ids are assigned dense int indices in the order
they are first appended, sorted *within* each append batch.  A one-shot
conversion of a complete trace therefore interns in globally sorted order
(``sorted_intern`` true in the manifest); a crawler appending day by day
interns in sorted-discovery order.  Either way the mapping is recorded in
``files.jsonl``/``clients.jsonl`` and is deterministic for a given input.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
from array import array
from collections import Counter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.trace.model import (
    ClientId,
    ClientMeta,
    FileId,
    FileMeta,
    Snapshot,
    Trace,
    from_record,
    to_record,
)
from repro.util.atomic import atomic_replace, atomic_write_text

PathLike = Union[str, "os.PathLike[str]"]

FORMAT = "repro.tracestore/1"
MANIFEST_NAME = "manifest.json"
FILES_NAME = "files.jsonl"
CLIENTS_NAME = "clients.jsonl"

SEGMENT_MAGIC = b"RTS1"
SEGMENT_VERSION = 1
_HEADER = struct.Struct("<4sIqQQ")  # magic, version, day, n_clients, n_replicas


class TraceStoreError(ValueError):
    """A malformed, corrupt, or inconsistent trace store."""


def _sha256_file(path: str, limit: Optional[int] = None) -> str:
    digest = hashlib.sha256()
    remaining = limit
    with open(path, "rb") as fh:
        while True:
            want = 1 << 20 if remaining is None else min(1 << 20, remaining)
            if want == 0:
                break
            chunk = fh.read(want)
            if not chunk:
                break
            digest.update(chunk)
            if remaining is not None:
                remaining -= len(chunk)
    return digest.hexdigest()


def _segment_name(day: int) -> str:
    if day < 0:
        raise TraceStoreError(f"segment days must be >= 0, got {day}")
    return f"day-{day:08d}.seg"


def _pad_to_8(n: int) -> int:
    return (-n) % 8


# ----------------------------------------------------------------------
# Writer


class TraceStoreWriter:
    """Appends day segments (and their metadata) to a store directory.

    Open with :meth:`create` for a fresh store or :meth:`open` to extend an
    existing one (the crawler's incremental path — a resumed crawl reopens
    the same directory and keeps appending).  Re-appending a day that is
    already stored *replaces* its segment, which makes the append idempotent
    across a crash-and-resume replay of the same deterministic day.
    """

    def __init__(self, path: PathLike, manifest: dict) -> None:
        self.path = os.fspath(path)
        self._manifest = manifest
        self._file_index: Dict[FileId, int] = {}
        self._client_row: Dict[ClientId, int] = {}
        self._max_file_id: Optional[FileId] = None
        self._load_intern_tables()
        if self._file_index:
            self._max_file_id = max(self._file_index)

    # -- opening ---------------------------------------------------------

    @classmethod
    def create(cls, path: PathLike) -> "TraceStoreWriter":
        """Initialize ``path`` as an empty store (directory may exist but
        must not already hold a manifest)."""
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            raise TraceStoreError(f"store already exists at {path}")
        manifest = {
            "format": FORMAT,
            "files": 0,
            "clients": 0,
            "snapshots": 0,
            "files_bytes": 0,
            "clients_bytes": 0,
            "files_sha256": hashlib.sha256().hexdigest(),
            "clients_sha256": hashlib.sha256().hexdigest(),
            "sorted_intern": True,
            "segments": [],
        }
        for name in (FILES_NAME, CLIENTS_NAME):
            with open(os.path.join(path, name), "ab"):
                pass
        writer = cls(path, manifest)
        writer._write_manifest()
        return writer

    @classmethod
    def open(cls, path: PathLike, create: bool = False) -> "TraceStoreWriter":
        """Open an existing store for appending (``create=True`` makes a
        fresh one when the directory holds no manifest yet)."""
        path = os.fspath(path)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            if create:
                return cls.create(path)
            raise TraceStoreError(f"no trace store at {path}")
        manifest = _load_manifest(path)
        writer = cls(path, manifest)
        writer._truncate_torn_tails()
        return writer

    # -- interning ---------------------------------------------------------

    def _load_intern_tables(self) -> None:
        for name, index, count, byte_limit in (
            (
                FILES_NAME,
                self._file_index,
                self._manifest["files"],
                self._manifest["files_bytes"],
            ),
            (
                CLIENTS_NAME,
                self._client_row,
                self._manifest["clients"],
                self._manifest["clients_bytes"],
            ),
        ):
            table_path = os.path.join(self.path, name)
            if not os.path.exists(table_path):
                continue
            # Byte-limited binary read: bytes past the manifest's recorded
            # length are a torn tail from a crash, not data.
            with open(table_path, "rb") as fh:
                text = fh.read(byte_limit).decode("utf-8")
            lines = [l for l in text.splitlines() if l]
            if len(lines) != count:
                raise TraceStoreError(
                    f"{name} holds {len(lines)} records, manifest says {count}"
                )
            for lineno, line in enumerate(lines):
                index[json.loads(line)["id"]] = lineno

    def _truncate_torn_tails(self) -> None:
        """Drop metadata bytes past the manifest's recorded length (a crash
        between a table append and the manifest rewrite leaves them)."""
        for name, recorded in (
            (FILES_NAME, self._manifest["files_bytes"]),
            (CLIENTS_NAME, self._manifest["clients_bytes"]),
        ):
            table_path = os.path.join(self.path, name)
            if os.path.getsize(table_path) > recorded:
                with open(table_path, "ab") as fh:
                    fh.truncate(recorded)

    def register_files(self, metas: Iterable[FileMeta]) -> None:
        """Intern the given files (sorted by id) before any day references
        them.  The one-shot converter uses this to get a globally sorted
        intern table; ids already interned are skipped."""
        fresh = sorted(
            (m for m in metas if m.file_id not in self._file_index),
            key=lambda m: m.file_id,
        )
        if not fresh:
            return
        if self._max_file_id is not None and fresh[0].file_id < self._max_file_id:
            # A fresh id sorts before an interned one: the global intern
            # order is no longer the sorted string order.
            self._manifest["sorted_intern"] = False
        self._append_table(FILES_NAME, "files", fresh)
        for meta in fresh:
            self._file_index[meta.file_id] = len(self._file_index)
        last = fresh[-1].file_id
        if self._max_file_id is None or last > self._max_file_id:
            self._max_file_id = last

    def register_clients(self, metas: Iterable[ClientMeta]) -> None:
        """Intern the given clients (sorted by id); already-known ids are
        skipped."""
        fresh = sorted(
            (m for m in metas if m.client_id not in self._client_row),
            key=lambda m: m.client_id,
        )
        if not fresh:
            return
        self._append_table(CLIENTS_NAME, "clients", fresh)
        for meta in fresh:
            self._client_row[meta.client_id] = len(self._client_row)

    def _append_table(self, name, count_key, metas) -> None:
        table_path = os.path.join(self.path, name)
        with open(table_path, "a", encoding="utf-8") as fh:
            for meta in metas:
                fh.write(json.dumps(to_record(meta)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._manifest[count_key] = self._manifest[count_key] + len(metas)
        self._manifest[f"{count_key}_bytes"] = os.path.getsize(table_path)
        self._manifest[f"{count_key}_sha256"] = _sha256_file(table_path)

    # -- appending ---------------------------------------------------------

    def append_day(
        self,
        day: int,
        caches: Mapping[ClientId, Iterable[FileId]],
        files: Optional[Mapping[FileId, FileMeta]] = None,
        clients: Optional[Mapping[ClientId, ClientMeta]] = None,
    ) -> None:
        """Write ``day``'s snapshots as one segment.

        ``files``/``clients`` supply metadata for ids not interned yet (a
        superset is fine — only fresh ids are consulted).  New ids are
        interned in sorted order within this batch.  Re-appending an
        existing day replaces its segment.
        """
        new_files: Dict[FileId, FileMeta] = {}
        new_clients: List[ClientMeta] = []
        for client_id, cache in caches.items():
            if client_id not in self._client_row:
                if clients is None or client_id not in clients:
                    raise TraceStoreError(
                        f"day {day} snapshots reference unknown client "
                        f"{client_id} and no metadata was supplied"
                    )
                new_clients.append(clients[client_id])
            for fid in cache:
                if fid not in self._file_index and fid not in new_files:
                    if files is None or fid not in files:
                        raise TraceStoreError(
                            f"day {day} snapshots reference unknown file "
                            f"{fid!r} and no metadata was supplied"
                        )
                    new_files[fid] = files[fid]
        self.register_files(new_files.values())
        self.register_clients(new_clients)

        rows = sorted(self._client_row[c] for c in caches)
        row_to_client = {self._client_row[c]: c for c in caches}
        offsets = array("q", [0])
        files_col = array("i")
        for row in rows:
            column = sorted(
                self._file_index[f] for f in caches[row_to_client[row]]
            )
            files_col.extend(column)
            offsets.append(len(files_col))
        rows_col = array("i", rows)

        name = _segment_name(day)
        segment_path = os.path.join(self.path, name)
        header = _HEADER.pack(
            SEGMENT_MAGIC, SEGMENT_VERSION, day, len(rows), len(files_col)
        )
        pad = b"\x00" * _pad_to_8(_HEADER.size + 4 * len(rows))
        with atomic_replace(segment_path) as tmp:
            with open(tmp, "wb") as fh:
                fh.write(header)
                rows_col.tofile(fh)
                fh.write(pad)
                offsets.tofile(fh)
                files_col.tofile(fh)

        entry = {
            "day": day,
            "path": name,
            "sha256": _sha256_file(segment_path),
            "clients": len(rows),
            "replicas": len(files_col),
        }
        segments = [s for s in self._manifest["segments"] if s["day"] != day]
        segments.append(entry)
        segments.sort(key=lambda s: s["day"])
        self._manifest["segments"] = segments
        self._manifest["snapshots"] = sum(s["clients"] for s in segments)
        self._write_manifest()

    def append_trace(self, trace: Trace) -> None:
        """Append every day of an in-memory trace (the converter path).

        All file and client metadata is interned up front in sorted order,
        so the resulting store has a globally sorted (monotone) intern
        table — the layout under which day columns sort identically to
        their string counterparts.
        """
        self.register_files(trace.files.values())
        self.register_clients(trace.clients.values())
        for day, snapshots in trace.iter_day_snapshots():
            self.append_day(day, snapshots)

    def _write_manifest(self) -> None:
        atomic_write_text(
            os.path.join(self.path, MANIFEST_NAME),
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n",
        )

    def close(self) -> None:
        """Persist the manifest.

        ``append_day`` already rewrites it after every segment; this covers
        metadata registered *without* a following day (e.g. a metadata-only
        trace), which would otherwise never reach the on-disk manifest.
        """
        self._write_manifest()

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _load_manifest(path: str) -> dict:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise TraceStoreError(f"cannot read store manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceStoreError(f"corrupt store manifest: {exc}") from exc
    if manifest.get("format") != FORMAT:
        raise TraceStoreError(
            f"unsupported store format {manifest.get('format')!r} "
            f"(expected {FORMAT!r})"
        )
    return manifest


# ----------------------------------------------------------------------
# Reader


class DaySegment:
    """One day's snapshots, memory-mapped: CSR int columns over the store's
    global intern tables.  Column accessors return memoryview slices of the
    mapping — no copies."""

    __slots__ = ("day", "n_clients", "n_replicas", "rows", "offsets", "files", "_mmap")

    def __init__(self, path: str, expected_day: int) -> None:
        with open(path, "rb") as fh:
            if os.path.getsize(path) < _HEADER.size:
                raise TraceStoreError(f"segment {path} is shorter than its header")
            self._mmap = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        magic, version, day, n_clients, n_replicas = _HEADER.unpack_from(
            self._mmap, 0
        )
        if magic != SEGMENT_MAGIC:
            raise TraceStoreError(f"segment {path} has bad magic {magic!r}")
        if version != SEGMENT_VERSION:
            raise TraceStoreError(
                f"segment {path} has unsupported version {version}"
            )
        if day != expected_day:
            raise TraceStoreError(
                f"segment {path} holds day {day}, manifest says {expected_day}"
            )
        self.day = day
        self.n_clients = n_clients
        self.n_replicas = n_replicas
        view = memoryview(self._mmap)
        rows_start = _HEADER.size
        rows_end = rows_start + 4 * n_clients
        offsets_start = rows_end + _pad_to_8(rows_end)
        offsets_end = offsets_start + 8 * (n_clients + 1)
        files_end = offsets_end + 4 * n_replicas
        if len(view) < files_end:
            raise TraceStoreError(f"segment {path} is truncated")
        self.rows = view[rows_start:rows_end].cast("i")
        self.offsets = view[offsets_start:offsets_end].cast("q")
        self.files = view[offsets_end:files_end].cast("i")

    def cache_column(self, j: int) -> memoryview:
        """Client ``j``'s (0-based position within this day) sorted global
        file indices."""
        return self.files[self.offsets[j] : self.offsets[j + 1]]

    def replica_counts(self) -> Counter:
        """Counter global file idx -> sources on this day."""
        return Counter(self.files)

    def close(self) -> None:
        self.rows = self.offsets = self.files = None  # release exported views
        try:
            self._mmap.close()
        except BufferError:  # a caller still holds a column slice
            pass


class TraceStore:
    """Read-only view of a store directory; day segments are mmapped on
    demand and never held beyond what the caller keeps alive."""

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        self.manifest = _load_manifest(self.path)
        self._file_ids: Optional[Tuple[FileId, ...]] = None
        self._client_ids: Optional[Tuple[ClientId, ...]] = None
        self._file_metas: Optional[Dict[FileId, FileMeta]] = None
        self._client_metas: Optional[Dict[ClientId, ClientMeta]] = None
        self._segments: Dict[int, DaySegment] = {}
        self._segment_entries = {s["day"]: s for s in self.manifest["segments"]}

    # -- sizes -------------------------------------------------------------

    @property
    def num_files(self) -> int:
        return self.manifest["files"]

    @property
    def num_clients(self) -> int:
        return self.manifest["clients"]

    @property
    def num_snapshots(self) -> int:
        return self.manifest["snapshots"]

    def days(self) -> List[int]:
        return [s["day"] for s in self.manifest["segments"]]

    # -- intern tables (loaded lazily, once) --------------------------------

    def _read_table(self, name: str, count: int, byte_limit: int) -> List[str]:
        # Byte-limited binary read: bytes past the manifest's recorded
        # length are a torn tail from a crash, not data.
        with open(os.path.join(self.path, name), "rb") as fh:
            text = fh.read(byte_limit).decode("utf-8")
        lines = [line for line in text.splitlines() if line]
        if len(lines) != count:
            raise TraceStoreError(
                f"{name} holds {len(lines)} records, manifest says {count}"
            )
        return lines

    @property
    def file_ids(self) -> Tuple[FileId, ...]:
        # Ids only: analyses translating int columns back to string ids
        # (every day-source view) should not pay for a FileMeta object
        # per file; full metadata parses lazily in :attr:`file_metas`.
        if self._file_ids is None:
            lines = self._read_table(
                FILES_NAME, self.num_files, self.manifest["files_bytes"]
            )
            self._file_ids = tuple(json.loads(line)["id"] for line in lines)
        return self._file_ids

    @property
    def file_metas(self) -> Dict[FileId, FileMeta]:
        if self._file_metas is None:
            lines = self._read_table(
                FILES_NAME, self.num_files, self.manifest["files_bytes"]
            )
            metas = [from_record(FileMeta, json.loads(line)) for line in lines]
            self._file_metas = {m.file_id: m for m in metas}
        return self._file_metas

    @property
    def client_ids(self) -> Tuple[ClientId, ...]:
        if self._client_ids is None:
            lines = self._read_table(
                CLIENTS_NAME, self.num_clients, self.manifest["clients_bytes"]
            )
            self._client_ids = tuple(json.loads(line)["id"] for line in lines)
        return self._client_ids

    @property
    def client_metas(self) -> Dict[ClientId, ClientMeta]:
        if self._client_metas is None:
            lines = self._read_table(
                CLIENTS_NAME, self.num_clients, self.manifest["clients_bytes"]
            )
            metas = [from_record(ClientMeta, json.loads(line)) for line in lines]
            self._client_metas = {m.client_id: m for m in metas}
        return self._client_metas

    # -- segments ------------------------------------------------------------

    def segment(self, day: int) -> DaySegment:
        seg = self._segments.get(day)
        if seg is None:
            entry = self._segment_entries.get(day)
            if entry is None:
                raise KeyError(f"store has no day {day}")
            seg = DaySegment(os.path.join(self.path, entry["path"]), day)
            self._segments[day] = seg
        return seg

    def release_day(self, day: int) -> None:
        """Unmap a day's segment (day-at-a-time passes call this as the
        window slides, keeping the mapped set to the current day)."""
        seg = self._segments.pop(day, None)
        if seg is not None:
            seg.close()

    def iter_days(self) -> Iterator[Tuple[int, DaySegment]]:
        """Iterate (day, segment), releasing each mapping as the iteration
        moves on — the constant-day-window contract."""
        for day in self.days():
            yield day, self.segment(day)
            self.release_day(day)

    # -- boundary views --------------------------------------------------------
    #
    # ``snapshots_on`` and ``replica_counts`` are the store's side of the
    # day-source protocol (:class:`~repro.trace.model.DaySource`): like
    # the ``Trace`` methods they return copies, empty for an absent day,
    # and they unmap the day's segment again unless the caller had it
    # mapped already, so a day-outer analysis keeps one day mapped.

    @contextlib.contextmanager
    def _day(self, day: int) -> Iterator[DaySegment]:
        mapped = day in self._segments
        try:
            yield self.segment(day)
        finally:
            if not mapped:
                self.release_day(day)

    def snapshots_on(self, day: int) -> Dict[ClientId, FrozenSet[FileId]]:
        """Client -> frozenset of file-id strings for ``day`` (the exact
        shape :meth:`Trace.snapshots_on` returns)."""
        if day not in self._segment_entries:
            return {}
        ids = self.client_ids
        fids = self.file_ids
        with self._day(day) as seg:
            return {
                ids[seg.rows[j]]: frozenset(map(fids.__getitem__, seg.cache_column(j)))
                for j in range(seg.n_clients)
            }

    def replica_counts(self, day: int) -> Counter:
        """Counter file-id string -> sources on ``day`` (equals
        ``Trace.replica_counts(day)``)."""
        if day not in self._segment_entries:
            return Counter()
        fids = self.file_ids
        with self._day(day) as seg:
            return Counter({fids[i]: n for i, n in seg.replica_counts().items()})

    def to_trace(self) -> Trace:
        """The whole store as an in-memory :class:`Trace` (the inverse
        converter; needs whole-trace RAM, by definition)."""
        trace = Trace(files=self.file_metas, clients=self.client_metas)
        for day, _seg in self.iter_days():
            for client_id, cache in self.snapshots_on(day).items():
                trace.add_snapshot(Snapshot(day, client_id, cache))
        return trace

    def close(self) -> None:
        for day in list(self._segments):
            self.release_day(day)

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStore({self.path!r}, days={len(self._segment_entries)}, "
            f"clients={self.num_clients}, files={self.num_files}, "
            f"snapshots={self.num_snapshots})"
        )


def open_store(path: PathLike) -> TraceStore:
    """Open a ``repro.tracestore/1`` directory for reading."""
    return TraceStore(path)


# ----------------------------------------------------------------------
# Verification


def verify_store(path: PathLike) -> List[str]:
    """Full integrity check; returns a list of problems (empty = intact).

    Checks manifest shape, metadata-table hashes and counts, per-segment
    sha256s, header consistency, CSR structure (monotone offsets, strictly
    ascending rows, ascending per-cache columns, in-range indices), and the
    manifest's snapshot total.
    """
    path = os.fspath(path)
    problems: List[str] = []
    try:
        manifest = _load_manifest(path)
    except TraceStoreError as exc:
        return [str(exc)]

    for name, count_key in ((FILES_NAME, "files"), (CLIENTS_NAME, "clients")):
        table_path = os.path.join(path, name)
        recorded_bytes = manifest.get(f"{count_key}_bytes", 0)
        if not os.path.exists(table_path):
            problems.append(f"{name}: missing")
            continue
        if os.path.getsize(table_path) < recorded_bytes:
            problems.append(
                f"{name}: {os.path.getsize(table_path)} bytes on disk, "
                f"manifest records {recorded_bytes}"
            )
            continue
        actual = _sha256_file(table_path, limit=recorded_bytes)
        if actual != manifest.get(f"{count_key}_sha256"):
            problems.append(f"{name}: sha256 mismatch")
            continue
        with open(table_path, "rb") as fh:
            raw = fh.read(recorded_bytes).decode("utf-8")
        lines = [l for l in raw.splitlines() if l]
        if len(lines) != manifest.get(count_key):
            problems.append(
                f"{name}: {len(lines)} records, manifest says "
                f"{manifest.get(count_key)}"
            )

    total_snapshots = 0
    for entry in manifest.get("segments", []):
        day = entry.get("day")
        label = f"segment day {day}"
        segment_path = os.path.join(path, entry.get("path", ""))
        if not os.path.exists(segment_path):
            problems.append(f"{label}: file {entry.get('path')!r} missing")
            continue
        if _sha256_file(segment_path) != entry.get("sha256"):
            problems.append(f"{label}: sha256 mismatch")
            continue
        try:
            seg = DaySegment(segment_path, day)
        except TraceStoreError as exc:
            problems.append(f"{label}: {exc}")
            continue
        try:
            if seg.n_clients != entry.get("clients"):
                problems.append(
                    f"{label}: header says {seg.n_clients} clients, "
                    f"manifest says {entry.get('clients')}"
                )
            if seg.n_replicas != entry.get("replicas"):
                problems.append(
                    f"{label}: header says {seg.n_replicas} replicas, "
                    f"manifest says {entry.get('replicas')}"
                )
            problems.extend(
                f"{label}: {p}"
                for p in _verify_columns(
                    seg, manifest.get("clients", 0), manifest.get("files", 0)
                )
            )
            total_snapshots += seg.n_clients
        finally:
            seg.close()
    if not problems and total_snapshots != manifest.get("snapshots"):
        problems.append(
            f"manifest says {manifest.get('snapshots')} snapshots, segments "
            f"hold {total_snapshots}"
        )
    return problems


def _verify_columns(seg: DaySegment, n_clients: int, n_files: int) -> List[str]:
    problems: List[str] = []
    rows = seg.rows
    for j in range(len(rows)):
        if not 0 <= rows[j] < n_clients:
            problems.append(f"client row {rows[j]} out of range")
            break
        if j and rows[j] <= rows[j - 1]:
            problems.append("client rows not strictly ascending")
            break
    offsets = seg.offsets
    if offsets[0] != 0 or offsets[len(offsets) - 1] != seg.n_replicas:
        problems.append("CSR offsets do not span the files column")
    for j in range(1, len(offsets)):
        if offsets[j] < offsets[j - 1]:
            problems.append("CSR offsets not monotone")
            break
    files = seg.files
    for j in range(seg.n_clients):
        lo, hi = offsets[j], offsets[j + 1]
        prev = -1
        for k in range(lo, hi):
            idx = files[k]
            if not 0 <= idx < n_files:
                problems.append(f"file index {idx} out of range")
                return problems
            if idx <= prev:
                problems.append("cache column not strictly ascending")
                return problems
            prev = idx
    return problems
