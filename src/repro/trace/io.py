"""Trace serialization.

Traces are stored as gzip-compressed JSON-lines: one header record, then one
record per file, per client, and per snapshot.  The format is line-oriented
so that huge traces can be streamed without holding the JSON document in
memory, and self-describing so that files remain loadable as the model
evolves (unknown keys are ignored).

An :func:`anonymize` helper reproduces the paper's "fully anonymized version
of our trace": nicknames, IPs and UIDs are replaced by salted hashes while
preserving equality (two snapshots of the same client still match).
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
from typing import Dict, IO, Iterable, Iterator, Set, Union

from repro.trace.model import (
    ClientMeta,
    FileMeta,
    Snapshot,
    Trace,
    from_record,
    to_record,
)
from repro.util.atomic import atomic_replace

FORMAT_VERSION = 1

GZIP_MAGIC = b"\x1f\x8b"

PathLike = Union[str, "os.PathLike[str]"]

#: One parsed trace record: the header dict, or a model object.
Record = Union[dict, FileMeta, ClientMeta, Snapshot]


def _open_read(path: PathLike) -> IO[str]:
    """Open a trace for reading, sniffing the gzip magic bytes.

    The container format is decided by the file's first two bytes, not by
    its name: a gzip trace that lost its ``.gz`` suffix (or a plain one
    that gained it) still opens correctly instead of dying deep inside the
    JSON parser.
    """
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == GZIP_MAGIC:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` (gzip-compressed if it ends in ``.gz``).

    The write is atomic (temp file + rename): a crash mid-save leaves
    either the previous file or no file, never a truncated trace.
    """
    compress = str(path).endswith(".gz")
    with atomic_replace(path) as tmp:
        if compress:
            # mtime=0 and no embedded filename keep the gzip container
            # deterministic: two runs writing the same records produce
            # byte-identical files (the resume-equivalence contract).
            with open(tmp, "wb") as raw:
                with gzip.GzipFile(
                    filename="", mode="wb", fileobj=raw, mtime=0
                ) as gz:
                    with io.TextIOWrapper(gz, encoding="utf-8") as fh:
                        _write_records(trace, fh)
        else:
            with open(tmp, "w", encoding="utf-8") as fh:
                _write_records(trace, fh)


def dumps_trace(trace: Trace) -> str:
    """Serialize a trace to a JSONL string (mostly for tests)."""
    buf = io.StringIO()
    _write_records(trace, buf)
    return buf.getvalue()


def _write_records(trace: Trace, fh: IO[str]) -> None:
    header = {
        "type": "header",
        "version": FORMAT_VERSION,
        "clients": len(trace.clients),
        "files": len(trace.files),
        "snapshots": trace.num_snapshots,
    }
    fh.write(json.dumps(header) + "\n")
    for meta in trace.files.values():
        fh.write(json.dumps({"type": "file", **to_record(meta)}) + "\n")
    for meta in trace.clients.values():
        fh.write(json.dumps({"type": "client", **to_record(meta)}) + "\n")
    for snap in trace.iter_snapshots():
        fh.write(
            json.dumps(
                {
                    "type": "snapshot",
                    "day": snap.day,
                    "client": snap.client_id,
                    "files": sorted(snap.file_ids),
                }
            )
            + "\n"
        )


def load_trace(path: PathLike) -> Trace:
    """Load a trace written by :func:`save_trace`.

    Truncated or corrupt inputs raise ``ValueError``: the header's record
    counts are validated against what was actually read, so a file cut at
    a record boundary (plain or gzip) can no longer load silently as a
    smaller trace.
    """
    with contextlib.closing(_file_records(path)) as records:
        return _build_trace(records)


def loads_trace(text: str) -> Trace:
    """Parse a trace from a JSONL string (inverse of :func:`dumps_trace`)."""
    return _build_trace(_iter_records(text.splitlines()))


def _parse_header(record: dict) -> dict:
    if record.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {record.get('version')!r}"
        )
    return record


def _check_counts(header: dict, files: int, clients: int, snapshots: int) -> None:
    """Compare what the header declared against what the stream held.

    Headers written by :func:`save_trace` always carry the counts; hand-
    crafted headers without them skip the check (the stream is then taken
    at face value, as before).
    """
    for key, actual in (
        ("files", files),
        ("clients", clients),
        ("snapshots", snapshots),
    ):
        declared = header.get(key)
        if declared is not None and declared != actual:
            raise ValueError(
                f"truncated or corrupt trace: header declares {declared} "
                f"{key[:-1]} records, stream holds {actual}"
            )


def _iter_records(lines: Iterable[str]) -> Iterator[Record]:
    """Parse trace JSONL: the header dict first, then one model object
    (:class:`FileMeta`, :class:`ClientMeta` or :class:`Snapshot`) per
    record.  Raises ``ValueError`` on a missing, late or duplicate header
    and on an unknown record type."""
    header = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        rtype = record.get("type")
        if rtype == "header":
            if header is not None:
                raise ValueError(f"duplicate header record (line {lineno})")
            header = _parse_header(record)
            yield header
            continue
        if header is None:
            raise ValueError(
                f"{rtype!r} record before the header (line {lineno})"
            )
        if rtype == "file":
            yield from_record(FileMeta, record)
        elif rtype == "client":
            yield from_record(ClientMeta, record)
        elif rtype == "snapshot":
            yield Snapshot(
                day=record["day"],
                client_id=record["client"],
                file_ids=frozenset(record["files"]),
            )
        else:
            raise ValueError(f"unknown record type {rtype!r}")
    if header is None:
        raise ValueError("trace stream has no header record")


def _file_records(path: PathLike) -> Iterator[Record]:
    """:func:`_iter_records` over a saved trace file."""
    with _open_read(path) as fh:
        try:
            yield from _iter_records(fh)
        except EOFError as exc:
            # gzip raises EOFError when the compressed stream is cut off.
            raise ValueError(f"truncated gzip trace {path}: {exc}") from exc


def _build_trace(records: Iterator[Record]) -> Trace:
    header = next(records)
    trace = Trace()
    for record in records:
        if isinstance(record, FileMeta):
            trace.add_file(record)
        elif isinstance(record, ClientMeta):
            trace.add_client(record)
        else:
            trace.add_snapshot(record)
    _check_counts(header, len(trace.files), len(trace.clients), trace.num_snapshots)
    return trace


def _digest(salt: str, value: str) -> str:
    """Full salted sha256 hex digest (64 chars) of one identity token."""
    return hashlib.sha256(f"{salt}:{value}".encode("utf-8")).hexdigest()


def _collision_free_hashes(
    salt: str, namespace: str, values: Iterable[str], length: int
) -> Dict[str, str]:
    """Map every distinct value to a salted-hash prefix, guaranteed unique.

    Prefixes start at ``length`` hex chars; any prefix shared by two or
    more *distinct* values is deterministically widened (doubling, up to
    the full 64-char digest) until all colliding values separate.  Because
    outputs of different lengths can never be equal strings, widened
    hashes cannot collide with unwidened ones.  Two distinct values with
    identical full digests would be an sha256 collision; that raises.
    """
    digests = {v: _digest(salt, namespace + v) for v in set(values)}
    out: Dict[str, str] = {}
    pending = sorted(digests)
    width = length
    while pending:
        groups: Dict[str, list] = {}
        for value in pending:
            groups.setdefault(digests[value][:width], []).append(value)
        pending = []
        for prefix, members in groups.items():
            if len(members) == 1:
                out[members[0]] = prefix
            else:
                pending.extend(members)
        if pending:
            if width >= len(next(iter(digests.values()))):
                raise ValueError(
                    f"anonymize: irreconcilable hash collision among "
                    f"{namespace.rstrip(':')} tokens (full digests equal)"
                )
            width = min(width * 2, 64)
    return out


def anonymize(trace: Trace, salt: str = "repro") -> Trace:
    """Return a copy with IPs, UIDs and nicknames replaced by salted hashes.

    Country and AS labels are preserved (the paper's analyses need them);
    identity equality is preserved (same input IP -> same anonymized IP), so
    duplicate filtering behaves identically on the anonymized trace.  The
    converse also holds: *distinct* identities stay distinct — hash prefixes
    that collide are deterministically widened instead of silently merging
    two clients (which would corrupt duplicate filtering).
    """
    metas = trace.clients.values()
    uid_map = _collision_free_hashes(salt, "uid:", (m.uid for m in metas), 16)
    ip_map = _collision_free_hashes(salt, "ip:", (m.ip for m in metas), 16)
    nick_map = _collision_free_hashes(
        salt, "nick:", (m.nickname for m in metas), 8
    )
    anon_clients: Dict[int, ClientMeta] = {}
    for client_id, meta in trace.clients.items():
        anon_clients[client_id] = ClientMeta(
            client_id=client_id,
            uid=uid_map[meta.uid],
            ip=ip_map[meta.ip],
            country=meta.country,
            asn=meta.asn,
            nickname=nick_map[meta.nickname],
        )
    out = Trace(files=trace.files, clients=anon_clients)
    for snap in trace.iter_snapshots():
        out.add_snapshot(snap)
    return out


# ----------------------------------------------------------------------
# Conversion to and from the on-disk columnar store


def trace_to_store(trace: Trace, store_path: PathLike):
    """Convert an in-memory trace to a ``repro.tracestore/1`` directory.

    Metadata is interned up front in sorted order (a monotone intern
    table), then one segment is appended per day.  Returns the opened
    :class:`~repro.trace.store.TraceStore`.
    """
    from repro.trace.store import TraceStoreWriter, open_store

    writer = TraceStoreWriter.create(store_path)
    writer.append_trace(trace)
    writer.close()
    return open_store(store_path)


def convert_trace_file_to_store(path: PathLike, store_path: PathLike):
    """Convert a saved JSONL[.gz] trace file to an on-disk store.

    Streams day by day when the snapshots are day-grouped (which
    :func:`save_trace` guarantees), holding one day plus the metadata
    tables in memory; arbitrary record orders fall back to a whole-trace
    load.  Returns the opened store.
    """
    from repro.trace.store import TraceStoreWriter, open_store

    writer = TraceStoreWriter.create(store_path)
    files: Dict[str, FileMeta] = {}
    clients: Dict[int, ClientMeta] = {}
    day_caches: Dict[int, frozenset] = {}
    current_day = None
    done_days: Set[int] = set()
    counts = {"files": 0, "clients": 0, "snapshots": 0}
    streaming = True

    def flush_day() -> None:
        nonlocal current_day
        if current_day is None:
            return
        writer.append_day(current_day, day_caches, files=files, clients=clients)
        done_days.add(current_day)
        day_caches.clear()
        current_day = None

    with contextlib.closing(_file_records(path)) as records:
        header = next(records)
        for record in records:
            if isinstance(record, FileMeta):
                files[record.file_id] = record
                counts["files"] += 1
            elif isinstance(record, ClientMeta):
                clients[record.client_id] = record
                counts["clients"] += 1
            else:
                day = record.day
                if day in done_days:
                    streaming = False
                    break
                if current_day is None:
                    # Sorted metadata interning needs every id known
                    # before the first segment is cut.
                    writer.register_files(files.values())
                    writer.register_clients(clients.values())
                    current_day = day
                elif day != current_day:
                    flush_day()
                    current_day = day
                day_caches[record.client_id] = record.file_ids
                counts["snapshots"] += 1

    if not streaming:
        # Records were not day-grouped: redo the conversion from a full
        # in-memory load (correct for any order, at whole-trace RAM cost).
        import shutil

        shutil.rmtree(os.fspath(store_path))
        return trace_to_store(load_trace(path), store_path)
    if not done_days and current_day is None:
        # No snapshots at all: still record the metadata.
        writer.register_files(files.values())
        writer.register_clients(clients.values())
    flush_day()
    _check_counts(header, counts["files"], counts["clients"], counts["snapshots"])
    writer.close()
    return open_store(store_path)


def store_to_trace_file(store_path: PathLike, path: PathLike) -> None:
    """Convert an on-disk store back to a saved JSONL[.gz] trace file."""
    from repro.trace.store import open_store

    with open_store(store_path) as store:
        save_trace(store.to_trace(), path)
