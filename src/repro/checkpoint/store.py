"""Versioned, checksummed checkpoint files with atomic writes.

A checkpoint file (``repro.checkpoint/1``) is one JSON header line
followed by a pickle blob::

    {"schema": "repro.checkpoint/1", "kind": "crawl", "step": 12,
     "seed": 20060418, "code": "...", "payload_bytes": 123456,
     "payload_sha256": "...", "meta": {...}}\n
    <pickle bytes>

The header is self-describing and cheap to read (one line) — ``repro``
can list and inspect checkpoints without unpickling anything — and the
checksum makes truncation or corruption detectable before a single byte
is unpickled.  Writes go through
:func:`~repro.util.atomic.atomic_replace`, so a crash mid-save leaves
either the previous complete file or no file, never a torn one.

The payload is a pickle of live simulation objects (the crawler or the
search simulator, with their networks, traces and RNG streams).  That
couples checkpoints to the code that wrote them — which is exactly
right for crash/resume within one run.  The schema names the file
format; ``code`` (:func:`repro.code_identity`) names the code, and
:meth:`Checkpointer.load` refuses a file whose ``code`` is another or
missing, loudly and without falling back to older files: their objects
were laid out by that other code too.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.util.atomic import atomic_replace

CHECKPOINT_SCHEMA = "repro.checkpoint/1"

#: Pickle protocol pinned for reproducibility across interpreter minors.
_PICKLE_PROTOCOL = 4

_SUFFIX = ".ckpt"


class CheckpointError(Exception):
    """A checkpoint file is missing, corrupt, or from another world."""


class ForeignCheckpointError(CheckpointError):
    """A checkpoint that other code wrote: refused, never skipped."""


@dataclass(frozen=True)
class CheckpointInfo:
    """The parsed header of one checkpoint file."""

    path: Path
    kind: str
    step: int
    seed: int
    payload_bytes: int
    payload_sha256: str
    meta: Dict[str, object] = field(default_factory=dict)
    #: :func:`repro.code_identity` of the writer; None in old files.
    code: Optional[str] = None


def _checkpoint_name(kind: str, step: int) -> str:
    return f"{kind}-{step:08d}{_SUFFIX}"


class Checkpointer:
    """Saves and restores simulation snapshots in one directory.

    One directory holds one run's checkpoints; files are named
    ``{kind}-{step:08d}.ckpt`` so lexicographic order is step order and
    ``latest()`` needs no header reads.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    # Writing

    def save(
        self,
        kind: str,
        step: int,
        payload: object,
        seed: int,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Write one checkpoint; returns its path.

        The write is atomic; re-saving the same ``(kind, step)``
        replaces the previous file (the retry-after-crash case).
        """
        if not kind or "/" in kind or "-" in kind:
            raise ValueError(
                f"kind must be a simple name without '-' or '/', got {kind!r}"
            )
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "kind": kind,
            "step": step,
            "seed": seed,
            "code": repro.code_identity(),
            "payload_bytes": len(blob),
            "payload_sha256": hashlib.sha256(blob).hexdigest(),
            "meta": dict(meta or {}),
        }
        path = self.directory / _checkpoint_name(kind, step)
        with atomic_replace(path) as tmp:
            with open(tmp, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
                fh.write(b"\n")
                fh.write(blob)
        return path

    # ------------------------------------------------------------------
    # Reading

    def inspect(self, path) -> CheckpointInfo:
        """Parse and validate a checkpoint's header (no unpickling)."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                header_line = fh.readline()
        except OSError as exc:
            raise CheckpointError(f"cannot read {path}: {exc}") from exc
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"{path}: malformed checkpoint header"
            ) from exc
        if not isinstance(header, dict) or header.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"{path}: schema must be {CHECKPOINT_SCHEMA!r}, "
                f"got {header.get('schema') if isinstance(header, dict) else header!r}"
            )
        try:
            return CheckpointInfo(
                path=path,
                kind=str(header["kind"]),
                step=int(header["step"]),
                seed=int(header["seed"]),
                payload_bytes=int(header["payload_bytes"]),
                payload_sha256=str(header["payload_sha256"]),
                meta=dict(header.get("meta", {})),
                code=header.get("code"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: incomplete checkpoint header ({exc})"
            ) from exc

    def load(self, path) -> Tuple[object, CheckpointInfo]:
        """Verify and unpickle one checkpoint file this code wrote."""
        info = self.inspect(path)
        if info.code != repro.code_identity():
            raise ForeignCheckpointError(
                f"{info.path}: written by code {info.code or '(unrecorded)'}, "
                f"but this is code {repro.code_identity()}; resume it with "
                "the code that wrote it"
            )
        with open(info.path, "rb") as fh:
            fh.readline()  # skip the header
            blob = fh.read()
        if len(blob) != info.payload_bytes:
            raise CheckpointError(
                f"{info.path}: payload is {len(blob)} bytes, header "
                f"promises {info.payload_bytes} (truncated?)"
            )
        digest = hashlib.sha256(blob).hexdigest()
        if digest != info.payload_sha256:
            raise CheckpointError(
                f"{info.path}: payload checksum mismatch (corrupt file)"
            )
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 — anything here is corruption
            raise CheckpointError(
                f"{info.path}: cannot unpickle payload ({exc})"
            ) from exc
        return payload, info

    def list(self, kind: Optional[str] = None) -> List[Path]:
        """All checkpoint files, step order (optionally one kind)."""
        if not self.directory.is_dir():
            return []
        pattern = f"{kind}-*{_SUFFIX}" if kind else f"*{_SUFFIX}"
        return sorted(self.directory.glob(pattern))

    def latest(self, kind: str) -> Optional[Path]:
        """The highest-step *readable* checkpoint of ``kind``, or None.

        Corrupt or truncated files (e.g. a snapshot half-written by a
        dying machine without atomic-rename semantics) are skipped, so a
        resume always starts from the newest intact state.
        """
        for path in reversed(self.list(kind)):
            try:
                self.inspect(path)
            except CheckpointError:
                continue
            return path
        return None

    def load_latest(self, kind: str) -> Tuple[object, CheckpointInfo]:
        """Load the newest fully-intact checkpoint of ``kind`` (or raise).

        Falls back through older checkpoints when newer ones fail their
        checksum — the resume story survives a corrupted latest file as
        long as any earlier snapshot is whole.  A file that other code
        wrote is not corrupt: its :class:`ForeignCheckpointError` is
        raised, not skipped.
        """
        for path in reversed(self.list(kind)):
            try:
                return self.load(path)
            except ForeignCheckpointError:
                raise
            except CheckpointError:
                continue
        raise CheckpointError(
            f"no intact {kind!r} checkpoint found in {self.directory}"
        )
