"""Crash-safe file writes: write a temp file, fsync, rename over the target.

Every artefact this library persists (run manifests, metrics JSON, traces,
checkpoints) goes through these helpers so that a crash — including a hard
SIGKILL — mid-write can never leave a torn file behind: the target either
keeps its previous content or holds the complete new content, never a
prefix of it.  ``os.replace`` is atomic on POSIX and Windows for paths on
the same filesystem, which is guaranteed here because the temp file is
created in the target's own directory.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Iterator, Union

PathLike = Union[str, "os.PathLike[str]"]


@contextmanager
def atomic_replace(path: PathLike) -> Iterator[str]:
    """Yield a temp path next to ``path``; atomically rename it over
    ``path`` on success, delete it on failure.

    The caller writes the new content to the yielded path.  If the block
    raises, the temp file is removed and ``path`` is untouched; if it
    completes, the temp file is fsynced and renamed into place (and the
    directory entry is fsynced too, best-effort), so the swap survives a
    crash at any instant.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        yield tmp
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fsync_directory(directory: str) -> None:
    """Flush the rename itself to disk (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: PathLike, text: str, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path``'s content with ``text``."""
    with atomic_replace(path) as tmp:
        with open(tmp, "w", encoding=encoding) as fh:
            fh.write(text)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically replace ``path``'s content with ``data``."""
    with atomic_replace(path) as tmp:
        with open(tmp, "wb") as fh:
            fh.write(data)


def append_line(path: PathLike, line: str) -> None:
    """Append one line to ``path`` crash-safely and multi-writer-safely.

    The whole line (newline included) goes down in a single ``os.write``
    on an ``O_APPEND`` descriptor: concurrent appenders — the telemetry
    flight recorders of a sharded run's workers — cannot interleave
    *within* a line, and a crash mid-write can tear at most the file's
    final line, which the telemetry reader tolerates by design.  The
    line is flushed to disk before the call returns, so a SIGKILL
    immediately after still leaves it readable.
    """
    if "\n" in line:
        raise ValueError("append_line writes exactly one line, got embedded newline")
    data = (line + "\n").encode("utf-8")
    fd = os.open(
        os.fspath(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
