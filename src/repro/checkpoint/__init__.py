"""Crash-safe checkpoint/resume.

The paper's 56-day crawl is the kind of run nobody wants to restart
from day 0 because a machine rebooted on day 41.  This package gives
every long simulation in the repo a crash-safety story:

- :class:`Checkpointer` — versioned, checksummed snapshot files written
  atomically (``repro.checkpoint/1``: a JSON header line + pickle
  blob), with header-only inspection, corrupt-file fallback, and a
  refusal of files that other code wrote;
- :class:`~repro.edonkey.crawler.Crawler` and
  :class:`~repro.core.search.SearchSimulator` snapshot themselves
  through it and resume mid-run with **byte-identical** final artefacts
  (trace files and metrics counters), which is the contract the
  resume-equivalence suite pins.
"""

from repro.checkpoint.store import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointInfo,
    Checkpointer,
    ForeignCheckpointError,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointInfo",
    "Checkpointer",
    "ForeignCheckpointError",
]
