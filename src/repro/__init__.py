"""repro — a reproduction of *"Peer Sharing Behaviour in the eDonkey
Network, and Implications for the Design of Server-less File Sharing
Systems"* (Handurukande, Kermarrec, Le Fessant, Massoulié, Patarin;
EuroSys 2006).

The library contains:

- :mod:`repro.trace` — the trace data model and the paper's processing
  pipeline (filtering, pessimistic extrapolation, statistics);
- :mod:`repro.workload` — a synthetic eDonkey workload generator matching
  the paper's measured distributions, with planted interest-based
  clustering;
- :mod:`repro.edonkey` — a protocol-level eDonkey network + crawler
  simulation (MD4, block hashing, servers, clients, nickname sweep);
- :mod:`repro.core` — the paper's contribution: semantic-neighbour search
  (LRU / History / Random / Popularity strategies, one- and two-hop) and
  the appendix's trace randomization;
- :mod:`repro.analysis` — the clustering / popularity / geography analyses
  behind every figure;
- :mod:`repro.baselines` — flooding, random-walk and central-server search;
- :mod:`repro.experiments` — one runnable entry point per table and figure.

Quickstart::

    from repro.experiments import run_figure18
    from repro.runtime import RunContext, Scale
    print(run_figure18(RunContext(scale=Scale.SMALL)).render())
"""

import functools

__version__ = "1.0.0"

__all__ = ["__version__", "code_identity"]


@functools.cache
def code_identity() -> str:
    """Which code this is: SHA-256 over the sorted relative paths and
    bytes of this package's ``*.py`` files.

    Checkpoint headers and run-manifest hashes carry it, so state that
    other code wrote is refused or re-run instead of trusted.  Computed
    on first call, never at import: ``repro serve`` imports the runner
    at start-up and never needs it.
    """
    import hashlib
    from pathlib import Path

    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()
