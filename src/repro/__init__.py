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

__version__ = "1.0.0"

__all__ = ["__version__"]
