"""Trace randomization (paper appendix).

Goal: modify a collection of peer cache contents so that **peer generosity**
(files per peer) and **file popularity** (replicas per file) are preserved,
while any other structure — in particular interest-based clustering — is
destroyed.

Algorithm (appendix, steps 1-4): pick peer ``u`` with probability
proportional to ``|C_u|``, a file ``f`` uniform in ``C_u``; likewise
``(v, f')``; swap ``f`` and ``f'`` between the two caches, unless the swap
would create a duplicate (``f' in C_u`` or ``f in C_v``), in which case it
is skipped.  Picking a peer proportionally to its cache size and then a
file uniformly within the cache is exactly a *uniform pick over replica
slots*, which is how we implement it: a flat array of (peer, file) slots,
two uniform indices per iteration, constant-time swap.

The appendix states that ``(1/2) * N * ln(N)`` iterations suffice for
mixing, where ``N`` is the total number of replicas; that schedule is the
default (see :func:`repro.util.zipf.swap_iterations`).

The swap state runs on the trace's compiled form — slots hold interned
file ints, so the per-iteration membership checks hash ints instead of
strings — and translates back to string ids only when a snapshot is
taken.  The monotone intern keeps slot order that of sorted string
slots, so the two ``randrange`` draws of each iteration and its
accept/refuse decision do not depend on the key representation (seeded
outputs are pinned by the digests in ``tests/golden/``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.trace.model import ClientId, FileId, StaticTrace
from repro.util.rng import RngStream
from repro.util.zipf import swap_iterations


class _SwapState:
    """Mutable replica-slot view of a static trace.

    The caches and slots hold interned file ints (see
    :mod:`repro.trace.compiled`); :meth:`cache_map` translates back to
    the public string ids, preserving the trace's client order.
    """

    def __init__(self, trace: StaticTrace) -> None:
        compiled = trace.compiled()
        self._file_ids = compiled.file_ids
        # Same client order as trace.caches; columns are sorted int
        # lists corresponding elementwise to sorted string caches.
        self.caches: Dict[ClientId, Set[int]] = {
            peer: set(compiled.cache_column(peer))
            for peer in compiled.client_ids
        }
        self.slots: List[Tuple[ClientId, int]] = [
            (peer, file_idx)
            for peer in sorted(compiled.client_row)
            for file_idx in compiled.cache_column(peer)
        ]

    def try_swap(self, i: int, j: int) -> bool:
        """Attempt to swap the files of slots ``i`` and ``j``.

        Refused (returns False) when the swap would duplicate a file within
        a cache: same peer, same file, or either target cache already holds
        the other file.
        """
        peer_u, file_f = self.slots[i]
        peer_v, file_g = self.slots[j]
        if peer_u == peer_v or file_f == file_g:
            return False
        cache_u = self.caches[peer_u]
        cache_v = self.caches[peer_v]
        if file_g in cache_u or file_f in cache_v:
            return False
        cache_u.discard(file_f)
        cache_u.add(file_g)
        cache_v.discard(file_g)
        cache_v.add(file_f)
        self.slots[i] = (peer_u, file_g)
        self.slots[j] = (peer_v, file_f)
        return True

    def cache_map(self) -> Dict[ClientId, Set[FileId]]:
        """Current caches as string-keyed sets (a snapshot copy)."""
        file_ids = self._file_ids
        return {
            c: {file_ids[i] for i in files}
            for c, files in self.caches.items()
        }


def swap_once(state: _SwapState, rng: RngStream) -> bool:
    """One iteration of the appendix algorithm; True if a swap happened."""
    n = len(state.slots)
    if n < 2:
        return False
    i = rng.py.randrange(n)
    j = rng.py.randrange(n)
    return state.try_swap(i, j)


def randomize_trace(
    trace: StaticTrace,
    rng: RngStream,
    iterations: Optional[int] = None,
) -> StaticTrace:
    """Return a randomized copy of ``trace``.

    ``iterations`` defaults to the appendix's ``(1/2)*N*ln(N)`` schedule.
    The result provably has the same generosity vector and popularity vector
    as the input (each accepted swap moves exactly one replica of each of
    two files between two caches of unchanged sizes).
    """
    n_replicas = trace.total_replicas()
    if n_replicas == 0:
        return trace.replace_caches({c: set() for c in trace.caches})
    if iterations is None:
        iterations = swap_iterations(n_replicas)
    state = _SwapState(trace)
    for _ in range(iterations):
        swap_once(state, rng)
    return trace.replace_caches(state.cache_map())


def randomization_schedule(
    trace: StaticTrace,
    rng: RngStream,
    checkpoints: List[int],
) -> List[Tuple[int, StaticTrace]]:
    """Randomize progressively, snapshotting at each swap-count checkpoint.

    ``checkpoints`` are cumulative *iteration* counts (sorted ascending);
    returns ``[(count, trace_at_count), ...]``.  Used by the Figure 21
    experiment, which plots hit rate as a function of the number of
    swappings.
    """
    if checkpoints != sorted(checkpoints):
        raise ValueError("checkpoints must be sorted ascending")
    state = _SwapState(trace)
    out: List[Tuple[int, StaticTrace]] = []
    done = 0
    for target in checkpoints:
        if target < done:
            raise ValueError("checkpoints must be non-decreasing")
        for _ in range(target - done):
            swap_once(state, rng)
        done = target
        out.append((target, trace.replace_caches(state.cache_map())))
    return out
