"""Deterministic random-number streams.

Every stochastic component in this library draws from an explicitly seeded
stream.  To keep experiments reproducible *and* to decouple components (so
that adding a draw in one module does not perturb another), seeds are derived
from a root seed plus a string label via a stable hash.  This mirrors the
"named substream" pattern used by large simulation codebases.
"""

from __future__ import annotations

import copy
import hashlib
import random
from array import array
from bisect import bisect_right
from typing import Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

_SEED_MASK = (1 << 63) - 1

#: Version tag on :meth:`RngStream.getstate` snapshots.
_STATE_TAG = "repro.rngstream/1"


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable 63-bit seed from ``root_seed`` and a string ``label``.

    The derivation is independent of ``PYTHONHASHSEED`` (it uses SHA-256, not
    the builtin ``hash``), so identical inputs give identical seeds across
    processes and platforms.
    """
    payload = f"{root_seed}:{label}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


class RngStream:
    """A labelled bundle of deterministic random sources.

    Provides both a ``random.Random`` (``.py``) and a numpy ``Generator``
    (``.np``) seeded from the same (seed, label) pair, plus a ``child``
    factory for spawning independent substreams.

    Example::

        rng = RngStream(seed=42, label="workload")
        sizes = rng.np.lognormal(mean=3.0, sigma=1.5, size=100)
        choice = rng.py.choice(["a", "b", "c"])
        churn_rng = rng.child("churn")
    """

    __slots__ = ("seed", "label", "py", "_np")

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed
        self.label = label
        self.py = random.Random(derive_seed(seed, label))
        self._np = None

    @property
    def np(self):
        """The numpy ``Generator``, created on first use.

        Lazy so that processes which only ever draw from ``.py`` — the
        store tools, the CLI's help paths — never import numpy; the
        generator is seeded from the same ``(seed, label)`` pair either
        way, so laziness is invisible to draw sequences.
        """
        gen = self._np
        if gen is None:
            import numpy

            self._np = gen = numpy.random.default_rng(
                derive_seed(self.seed, self.label)
            )
        return gen

    def child(self, sub_label: str) -> "RngStream":
        """Spawn an independent substream named ``label/sub_label``."""
        return RngStream(self.seed, f"{self.label}/{sub_label}")

    # ------------------------------------------------------------------
    # State capture (checkpoint/resume)

    def getstate(self) -> Tuple:
        """Snapshot this stream's full state.

        The snapshot captures both underlying generators mid-sequence —
        ``random.Random.getstate()`` and the numpy bit generator's state
        dict — so a stream restored with :meth:`setstate` continues the
        exact draw sequence, not a reseeded one.  The returned value is
        versioned, picklable and deep-copied (later draws on this stream
        cannot mutate an already-taken snapshot).
        """
        return (
            _STATE_TAG,
            self.seed,
            self.label,
            self.py.getstate(),
            copy.deepcopy(self.np.bit_generator.state),
        )

    def setstate(self, state: Tuple) -> None:
        """Restore a snapshot taken by :meth:`getstate` (any instance)."""
        if not isinstance(state, tuple) or len(state) != 5 or state[0] != _STATE_TAG:
            raise ValueError(
                f"not an RngStream state snapshot (expected a 5-tuple "
                f"tagged {_STATE_TAG!r})"
            )
        import numpy

        _, seed, label, py_state, np_state = state
        self.seed = seed
        self.label = label
        py = random.Random()
        py.setstate(py_state)
        self.py = py
        gen = numpy.random.default_rng()
        gen.bit_generator.state = copy.deepcopy(np_state)
        self._np = gen

    # ``__slots__`` classes need explicit pickle hooks; routing them
    # through getstate/setstate makes pickling a stream equivalent to
    # snapshotting it, which is what checkpoint files rely on.
    def __getstate__(self) -> Tuple:
        return self.getstate()

    def __setstate__(self, state: Tuple) -> None:
        self.setstate(state)

    def shuffled(self, items: Sequence[T]) -> list:
        """Return a shuffled copy of ``items`` (the input is untouched)."""
        out = list(items)
        self.py.shuffle(out)
        return out

    def sample_without_replacement(self, items: Sequence[T], k: int) -> list:
        """Sample ``min(k, len(items))`` distinct elements."""
        k = min(k, len(items))
        return self.py.sample(list(items), k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, label={self.label!r})"


def cumulative_table(weights) -> array:
    """The running sums of ``weights`` as a flat ``array('d')`` for
    :func:`weighted_index`: ``np.cumsum``'s floats, bit for bit."""
    import numpy

    return array("d", numpy.cumsum(weights, dtype=float).tobytes())


def weighted_index(rng: random.Random, cumulative: Sequence[float], total: float) -> int:
    """Draw an index with probability proportional to its weight: the first
    whose running sum in ``cumulative`` (best a :func:`cumulative_table`,
    built once) exceeds ``rng.random() * total``, or the last index if none
    does."""
    i = bisect_right(cumulative, rng.random() * total)
    n = len(cumulative)
    return i if i < n else n - 1


def stable_choice(rng: random.Random, items: Sequence[T], weights: Optional[Sequence[float]] = None) -> T:
    """Weighted choice helper with validation (single draw).

    ``random.choices`` silently accepts zero-weight-only inputs; this wrapper
    raises instead, which catches workload-configuration bugs early.
    """
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    if weights is None:
        return items[rng.randrange(len(items))]
    if len(weights) != len(items):
        raise ValueError("weights and items must have the same length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("total weight must be positive")
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x < acc:
            return item
    return items[-1]
