"""Batched draw kernels, byte-identical to ``random.Random``.

The request/search hot paths draw one ``randrange``/``shuffle`` value per
event through CPython's ``random.Random``, which costs a Python-level
method call (plus the ``getrandbits`` rejection loop) per draw.  This
module removes that per-draw overhead *without changing a single draw*:

- :class:`WordMirror` moves a ``random.Random``'s Mersenne-Twister state
  into a ``numpy.random.MT19937`` bit generator, pulls raw 32-bit words
  in bulk (``random_raw`` produces exactly the ``genrand_uint32``
  sequence CPython's ``getrandbits`` consumes), and writes the advanced
  state back — so the Python object continues the sequence as if it had
  made every call itself.
- :class:`WordStream` buffers those words in chunks and serves draws
  under CPython's ``_randbelow`` model: ``k = n.bit_length()``, candidate
  ``word >> (32 - k)``, rejected while ``>= n``.  The shift is applied to
  the whole chunk at once (one vectorized ``>>`` per distinct bit length);
  the accept test runs in *batch* methods whose tight local-variable loops
  produce many accepted draws per call, so stream consumers pay one list
  index per event instead of one method call per draw.

Batches never span a chunk refill once they hold an accepted draw, and
every draw carries its end position in the chunk, so a consumer that must
abandon buffered draws (the uniform request stream, whose modulus changes
when a peer exhausts) can :meth:`~WordStream.rewind_to` the word after
its last consumed draw and re-derive — the word sequence is untouched,
hence so is every future draw.

Consumers hold one stream per ``random.Random`` (the mirror advances the
shared state, so the stream must own it exclusively) and interleave
batch and scalar calls freely; word consumption order is identical to
the scalar calls they replace, so seeded sequences are byte-identical
(the kernels are pinned against ``random.Random`` in
``tests/core/test_vectorized_equivalence.py``, the streams against the
digests in ``tests/golden/``).

numpy (a declared dependency) is imported on the first draw, not at
module import, so processes that never draw — store-only tools, CLI
``--help`` — do not pay the import cost.
"""

from __future__ import annotations

from typing import List, Tuple

_np = None

#: Words fetched from the bit generator per refill.  Big enough to
#: amortize the two state round-trips (~624-word tuples) per batch,
#: small enough that a checkpoint pickle of the unconsumed tail stays
#: a few tens of kilobytes.
CHUNK_WORDS = 8192


def _get_np():
    """Import numpy on first use, not at module import (see docstring)."""
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


class WordMirror:
    """Bulk access to a ``random.Random``'s 32-bit word stream.

    Each :meth:`take` advances the mirrored Python object past the words
    it hands out, so scalar calls on the same ``random.Random`` before or
    after a take continue the one true sequence.
    """

    __slots__ = ("_py",)

    def __init__(self, py_random) -> None:
        self._py = py_random

    def take(self, n: int):
        """The next ``n`` raw words as a numpy uint64 array."""
        np = _get_np()
        version, state, gauss_next = self._py.getstate()
        if version != 3:  # pragma: no cover - CPython invariant
            raise RuntimeError(f"unsupported Random state version {version}")
        bit_gen = np.random.MT19937()
        bit_gen.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.asarray(state[:-1], dtype=np.uint64),
                "pos": state[-1],
            },
        }
        words = bit_gen.random_raw(n)
        advanced = bit_gen.state["state"]
        self._py.setstate(
            (
                version,
                tuple(int(w) for w in advanced["key"])
                + (int(advanced["pos"]),),
                gauss_next,
            )
        )
        return words


class WordStream:
    """Chunked draw server over one ``random.Random``.

    Not thread-safe; exactly one stream may wrap a given ``Random`` at a
    time.  Pickling drops the wrapped ``Random`` — the owner re-attaches
    it on unpickle via :meth:`attach` — and carries the unconsumed words,
    so a checkpoint taken mid-chunk resumes the exact word sequence.
    """

    __slots__ = ("_mirror", "_words", "_cands", "_raw", "_pos", "_len", "_chunk")

    def __init__(self, py_random, chunk: int = CHUNK_WORDS) -> None:
        self._mirror = WordMirror(py_random)
        self._chunk = chunk
        self._words = None
        self._cands = {}
        self._raw = None
        self._pos = 0
        self._len = 0

    def attach(self, py_random) -> None:
        """Re-bind the underlying ``Random`` (after unpickling)."""
        self._mirror = WordMirror(py_random)

    def _refill(self) -> None:
        self._words = self._mirror.take(self._chunk)
        self._cands = {}
        self._raw = None
        self._pos = 0
        self._len = self._chunk

    def _cand_arr(self, k: int):
        cands = self._cands.get(k)
        if cands is None:
            np = _get_np()
            # One vectorized shift per distinct bit length per chunk.
            self._cands[k] = cands = self._words >> np.uint64(32 - k)
        return cands

    def _raw_list(self) -> List[int]:
        """The chunk's raw words as plain Python ints, cached per chunk.

        The scalar walk paths index this list and shift per draw — one
        amortized ``tolist`` per chunk beats a numpy scalar index (and
        ``getrandbits``) per word.
        """
        raw = self._raw
        if raw is None:
            self._raw = raw = self._words.tolist()
        return raw

    @property
    def mark(self) -> int:
        """Current position in the chunk (for :meth:`rewind_to`)."""
        return self._pos

    def rewind_to(self, mark: int) -> None:
        """Un-consume words back to ``mark`` (within the current chunk).

        Draws re-derived from the rewound words are identical to the
        abandoned ones, so a rewind is invisible to the draw sequence —
        it exists so consumers can drop speculative batches.
        """
        if mark > self._pos:
            raise ValueError(f"cannot rewind forward ({mark} > {self._pos})")
        self._pos = mark

    # ------------------------------------------------------------------
    # Draws

    def randrange(self, n: int) -> int:
        """``random.Random.randrange(n)``, word-for-word identical."""
        shift = 32 - n.bit_length()
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        raw = self._raw_list()
        r = raw[pos] >> shift
        pos += 1
        while r >= n:
            if pos >= self._len:
                self._refill()
                pos = 0
                raw = self._raw_list()
            r = raw[pos] >> shift
            pos += 1
        self._pos = pos
        return r

    def fixed_batch(
        self, n: int, count: int
    ) -> Tuple[List[int], List[int]]:
        """Up to ``count`` draws of ``randrange(n)`` plus end positions.

        Returns ``(draws, marks)`` where ``marks[t]`` is the chunk
        position immediately after draw ``t`` — :meth:`rewind_to` it to
        abandon every later draw.  The batch may return fewer than
        ``count`` draws (the caller refills) but always at least one,
        never spans a refill once it holds a draw, and leaves no
        partially-consumed rejection run past its last draw.

        Small batches walk the cached raw-word list (numpy call overhead
        would dwarf the work); large ones are one vectorized compare +
        ``flatnonzero`` over a bounded window of the chunk.
        """
        if count <= 48:
            return self._fixed_scalar(n, count)
        np = _get_np()
        k = n.bit_length()
        window = 4 * count
        while True:
            pos = self._pos
            if pos >= self._len:
                self._refill()
                pos = 0
            seg = self._cand_arr(k)[pos : pos + window]
            ok = np.flatnonzero(seg < n)
            if ok.size:
                take = ok[:count]
                marks = (take + (pos + 1)).tolist()
                draws = seg[take].tolist()
                self._pos = marks[-1]
                return draws, marks
            # The whole window rejected: consume it and scan on.
            self._pos = pos + seg.size

    def _fixed_scalar(
        self, n: int, count: int
    ) -> Tuple[List[int], List[int]]:
        """Raw-word walk for :meth:`fixed_batch` (same contract)."""
        shift = 32 - n.bit_length()
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        raw = self._raw_list()
        length = self._len
        draws: List[int] = []
        marks: List[int] = []
        for _ in range(count):
            while True:
                if pos >= length:
                    if draws:
                        # Rewind the unfinished draw's rejection words:
                        # no partial state may outlive the batch.
                        self._pos = marks[-1]
                        return draws, marks
                    self._refill()
                    pos = 0
                    raw = self._raw_list()
                    length = self._len
                r = raw[pos] >> shift
                pos += 1
                if r < n:
                    break
            draws.append(r)
            marks.append(pos)
        self._pos = pos
        return draws, marks

    def countdown_batch(
        self, start: int, count: int
    ) -> Tuple[List[int], List[int]]:
        """Up to ``count`` draws for moduli ``start, start-1, ...``.

        The draw sequence of ``randrange(start), randrange(start-1), ...``
        — the exact moduli the weighted request stream and Fisher-Yates
        shuffles consume.  Same ``(draws, marks)`` contract as
        :meth:`fixed_batch`.

        Vectorization solves the sequential accept recurrence —
        ``accept_i  iff  cand_i + (#accepts before i) < start`` — by
        fixpoint iteration on the accept mask (compare + exclusive
        ``cumsum`` per round).  The recurrence's solution is *unique*
        (position 0 is mask-independent and each later position depends
        only on the prefix, so by induction any stable mask is the
        sequential one), hence a verified fixpoint is exact; the rare
        non-converged window falls back to the scalar walk.
        """
        if start <= 256 or count <= 8:
            # Small moduli/counts (per-peer shuffles, stream end-games):
            # numpy call overhead dwarfs the work — walk words scalar-ly.
            return self._countdown_scalar(start, count)
        np = _get_np()
        n = start
        k = n.bit_length()
        low = 1 << (k - 1)
        # Clamp so every modulus the batch can reach keeps bit length k
        # (the per-word shift is uniform across the batch).
        count = min(count, n - low + 1)
        if count <= 8:
            return self._countdown_scalar(start, count)
        # Words needed ≈ count / accept-rate; accept-rate = n / 2^k ≥ ½.
        window = (count << k) // n + 64
        while True:
            pos = self._pos
            if pos >= self._len:
                self._refill()
                pos = 0
            seg = self._cand_arr(k)[pos : pos + window]
            s64 = seg.astype(np.int64)  # uint64 + int64 would promote to float
            mask = s64 < n
            for _ in range(8):
                before = np.cumsum(mask) - mask  # accepts strictly before i
                new_mask = (s64 + before) < n
                if np.array_equal(new_mask, mask):
                    break
                mask = new_mask
            else:
                return self._countdown_scalar(start, count)
            ok = np.flatnonzero(mask)
            if ok.size:
                take = ok[:count]
                marks = (take + (pos + 1)).tolist()
                draws = seg[take].tolist()
                self._pos = marks[-1]
                return draws, marks
            # The whole window rejected: consume it and scan on.
            self._pos = pos + seg.size

    def _countdown_scalar(
        self, start: int, count: int
    ) -> Tuple[List[int], List[int]]:
        """Raw-word walk for :meth:`countdown_batch` (same contract)."""
        n = start
        k = n.bit_length()
        low = 1 << (k - 1)
        shift = 32 - k
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        raw = self._raw_list()
        length = self._len
        draws: List[int] = []
        marks: List[int] = []
        for _ in range(count):
            if n < low:
                low >>= 1
                shift += 1
            while True:
                if pos >= length:
                    if draws:
                        # Rewind the unfinished draw's rejection words:
                        # no partial state may outlive the batch.
                        self._pos = marks[-1]
                        return draws, marks
                    self._refill()
                    pos = 0
                    raw = self._raw_list()
                    length = self._len
                r = raw[pos] >> shift
                pos += 1
                if r < n:
                    break
            draws.append(r)
            marks.append(pos)
            n -= 1
        self._pos = pos
        return draws, marks

    def shuffle(self, values: list) -> None:
        """``random.Random.shuffle``, word-for-word identical."""
        i = len(values) - 1
        # Large prefixes come from the vectorized countdown; the tail is
        # an inline raw-word walk — no draw/mark lists, swaps applied as
        # words are accepted (a shuffle never abandons draws, so no
        # rewind bookkeeping is needed).
        while i >= 256:
            draws, _ = self.countdown_batch(i + 1, i)
            for j in draws:
                values[i], values[j] = values[j], values[i]
                i -= 1
        if i <= 0:
            return
        n = i + 1
        k = n.bit_length()
        low = 1 << (k - 1)
        shift = 32 - k
        pos = self._pos
        if pos >= self._len:
            self._refill()
            pos = 0
        raw = self._raw_list()
        length = self._len
        while i > 0:
            n = i + 1
            if n < low:
                low >>= 1
                shift += 1
            while True:
                if pos >= length:
                    self._pos = pos
                    self._refill()
                    pos = 0
                    raw = self._raw_list()
                    length = self._len
                j = raw[pos] >> shift
                pos += 1
                if j < n:
                    break
            values[i], values[j] = values[j], values[i]
            i -= 1
        self._pos = pos

    # ------------------------------------------------------------------
    # Pickling

    def __getstate__(self):
        remaining = b""
        if self._words is not None and self._pos < self._len:
            remaining = self._words[self._pos :].tobytes()
        return (self._chunk, remaining)

    def __setstate__(self, state) -> None:
        self._chunk, remaining = state
        self._mirror = None  # owner must call attach()
        self._cands = {}
        self._raw = None
        self._pos = 0
        if remaining:
            np = _get_np()
            self._words = np.frombuffer(remaining, dtype=np.uint64)
            self._len = len(self._words)
        else:
            self._words = None
            self._len = 0

