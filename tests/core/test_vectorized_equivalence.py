"""Seeded equivalence between the batched engine and the scalar draws.

The batched draw kernels (:mod:`repro.core.vectorized`) and the two-hop
member-union fast path must not change a single seeded draw.  These
tests pin byte-identity at three levels — the word/draw kernels against
``random.Random`` itself, the request streams, and the full search
simulator (all strategies, two-hop, availability, probe loss) — plus
mid-stream pickling, which is what a checkpoint does to a live
``WordStream``.  The scalar engine the streams and the simulator were
compared against is deleted; its seeded outputs survive as the digests
in ``tests/golden/engines.json``.
"""

import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.requests import iter_requests_compiled
from repro.core.vectorized import WordStream
from repro.util.rng import RngStream
from tests.golden.cases import assert_case


class TestWordStreamKernels:
    """Draw-for-draw identity of the kernels against random.Random."""

    def test_randrange_matches(self):
        mirror = random.Random(11)
        reference = random.Random(11)
        ws = WordStream(mirror, chunk=64)
        for n in list(range(1, 40)) + [997, 2**16 - 1, 2**16, 10**6]:
            for _ in range(20):
                assert ws.randrange(n) == reference.randrange(n)

    def test_shuffle_matches(self):
        mirror = random.Random(12)
        reference = random.Random(12)
        ws = WordStream(mirror, chunk=64)
        for size in (1, 2, 3, 17, 255, 256, 257, 1000):
            ours = list(range(size))
            theirs = list(range(size))
            ws.shuffle(ours)
            reference.shuffle(theirs)
            assert ours == theirs

    def test_fixed_batch_matches_and_rewinds(self):
        mirror = random.Random(13)
        reference = random.Random(13)
        meta = random.Random(99)
        ws = WordStream(mirror, chunk=128)
        for _ in range(300):
            n = meta.randrange(1, 5000)
            draws, marks = ws.fixed_batch(n, meta.randrange(1, 80))
            assert len(draws) >= 1
            keep = meta.randrange(1, len(draws) + 1)
            for value in draws[:keep]:
                assert value == reference.randrange(n)
            if keep < len(draws):
                # Abandoned draws must be invisible: rewinding and
                # re-deriving under any modulus continues the reference
                # sequence exactly.
                ws.rewind_to(marks[keep - 1])

    def test_countdown_batch_matches(self):
        mirror = random.Random(14)
        reference = random.Random(14)
        meta = random.Random(98)
        ws = WordStream(mirror, chunk=512)
        for _ in range(150):
            start = meta.randrange(2, 90000)
            count = meta.randrange(1, min(start, 2000))
            draws, _marks = ws.countdown_batch(start, count)
            assert 1 <= len(draws) <= count
            modulus = start
            for value in draws:
                assert value == reference.randrange(modulus)
                modulus -= 1

    def test_pickle_mid_chunk_resumes_word_sequence(self):
        mirror = random.Random(15)
        reference = random.Random(15)
        ws = WordStream(mirror, chunk=64)
        for _ in range(37):
            assert ws.randrange(1000) == reference.randrange(1000)
        clone = pickle.loads(pickle.dumps(ws))
        clone.attach(mirror)
        for _ in range(200):
            assert clone.randrange(1000) == reference.randrange(1000)

    def test_wrapped_random_continues_after_stream_drops(self):
        # The mirror advances the wrapped Random past every word it
        # takes, so dropping the stream leaves the Random on the one
        # true sequence (just past the unconsumed tail of the chunk).
        mirror = random.Random(16)
        ws = WordStream(mirror, chunk=64)
        ws.randrange(1000)
        expected = random.Random(16)
        for _ in range(64):
            expected.getrandbits(32)
        assert mirror.getrandbits(32) == expected.getrandbits(32)


class TestRequestStreamEquivalence:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_streams_byte_identical(self, weighted):
        assert_case(f"requests/fixture/{'weighted' if weighted else 'uniform'}")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_pickled_mid_stream_resumes_exactly(
        self, small_static_trace, weighted
    ):
        compiled = small_static_trace.compiled()

        def stream():
            return iter_requests_compiled(
                compiled,
                RngStream(7, "req"),
                weighted_by_cache=weighted,
            )

        reference = list(stream())
        for cut in (1, 17, len(reference) // 2, len(reference) - 1):
            interrupted = stream()
            head = [next(interrupted) for _ in range(cut)]
            resumed = pickle.loads(pickle.dumps(interrupted))
            tail = list(resumed)
            assert head + tail == reference, f"diverged after cut={cut}"


class TestSearchEquivalence:
    @pytest.mark.parametrize(
        "strategy", ["lru", "history", "random", "popularity"]
    )
    @pytest.mark.parametrize("two_hop", [False, True])
    def test_all_strategies(self, strategy, two_hop):
        hops = "two" if two_hop else "one"
        assert_case(f"search/fixture/{strategy}/{hops}-hop")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_availability_loss_and_load(self, weighted):
        assert_case(
            "search/fixture/availability-loss/"
            + ("weighted" if weighted else "uniform")
        )


def test_import_does_not_pull_numpy():
    """The kernels must not tax processes that never draw.

    Importing the draw, request and search modules must leave numpy
    unimported; it loads on the first draw, mirroring the
    ``_get_sparse()`` contract in the trace layer.
    """
    script = (
        "import sys\n"
        "import repro.core.vectorized\n"
        "import repro.core.requests\n"
        "import repro.core.search\n"
        "assert 'numpy' not in sys.modules, 'numpy imported eagerly'\n"
    )
    subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
    )
