"""Tests for the file-kind and size models."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.util.rng import RngStream, stable_choice
from repro.workload.filesizes import (
    MB,
    SIZE_MODELS,
    FileKindModel,
    sample_size,
)


class TestSampleSize:
    @pytest.mark.parametrize("kind", sorted(SIZE_MODELS))
    def test_sizes_within_kind_range(self, kind):
        rng = RngStream(0, kind)
        _, _, lo, hi = SIZE_MODELS[kind]
        for _ in range(300):
            size = sample_size(kind, rng)
            assert lo <= size <= hi

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown file kind"):
            sample_size("floppy", RngStream(0))

    def test_audio_is_mp3_sized(self):
        rng = RngStream(1)
        sizes = [sample_size("audio", rng) for _ in range(200)]
        assert all(1 * MB <= s <= 10 * MB for s in sizes)

    def test_video_is_divx_sized(self):
        rng = RngStream(1)
        sizes = [sample_size("video", rng) for _ in range(200)]
        assert all(s >= 600 * MB for s in sizes)


class TestFileKindModel:
    def test_head_skews_to_video(self):
        model = FileKindModel()
        rng = RngStream(2)
        head_kinds = Counter(
            model.sample_kind(0, 10_000, rng) for _ in range(500)
        )
        tail_kinds = Counter(
            model.sample_kind(9_000, 10_000, rng) for _ in range(500)
        )
        assert head_kinds["video"] > tail_kinds["video"] * 3
        assert tail_kinds["audio"] > head_kinds["audio"]

    def test_tail_mix_matches_paper_buckets(self):
        """~40% under 1MB, ~50% in 1-10MB, ~10% above (Figure 6)."""
        model = FileKindModel()
        rng = RngStream(3)
        sizes = [
            model.sample(9_999, 10_000, rng)[1] for _ in range(2000)
        ]
        under_1mb = sum(1 for s in sizes if s < MB) / len(sizes)
        mp3_range = sum(1 for s in sizes if MB <= s <= 10 * MB) / len(sizes)
        assert 0.30 <= under_1mb <= 0.50
        assert 0.40 <= mp3_range <= 0.60

    def test_sample_returns_kind_and_size(self):
        model = FileKindModel()
        kind, size = model.sample(0, 100, RngStream(4))
        assert kind in SIZE_MODELS
        assert size > 0

    def test_rejects_unknown_kind_weights(self):
        with pytest.raises(ValueError, match="unknown kinds"):
            FileKindModel(head_weights={"floppy": 1.0})

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError, match="positive total"):
            FileKindModel(tail_weights={"audio": 0.0})

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="non-negative"):
            FileKindModel(head_weights={"audio": 2.0, "video": -1.0})

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            FileKindModel(head_fraction=2.0)

    def test_custom_weights(self):
        model = FileKindModel(
            head_weights={"audio": 1.0}, tail_weights={"audio": 1.0}
        )
        rng = RngStream(5)
        assert model.sample_kind(0, 100, rng) == "audio"
        assert model.sample_kind(99, 100, rng) == "audio"


kind_weights = st.dictionaries(
    st.sampled_from(sorted(SIZE_MODELS)),
    st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    min_size=1,
)


class TestKindDrawMatchesStableChoice:
    """The kind table draws exactly what ``stable_choice`` drew over the
    kinds in name order, and consumes the same randomness."""

    @given(kind_weights, kind_weights, st.integers(0, 2**32), st.integers(0, 99))
    @settings(max_examples=50)
    def test_same_kind_and_state(self, head, tail, seed, rank):
        assume(sum(head.values()) > 0 and sum(tail.values()) > 0)
        model = FileKindModel(head_weights=head, tail_weights=tail)
        weights = head if rank < model.head_fraction * 100 else tail
        kinds = sorted(weights)
        rng, twin = RngStream(seed), RngStream(seed)
        for _ in range(20):
            expected = stable_choice(twin.py, kinds, [weights[k] for k in kinds])
            assert model.sample_kind(rank, 100, rng) == expected
        assert rng.py.getstate() == twin.py.getstate()
