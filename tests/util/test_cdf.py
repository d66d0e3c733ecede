"""Tests for CDF / series helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.cdf import Series, empirical_cdf


class TestEmpiricalCdf:
    def test_simple(self):
        xs, ps = empirical_cdf([3, 1, 2])
        assert list(xs) == [1, 2, 3]
        assert list(ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_monotone_and_bounded(self, samples):
        xs, ps = empirical_cdf(samples)
        assert (np.diff(xs) >= 0).all()
        assert (np.diff(ps) >= 0).all()
        assert ps[-1] == pytest.approx(1.0)
        assert ps[0] > 0


class TestSeries:
    def test_append_and_len(self):
        s = Series(name="s")
        s.append(1, 2)
        s.append(3, 4)
        assert len(s) == 2
        assert s.as_dict() == {1.0: 2.0, 3.0: 4.0}

    def test_y_at(self):
        s = Series(name="s", xs=[1, 2], ys=[10, 20])
        assert s.y_at(2) == 20

    def test_y_at_missing(self):
        s = Series(name="s", xs=[1], ys=[10])
        with pytest.raises(KeyError):
            s.y_at(99)

