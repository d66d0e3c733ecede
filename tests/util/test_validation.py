"""Tests for argument-validation helpers."""

import pytest

from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        check_non_negative("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1)


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts(self, value):
        check_fraction("f", value)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="f"):
            check_fraction("f", value)
