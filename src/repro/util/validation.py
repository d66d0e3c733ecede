"""Small argument-validation helpers.

Configuration dataclasses throughout the library validate eagerly in
``__post_init__`` so that a bad parameter fails at construction time with a
named message, not deep inside a simulation loop.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def check_positive(name: str, value: Number) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: Number) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_fraction(name: str, value: Number) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
