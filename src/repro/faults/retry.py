"""Retry policy with capped exponential backoff.

Backoff delays are *simulated* seconds: consumers account them (e.g.
against a crawl's time budget and in :class:`~repro.faults.stats.FaultStats`)
but never sleep, so fault runs stay fast and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive


@dataclass
class RetryPolicy:
    """Bounded exponential backoff: ``base * multiplier**(attempt-1)``,
    capped at ``max_delay``, for at most ``max_retries`` retries."""

    max_retries: int = 3
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0

    def __post_init__(self) -> None:
        check_non_negative("max_retries", self.max_retries)
        check_positive("base_delay", self.base_delay)
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1 (backoff never shrinks), "
                f"got {self.multiplier!r}"
            )
        check_positive("max_delay", self.max_delay)

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        check_positive("attempt", attempt)
        return min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
