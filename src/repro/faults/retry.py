"""Retry policy with capped exponential backoff.

Backoff delays are *simulated* seconds: consumers account them (e.g.
against a crawl's time budget and in :class:`~repro.faults.stats.FaultStats`)
but never sleep, so fault runs stay fast and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive

#: Backoff before the first retry, its growth per retry, and its cap.
BACKOFF_FIRST_S = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 60.0


@dataclass
class RetryPolicy:
    """Bounded exponential backoff: ``1 s * 2**(attempt-1)``, capped at
    60 s, for at most ``max_retries`` retries."""

    max_retries: int = 3

    def __post_init__(self) -> None:
        check_non_negative("max_retries", self.max_retries)

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        check_positive("attempt", attempt)
        return min(
            BACKOFF_FIRST_S * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_CAP_S
        )
