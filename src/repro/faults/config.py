"""Configuration of the fault model.

One dataclass gathers every knob so that a whole hostile-network
scenario is a single value that can be threaded through
:class:`~repro.edonkey.network.NetworkConfig`, logged, and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.validation import check_fraction, check_non_negative


@dataclass(frozen=True)
class FaultConfig:
    """Fault-model knobs.  Everything defaults to *off*.  Frozen: a
    variant is made with ``dataclasses.replace``.

    Message-level faults (independent per message):

    - ``loss_rate`` — probability a message is dropped in flight (the
      request never reaches its target);
    - ``slow_rate`` — probability a reply is too slow: the request *is*
      processed but the sender gives up waiting, so the reply is lost
      (a timeout);
    - ``malformed_rate`` — probability a reply arrives garbled: list
      payloads (files, sources, users, …) are emptied, which models the
      partial/empty answers real crawls are full of.

    Peer-level faults:

    - ``peer_downtime`` — per-day probability that a client is
      transiently unreachable for that whole day (mid-session
      disconnects: the crawler loses that client's daily snapshot).

    Server-level faults:

    - ``server_crash_day`` — day index (0 = the build day) on which
      ``server_crash_id`` crashes, losing all sessions and indexes;
      connected clients re-connect to surviving servers;
    - ``server_downtime_days`` — days until the crashed server restarts
      (empty); 0 means it never comes back.
    """

    loss_rate: float = 0.0
    slow_rate: float = 0.0
    malformed_rate: float = 0.0
    peer_downtime: float = 0.0
    server_crash_day: Optional[int] = None
    server_crash_id: int = 0
    server_downtime_days: int = 2

    def __post_init__(self) -> None:
        check_fraction("loss_rate", self.loss_rate)
        check_fraction("slow_rate", self.slow_rate)
        check_fraction("malformed_rate", self.malformed_rate)
        check_fraction("peer_downtime", self.peer_downtime)
        if self.server_crash_day is not None:
            check_non_negative("server_crash_day", self.server_crash_day)
        check_non_negative("server_crash_id", self.server_crash_id)
        check_non_negative("server_downtime_days", self.server_downtime_days)

    @property
    def enabled(self) -> bool:
        """True when any fault knob is nonzero.

        The network skips the injector entirely when this is False, so a
        default config is a strict no-op (byte-identical behaviour)."""
        return (
            self.loss_rate > 0
            or self.slow_rate > 0
            or self.malformed_rate > 0
            or self.peer_downtime > 0
            or self.server_crash_day is not None
        )
