"""The fault injector the network consults on every message hop.

Each fault class draws from its own :class:`~repro.util.rng.RngStream`
child, so enabling one fault (say, message loss) never perturbs the
draws of another (peer downtime), and a run is reproducible from
``(seed, FaultConfig)`` alone.  Day-level state (which peers are
transiently down) is redrawn from a per-day child stream, so two
networks built from the same seed agree on every day's fault set even
if they routed different message counts in between.
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional, Set, Tuple

from repro.faults.config import FaultConfig
from repro.faults.schedule import FaultSchedule
from repro.faults.stats import FaultStats
from repro.util.rng import RngStream

# A message's fate, decided once per hop.
FATE_OK = "ok"
FATE_DROP = "drop"  # request lost in flight: target never sees it
FATE_TIMEOUT = "timeout"  # request processed, reply misses the deadline
FATE_MALFORMED = "malformed"  # reply delivered with list payloads emptied

# Reply attributes emptied by a malformed delivery, in check order.
_PAYLOAD_ATTRS = ("files", "results", "sources", "users", "servers")


class FaultInjector:
    """Decides message fates and the daily fault schedule.

    With a :class:`~repro.faults.schedule.FaultSchedule`, the injector's
    effective config (``self.config``) is recomputed at each
    ``advance_day`` as the base config plus the overrides of every
    window covering that day; message paths keep consulting
    ``self.config``, so a day outside every window costs exactly what a
    schedule-free run costs (the per-knob short-circuits see zeros and
    draw nothing).
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: RngStream,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.base_config = config
        self.schedule = schedule
        # Effective config for the current day; day 0's value is set by
        # the first advance_day call (build time uses the base config).
        self.config = config
        # Any knob nonzero *today*: read on every message hop, so it is
        # kept with the effective config (``FaultConfig`` is frozen).
        self.enabled = config.enabled
        self.stats = FaultStats()
        self._loss_rng = rng.child("loss")
        self._slow_rng = rng.child("slow")
        self._malformed_rng = rng.child("malformed")
        self._downtime_rng = rng.child("downtime")
        self.flaky_offline: Set[int] = set()

    @property
    def active(self) -> bool:
        """Can this injector ever do anything over the whole run?

        True when the base config enables a fault or the schedule
        carries at least one override.  The network consults this (not
        ``enabled``) to decide whether to run the per-day fault plumbing
        at all: an injector that is inactive is a strict no-op, while an
        *active* one may still be quiet on individual days.
        """
        return self.base_config.enabled or (
            self.schedule is not None and not self.schedule.empty
        )

    # ------------------------------------------------------------------
    # Per-message decisions

    def message_fate(self, _message: object) -> str:
        """Draw the fate of one message (loss, then slowness, then
        garbling — a message only reaches the later draws if it survived
        the earlier ones)."""
        config = self.config
        self.stats.messages_total += 1
        if config.loss_rate and self._loss_rng.py.random() < config.loss_rate:
            self.stats.messages_dropped += 1
            return FATE_DROP
        if config.slow_rate and self._slow_rng.py.random() < config.slow_rate:
            self.stats.timeouts += 1
            return FATE_TIMEOUT
        if (
            config.malformed_rate
            and self._malformed_rng.py.random() < config.malformed_rate
        ):
            self.stats.malformed_replies += 1
            return FATE_MALFORMED
        return FATE_OK

    def filtered_dispatch(self, message: object, dispatch):
        """Run ``dispatch(message)`` under this injector's fate model.

        This is the one transport-seam hook both message planes share:
        the simulated :class:`~repro.edonkey.network.Network` wraps its
        protocol-handler dispatch in it, and the live asyncio service
        (:mod:`repro.service.server`) wraps its TCP request handling in
        the same call — so loss, timeouts and malformed replies behave
        identically in batch and in service mode.

        The fate is drawn *before* dispatching (matching the pre-seam
        network code byte for byte): a dropped request never reaches the
        handler, a timed-out one is handled but its reply suppressed,
        and a malformed one returns a degraded reply.  When the injector
        is disabled this is a plain ``dispatch(message)`` with no RNG
        draw and no stats.
        """
        if not self.enabled:
            return dispatch(message)
        fate = self.message_fate(message)
        if fate == FATE_DROP:
            return None
        reply = dispatch(message)
        if fate == FATE_TIMEOUT:
            return None
        if fate == FATE_MALFORMED:
            return self.degrade_reply(reply)
        return reply

    def peer_unreachable(self, client_id: int) -> bool:
        """True when ``client_id`` is transiently down today."""
        if client_id in self.flaky_offline:
            self.stats.peer_unreachable += 1
            return True
        return False

    def degrade_reply(self, reply):
        """The malformed variant of ``reply``: list payloads emptied.

        Replies with no list payload (e.g. a connect acknowledgement)
        cannot be meaningfully truncated, so garbling them loses the
        whole reply (``None``)."""
        if reply is None:
            return None
        for attr in _PAYLOAD_ATTRS:
            if hasattr(reply, attr):
                degraded = copy.copy(reply)
                setattr(degraded, attr, [])
                return degraded
        return None

    # ------------------------------------------------------------------
    # Day schedule

    def advance_day(self, day_index: int, client_ids: Iterable[int]) -> None:
        """Enter ``day_index``: apply the schedule, redraw the day's
        transiently-unreachable peer set.

        The downtime draw comes from a per-day child stream keyed by
        ``day_index`` over the *sorted* client ids, so it is independent
        of message traffic and iteration order."""
        if self.schedule is not None:
            self.config = self.schedule.config_on(day_index, self.base_config)
            self.enabled = self.config.enabled
        if not self.config.peer_downtime:
            self.flaky_offline = set()
            return
        rng = self._downtime_rng.child(f"day[{day_index}]")
        self.flaky_offline = {
            client_id
            for client_id in sorted(client_ids)
            if rng.py.random() < self.config.peer_downtime
        }

    def server_events(self, day_index: int) -> Tuple[List[int], List[int]]:
        """``(crashes, recoveries)`` scheduled for ``day_index``.

        Checked against the *effective* config, so repeated
        crash/recovery cycles are expressed as schedule windows that set
        ``server_crash_day``/``server_downtime_days`` — each window must
        cover both its crash day and its recovery day for the pair of
        events to fire.
        """
        config = self.config
        crashes: List[int] = []
        recoveries: List[int] = []
        if config.server_crash_day is not None:
            if day_index == config.server_crash_day:
                crashes.append(config.server_crash_id)
            elif config.server_downtime_days and day_index == (
                config.server_crash_day + config.server_downtime_days
            ):
                recoveries.append(config.server_crash_id)
        return crashes, recoveries
