"""Time-varying fault schedules.

A static :class:`~repro.faults.config.FaultConfig` holds one set of
knobs for a whole run; real networks misbehave in *episodes* — loss that
ramps up over a weekend, a flash-churn burst when a popular file drops,
a server that crashes and recovers repeatedly.  A
:class:`FaultSchedule` expresses those episodes as day windows carrying
config overrides: on each simulated day the injector's effective config
is the base config with every window covering that day applied, in
listed order.

Schedules are plain data — JSON-loadable (``repro.faults.schedule/1``)
so a whole hostile-network scenario can live in a file next to the run
manifest::

    {
      "schema": "repro.faults.schedule/1",
      "windows": [
        {"days": [0, 4], "loss_rate": 0.05},
        {"days": [4, 8], "loss_rate": 0.20},
        {"days": [10, null], "peer_downtime": 0.3}
      ]
    }

``days`` is ``[start, end)`` with ``null`` meaning "until the end of the
run"; the remaining keys are :class:`FaultConfig` field overrides.
Overrides are validated eagerly: each is applied to a default config at
construction time, so a typo'd field name or an out-of-range rate fails
at load, not on day 37 of a long run.

Determinism contract: a schedule whose windows carry no overrides is
behaviourally *and byte-wise* identical to no schedule at all — the
injector's per-day effective config equals the base config, every
message-fate draw short-circuits on the same zero knobs, and no extra
randomness is consumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

from repro.faults.config import FaultConfig

SCHEDULE_SCHEMA = "repro.faults.schedule/1"

_CONFIG_FIELDS = frozenset(f.name for f in fields(FaultConfig))


@dataclass(frozen=True)
class FaultWindow:
    """One episode: days ``[start, end)`` with config overrides.

    ``end=None`` means the window stays active from ``start`` onwards.
    An empty ``overrides`` dict is legal (a no-op window).
    """

    start: int
    end: Optional[int] = None
    overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"window end must be > start, got [{self.start}, {self.end})"
            )
        unknown = set(self.overrides) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(
                f"unknown FaultConfig fields in window overrides: "
                f"{sorted(unknown)}"
            )
        # Fail on out-of-range values now, not mid-run: applying the
        # overrides to a default config runs FaultConfig's own checks.
        replace(FaultConfig(), **self.overrides)

    def covers(self, day: int) -> bool:
        if day < self.start:
            return False
        return self.end is None or day < self.end

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"days": [self.start, self.end]}
        payload.update(self.overrides)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultWindow":
        if not isinstance(payload, dict):
            raise ValueError(
                f"window must be an object, got {type(payload).__name__}"
            )
        days = payload.get("days")
        if (
            not isinstance(days, (list, tuple))
            or len(days) != 2
            or not isinstance(days[0], int)
            or not (days[1] is None or isinstance(days[1], int))
        ):
            raise ValueError(
                f"window 'days' must be [start, end-or-null], got {days!r}"
            )
        overrides = {k: v for k, v in payload.items() if k != "days"}
        return cls(start=days[0], end=days[1], overrides=overrides)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered list of :class:`FaultWindow` episodes."""

    windows: Tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def empty(self) -> bool:
        """True when no window carries any override (a strict no-op)."""
        return all(not w.overrides for w in self.windows)

    def config_on(self, day: int, base: FaultConfig) -> FaultConfig:
        """The effective config for ``day``: base + covering overrides.

        Windows apply in listed order (later windows win on conflicting
        fields).  ``dataclasses.replace`` re-runs ``__post_init__``, so a
        combination of overrides that is individually valid but jointly
        invalid still fails loudly.
        """
        merged: Dict[str, object] = {}
        for window in self.windows:
            if window.covers(day):
                merged.update(window.overrides)
        if not merged:
            return base
        return replace(base, **merged)

    # ------------------------------------------------------------------
    # JSON round-trip

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEDULE_SCHEMA,
            "windows": [w.to_dict() for w in self.windows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, payload: object) -> "FaultSchedule":
        if not isinstance(payload, dict):
            raise ValueError(
                f"schedule must be an object, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != SCHEDULE_SCHEMA:
            raise ValueError(
                f"schedule schema must be {SCHEDULE_SCHEMA!r}, got {schema!r}"
            )
        windows = payload.get("windows")
        if not isinstance(windows, list):
            raise ValueError("schedule missing array 'windows'")
        return cls(
            windows=tuple(FaultWindow.from_dict(w) for w in windows)
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        from repro.util.atomic import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")
