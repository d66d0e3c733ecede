"""FaultConfig validation and the `enabled` gate."""

import pytest

from repro.faults import FaultConfig


class TestValidation:
    def test_defaults_are_valid_and_disabled(self):
        config = FaultConfig()
        assert not config.enabled

    @pytest.mark.parametrize(
        "field", ["loss_rate", "slow_rate", "malformed_rate", "peer_downtime"]
    )
    def test_rates_must_be_fractions(self, field):
        with pytest.raises(ValueError):
            FaultConfig(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultConfig(**{field: -0.1})

    def test_server_crash_day_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FaultConfig(server_crash_day=-1)
        FaultConfig(server_crash_day=0)  # day 0 is a valid crash day


class TestEnabled:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_rate": 0.01},
            {"slow_rate": 0.01},
            {"malformed_rate": 0.01},
            {"peer_downtime": 0.01},
            {"server_crash_day": 3},
            {"server_crash_day": 0},
        ],
    )
    def test_any_knob_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled


class TestServerKnobValidation:
    def test_negative_downtime_rejected(self):
        with pytest.raises(ValueError, match="server_downtime_days"):
            FaultConfig(server_downtime_days=-1)

    def test_zero_downtime_is_valid(self):
        # 0 means "the crashed server never comes back", not "instant
        # recovery" — a legal, documented configuration.
        FaultConfig(server_crash_day=2, server_downtime_days=0)

    def test_negative_crash_id_rejected(self):
        with pytest.raises(ValueError, match="server_crash_id"):
            FaultConfig(server_crash_id=-1)
