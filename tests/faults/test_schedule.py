"""FaultSchedule: windows, merging, JSON round-trip, and the two
determinism contracts (empty schedule = byte-identity; fixed seed =
reproducible storm)."""

import dataclasses

import pytest

from repro.edonkey.crawler import Crawler, CrawlerConfig
from repro.edonkey.network import NetworkConfig, build_network
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultSchedule,
    FaultWindow,
)
from repro.trace.io import dumps_trace
from repro.util.rng import RngStream
from repro.workload.config import WorkloadConfig


class TestFaultWindow:
    def test_covers_half_open_interval(self):
        window = FaultWindow(start=2, end=5)
        assert [d for d in range(8) if window.covers(d)] == [2, 3, 4]

    def test_open_ended_window(self):
        window = FaultWindow(start=3)
        assert window.covers(3) and window.covers(1000)
        assert not window.covers(2)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultWindow(start=-1)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="end"):
            FaultWindow(start=3, end=3)

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultWindow(start=0, overrides={"loss_rete": 0.1})

    def test_invalid_override_value_rejected_eagerly(self):
        with pytest.raises(ValueError, match="loss_rate"):
            FaultWindow(start=0, overrides={"loss_rate": 1.5})


class TestConfigOn:
    def test_uncovered_day_returns_base_object(self):
        base = FaultConfig(loss_rate=0.1)
        schedule = FaultSchedule(
            windows=(FaultWindow(start=5, end=6, overrides={"loss_rate": 0.5}),)
        )
        assert schedule.config_on(0, base) is base

    def test_covering_window_overrides(self):
        schedule = FaultSchedule(
            windows=(FaultWindow(start=0, end=2, overrides={"loss_rate": 0.5}),)
        )
        assert schedule.config_on(1, FaultConfig()).loss_rate == 0.5
        assert schedule.config_on(2, FaultConfig()).loss_rate == 0.0

    def test_later_windows_win(self):
        schedule = FaultSchedule(
            windows=(
                FaultWindow(start=0, overrides={"loss_rate": 0.1}),
                FaultWindow(start=2, overrides={"loss_rate": 0.4}),
            )
        )
        assert schedule.config_on(1, FaultConfig()).loss_rate == 0.1
        assert schedule.config_on(3, FaultConfig()).loss_rate == 0.4

    def test_empty(self):
        no_op = FaultSchedule(windows=(FaultWindow(start=0, end=4),))
        assert no_op.empty
        storm = FaultSchedule(
            windows=(FaultWindow(start=0, end=3, overrides={"loss_rate": 0.1}),)
        )
        assert not storm.empty


class TestJsonRoundTrip:
    def test_round_trip(self):
        schedule = FaultSchedule(
            windows=(
                FaultWindow(start=0, end=4, overrides={"loss_rate": 0.05}),
                FaultWindow(start=4, overrides={"peer_downtime": 0.3}),
            )
        )
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_save_load(self, tmp_path):
        schedule = FaultSchedule(
            windows=(
                FaultWindow(start=0, end=2, overrides={"loss_rate": 0.1}),
                FaultWindow(start=2, end=4, overrides={"loss_rate": 0.3}),
            )
        )
        path = tmp_path / "storm.json"
        schedule.save(path)
        assert FaultSchedule.load(path) == schedule

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            FaultSchedule.from_json('{"schema": "nope", "windows": []}')

    def test_malformed_days_rejected(self):
        with pytest.raises(ValueError, match="days"):
            FaultSchedule.from_json(
                '{"schema": "repro.faults.schedule/1", '
                '"windows": [{"days": [3]}]}'
            )


class TestInjectorWiring:
    def test_schedule_changes_effective_config_per_day(self):
        schedule = FaultSchedule(
            windows=(
                FaultWindow(start=0, end=1, overrides={"loss_rate": 0.2}),
                FaultWindow(start=1, end=2, overrides={"loss_rate": 0.6}),
            )
        )
        injector = FaultInjector(
            FaultConfig(), RngStream(0, "faults"), schedule=schedule
        )
        assert injector.active
        injector.advance_day(0, [])
        assert injector.enabled
        assert injector.config.loss_rate == 0.2
        injector.advance_day(1, [])
        assert injector.config.loss_rate == 0.6
        injector.advance_day(2, [])
        assert injector.config.loss_rate == 0.0
        assert not injector.enabled  # past the storm: back to the base
        assert injector.base_config == FaultConfig()

    def test_empty_schedule_is_inactive(self):
        injector = FaultInjector(
            FaultConfig(),
            RngStream(0, "faults"),
            schedule=FaultSchedule(windows=(FaultWindow(start=0, end=3),)),
        )
        assert not injector.active


def _crawl(schedule, days=4, seed=3):
    workload = dataclasses.replace(
        WorkloadConfig().small(),
        num_clients=40,
        num_files=600,
        days=days,
        mainstream_pool_size=40,
    )
    network = build_network(
        NetworkConfig(workload=workload, fault_schedule=schedule), seed=seed
    )
    crawler = Crawler(network, CrawlerConfig(days=days), seed=seed)
    return dumps_trace(crawler.crawl())


class TestDeterminismContracts:
    def test_all_empty_schedule_is_byte_identical_to_none(self):
        no_op = FaultSchedule(
            windows=(FaultWindow(start=0, end=2), FaultWindow(start=2))
        )
        assert _crawl(schedule=no_op) == _crawl(schedule=None)

    def test_ramping_loss_reproduces_under_fixed_seed(self):
        storm = FaultSchedule(
            windows=(
                FaultWindow(start=0, end=2, overrides={"loss_rate": 0.1}),
                FaultWindow(start=2, end=4, overrides={"loss_rate": 0.3}),
            )
        )
        first = _crawl(schedule=storm)
        second = _crawl(schedule=storm)
        assert first == second
        # ...and the storm actually bites: the trace differs from calm.
        assert first != _crawl(schedule=None)


class TestCrashRecoveryCycles:
    def test_repeated_crash_and_recovery_windows(self):
        """Two crash/recovery cycles driven purely by the schedule.

        Each window covers both its crash day and its recovery day, as
        ``server_events`` documents — that is what makes the cycle fire.
        """
        schedule = FaultSchedule(
            windows=(
                FaultWindow(
                    start=1,
                    end=3,
                    overrides={"server_crash_day": 1, "server_downtime_days": 1},
                ),
                FaultWindow(
                    start=4,
                    end=6,
                    overrides={"server_crash_day": 4, "server_downtime_days": 1},
                ),
            )
        )
        injector = FaultInjector(
            FaultConfig(), RngStream(0, "faults"), schedule=schedule
        )
        log = []
        for day in range(7):
            injector.advance_day(day, [])
            crashes, recoveries = injector.server_events(day)
            log.extend((day, "crash", s) for s in crashes)
            log.extend((day, "recover", s) for s in recoveries)
        assert log == [
            (1, "crash", 0),
            (2, "recover", 0),
            (4, "crash", 0),
            (5, "recover", 0),
        ]
