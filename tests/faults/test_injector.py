"""FaultInjector: fate draws, day schedules, determinism."""

from dataclasses import dataclass, field
from typing import List

from repro.faults import (
    FATE_DROP,
    FATE_MALFORMED,
    FATE_OK,
    FATE_TIMEOUT,
    FaultConfig,
    FaultInjector,
)
from repro.util.rng import RngStream


def make(config: FaultConfig, seed: int = 1) -> FaultInjector:
    return FaultInjector(config, RngStream(seed, "test-faults"))


@dataclass
class FakeReply:
    files: List[str] = field(default_factory=lambda: ["a", "b"])


@dataclass
class BareReply:
    accepted: bool = True  # no list payload at all


class TestMessageFate:
    def test_disabled_config_is_all_ok(self):
        injector = make(FaultConfig())
        fates = [injector.message_fate(object()) for _ in range(200)]
        assert set(fates) == {FATE_OK}
        assert injector.stats.faults_injected == 0
        assert injector.stats.messages_total == 200

    def test_certain_loss_drops_everything(self):
        injector = make(FaultConfig(loss_rate=1.0))
        assert injector.message_fate(object()) == FATE_DROP
        assert injector.stats.messages_dropped == 1

    def test_loss_precedes_slowness_precedes_garbling(self):
        injector = make(
            FaultConfig(loss_rate=1.0, slow_rate=1.0, malformed_rate=1.0)
        )
        assert injector.message_fate(object()) == FATE_DROP
        injector = make(FaultConfig(slow_rate=1.0, malformed_rate=1.0))
        assert injector.message_fate(object()) == FATE_TIMEOUT
        injector = make(FaultConfig(malformed_rate=1.0))
        assert injector.message_fate(object()) == FATE_MALFORMED

    def test_rates_roughly_respected(self):
        injector = make(FaultConfig(loss_rate=0.2))
        fates = [injector.message_fate(object()) for _ in range(2000)]
        dropped = fates.count(FATE_DROP)
        assert 300 < dropped < 500  # ~400 expected

    def test_same_seed_same_fates(self):
        config = FaultConfig(loss_rate=0.3, slow_rate=0.2, malformed_rate=0.1)
        first = make(config, seed=7)
        second = make(config, seed=7)
        fates_a = [first.message_fate(object()) for _ in range(500)]
        fates_b = [second.message_fate(object()) for _ in range(500)]
        assert fates_a == fates_b
        assert first.stats == second.stats


class TestDegradeReply:
    def test_list_payload_emptied_copy(self):
        injector = make(FaultConfig())
        reply = FakeReply()
        degraded = injector.degrade_reply(reply)
        assert degraded.files == []
        assert reply.files == ["a", "b"]  # original untouched

    def test_payload_free_reply_lost_entirely(self):
        injector = make(FaultConfig())
        assert injector.degrade_reply(BareReply()) is None

    def test_none_passes_through(self):
        assert make(FaultConfig()).degrade_reply(None) is None


class TestDaySchedule:
    def test_no_downtime_means_empty_set(self):
        injector = make(FaultConfig())
        injector.advance_day(0, range(100))
        assert injector.flaky_offline == set()

    def test_downtime_draws_a_daily_subset(self):
        injector = make(FaultConfig(peer_downtime=0.3))
        injector.advance_day(0, range(200))
        day0 = set(injector.flaky_offline)
        injector.advance_day(1, range(200))
        day1 = set(injector.flaky_offline)
        assert 20 < len(day0) < 100
        assert day0 != day1  # redrawn each day

    def test_day_schedule_independent_of_message_traffic(self):
        config = FaultConfig(loss_rate=0.5, peer_downtime=0.3)
        quiet = make(config, seed=9)
        busy = make(config, seed=9)
        for _ in range(321):  # consume loss stream on one injector only
            busy.message_fate(object())
        quiet.advance_day(4, range(150))
        busy.advance_day(4, range(150))
        assert quiet.flaky_offline == busy.flaky_offline

    def test_day_schedule_independent_of_iteration_order(self):
        injector = make(FaultConfig(peer_downtime=0.3), seed=3)
        other = make(FaultConfig(peer_downtime=0.3), seed=3)
        injector.advance_day(2, [5, 1, 9, 3])
        other.advance_day(2, [9, 3, 5, 1])
        assert injector.flaky_offline == other.flaky_offline


class TestServerEvents:
    def test_crash_and_recovery_days(self):
        injector = make(
            FaultConfig(
                server_crash_day=3, server_crash_id=1, server_downtime_days=2
            )
        )
        assert injector.server_events(2) == ([], [])
        assert injector.server_events(3) == ([1], [])
        assert injector.server_events(4) == ([], [])
        assert injector.server_events(5) == ([], [1])

    def test_zero_downtime_never_recovers(self):
        injector = make(
            FaultConfig(server_crash_day=1, server_downtime_days=0)
        )
        assert injector.server_events(1) == ([0], [])
        for day in range(2, 10):
            assert injector.server_events(day) == ([], [])

    def test_no_schedule_without_crash_day(self):
        injector = make(FaultConfig())
        for day in range(5):
            assert injector.server_events(day) == ([], [])


class TestEdgeCases:
    def test_server_crash_on_day_zero(self):
        """Day 0 is the network build day — crashing then must still
        fire a crash event and later the recovery."""
        injector = make(
            FaultConfig(server_crash_day=0, server_downtime_days=2)
        )
        assert injector.server_events(0) == ([0], [])
        assert injector.server_events(1) == ([], [])
        assert injector.server_events(2) == ([], [0])

    def test_day_zero_crash_through_the_network(self):
        import dataclasses

        from repro.edonkey.network import NetworkConfig, build_network
        from repro.workload.config import WorkloadConfig

        workload = dataclasses.replace(
            WorkloadConfig().small(),
            num_clients=30,
            num_files=400,
            days=3,
            mainstream_pool_size=30,
        )
        network = build_network(
            NetworkConfig(
                workload=workload,
                num_servers=2,
                faults=FaultConfig(server_crash_day=0, server_downtime_days=0),
            ),
            seed=2,
        )
        network.advance_day()  # enters day 0: the crash fires
        assert network.down_servers == {0}
        for _ in range(2):
            network.advance_day()
        # downtime 0: the server never recovers, and the network still
        # satisfies its structural invariants throughout.
        assert network.down_servers == {0}
        assert network.check_invariants() == []

    def test_a_closed_downtime_window_clears_the_flaky_set(self):
        """The daily redraw covers only the clients it is given, and
        dropping downtime to zero mid-run clears the flaky set."""
        from repro.faults import FaultSchedule, FaultWindow

        schedule = FaultSchedule(
            windows=(
                FaultWindow(start=0, end=2, overrides={"peer_downtime": 0.5}),
            )
        )
        injector = FaultInjector(
            FaultConfig(), RngStream(4, "test-faults"), schedule=schedule
        )
        injector.advance_day(0, range(100))
        assert injector.flaky_offline
        injector.advance_day(1, range(50))
        assert injector.flaky_offline <= set(range(50))
        injector.advance_day(2, range(50))  # window closed
        assert injector.flaky_offline == set()
