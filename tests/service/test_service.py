"""Tests for the live index service and the load generator."""

import asyncio
import struct
import sys
import time

import pytest

from repro.edonkey import wire
from repro.edonkey.messages import (
    Ack,
    BrowseUser,
    ConnectRequest,
    ErrorReply,
    FileDescription,
    Keyword,
    Not,
    PublishFiles,
    QuerySources,
    SearchReply,
    SearchRequest,
    SourcesReply,
)
from repro.edonkey.transport import TcpTransport, TransportError
from repro.faults import FaultConfig
from repro.obs import Observer
from repro.service import (
    IndexService,
    LoadGenConfig,
    ServiceConfig,
    build_plan,
    run_loadgen,
)


def run(coro):
    return asyncio.run(coro)


async def _service(**kwargs):
    service = IndexService(ServiceConfig(**kwargs))
    await service.start()
    return service


async def _stop(service):
    service.request_stop()
    await service.serve_until_stopped()


def desc(file_id="f1", name="shared file", size=1000):
    return FileDescription(file_id=file_id, name=name, size=size)


class TestIndexService:
    def test_connect_publish_search(self):
        async def scenario():
            service = await _service()
            t = await TcpTransport.open("127.0.0.1", service.port)
            reply = await t.request(
                ConnectRequest(client_id=1, nickname="n", firewalled=False)
            )
            assert reply.accepted
            ack = await t.request(PublishFiles(client_id=1, files=[desc()]))
            assert isinstance(ack, Ack) and ack.ok
            found = await t.request(
                SearchRequest(client_id=1, query=Keyword("shared"))
            )
            assert isinstance(found, SearchReply)
            assert [d.file_id for d in found.results] == ["f1"]
            await t.aclose()
            await _stop(service)

        run(scenario())

    def test_publish_before_connect_is_error_reply(self):
        async def scenario():
            service = await _service()
            t = await TcpTransport.open("127.0.0.1", service.port)
            reply = await t.request(PublishFiles(client_id=1, files=[]))
            assert isinstance(reply, ErrorReply)
            assert "protocol error" in reply.reason
            await t.aclose()
            await _stop(service)

        run(scenario())

    def test_unroutable_message_is_error_reply(self):
        async def scenario():
            service = await _service()
            t = await TcpTransport.open("127.0.0.1", service.port)
            # SearchReply is a reply type; a client must not send it.
            reply = await t.request(SearchReply(results=[]))
            assert isinstance(reply, ErrorReply)
            assert "unroutable" in reply.reason
            await t.aclose()
            await _stop(service)

        run(scenario())

    def test_garbage_bytes_get_framed_error_then_close(self):
        async def scenario():
            service = await _service()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"\x00\x00\x00\x05notjs")
            await writer.drain()
            from repro.edonkey.wire import read_frame

            frame = await read_frame(reader)
            assert frame is not None
            message, _ = frame
            assert isinstance(message, ErrorReply)
            # The service hangs up after the error frame.
            assert await reader.read(64) == b""
            writer.close()
            await _stop(service)

        run(scenario())

    def test_disconnect_on_connection_close(self):
        async def scenario():
            service = await _service()
            t = await TcpTransport.open("127.0.0.1", service.port)
            await t.request(
                ConnectRequest(client_id=9, nickname="n", firewalled=False)
            )
            await t.request(PublishFiles(client_id=9, files=[desc()]))
            assert 9 in service.server._sessions
            await t.aclose()
            # Give the service's connection task a beat to run its
            # disconnect bookkeeping.
            for _ in range(100):
                if 9 not in service.server._sessions:
                    break
                await asyncio.sleep(0.01)
            assert 9 not in service.server._sessions
            # The session's files are unpublished with it.
            t2 = await TcpTransport.open("127.0.0.1", service.port)
            await t2.request(
                ConnectRequest(client_id=10, nickname="m", firewalled=False)
            )
            sources = await t2.request(
                QuerySources(client_id=10, file_id="f1")
            )
            assert sources.sources == []
            await t2.aclose()
            await _stop(service)

        run(scenario())

    def test_reconnect_cycles_keep_the_index_bounded(self):
        """connect -> publish fresh ids -> connect, over and over, leaves
        only the last cycle's files indexed: a re-connect unpublishes
        the session it replaces."""

        async def scenario():
            service = await _service()
            t = await TcpTransport.open("127.0.0.1", service.port)
            for cycle in range(20):
                reply = await t.request(
                    ConnectRequest(
                        client_id=1, nickname=f"n{cycle:03d}", firewalled=False
                    )
                )
                assert reply.accepted
                files = [desc(f"c{cycle}-{i}", name=f"t{cycle} x") for i in range(3)]
                await t.request(PublishFiles(client_id=1, files=files))
            server = service.server
            assert len(server._sources) == len(server._descriptions) == 3
            assert set(server._keywords) == {"t19", "x", "unknown"}
            assert set(server._nick_trigrams) == {"n01", "019"}
            assert server.check_invariants() == []
            await t.aclose()
            await _stop(service)

        run(scenario())

    def test_browse_user_is_server_mediated(self):
        async def scenario():
            service = await _service()
            t = await TcpTransport.open("127.0.0.1", service.port)
            await t.request(
                ConnectRequest(client_id=1, nickname="a", firewalled=False)
            )
            await t.request(PublishFiles(client_id=1, files=[desc()]))
            browse = await t.request(
                BrowseUser(requester_id=2, target_id=1)
            )
            assert browse.allowed
            assert [d.file_id for d in browse.files] == ["f1"]
            missing = await t.request(
                BrowseUser(requester_id=2, target_id=404)
            )
            assert not missing.allowed
            await t.aclose()
            await _stop(service)

        run(scenario())

    def test_drain_rejects_new_connections(self):
        async def scenario():
            service = await _service(grace_s=1.0)
            t = await TcpTransport.open("127.0.0.1", service.port)
            await t.request(
                ConnectRequest(client_id=1, nickname="n", firewalled=False)
            )
            await t.aclose()
            await _stop(service)
            # The listener is gone: connecting now fails.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", service.port)

        run(scenario())

    def test_fault_injection_at_the_seam(self):
        async def scenario():
            # loss_rate=1.0: every request is dropped before dispatch,
            # so no reply frame is ever written.
            service = await _service(faults=FaultConfig(loss_rate=1.0))
            t = await TcpTransport.open("127.0.0.1", service.port)
            reply = await t.request(
                ConnectRequest(client_id=1, nickname="n", firewalled=False),
                timeout=0.2,
            )
            assert reply is None  # suppressed, surfaced as a timeout
            assert service.faults.stats.messages_dropped >= 1
            assert service.server._sessions == {}  # never dispatched
            await t.aclose()
            await _stop(service)

        run(scenario())

    def test_malformed_fault_empties_payload(self):
        async def scenario():
            service = await _service(
                faults=FaultConfig(malformed_rate=1.0)
            )
            t = await TcpTransport.open("127.0.0.1", service.port)
            reply = await t.request(
                ConnectRequest(client_id=1, nickname="n", firewalled=False),
                timeout=2.0,
            )
            # ConnectReply carries no list payload the injector can
            # empty except server_list — it arrives degraded, and the
            # session itself still exists (the request was dispatched).
            assert 1 in service.server._sessions
            await t.request(
                PublishFiles(client_id=1, files=[desc()]), timeout=2.0
            )
            found = await t.request(
                SearchRequest(client_id=1, query=Keyword("shared")),
                timeout=2.0,
            )
            assert isinstance(found, SearchReply)
            assert found.results == []  # garbled: payload emptied
            assert service.faults.stats.malformed_replies >= 1
            await t.aclose()
            await _stop(service)
            del reply

        run(scenario())

    def test_deep_not_chain_is_answered(self):
        async def scenario():
            service = await _service()
            t = await TcpTransport.open("127.0.0.1", service.port)
            await t.request(
                ConnectRequest(client_id=1, nickname="n", firewalled=False)
            )
            await t.request(PublishFiles(client_id=1, files=[desc()]))
            query = Keyword("shared")
            for _ in range(300):  # ~10 KB on the wire
                query = Not(query)
            found = await t.request(SearchRequest(client_id=1, query=query))
            assert isinstance(found, SearchReply)
            assert [d.file_id for d in found.results] == ["f1"]
            await t.aclose()
            await _stop(service)

        run(scenario())

    def test_too_deeply_nested_frame_gets_framed_wire_error(self):
        async def scenario():
            obs = Observer()
            service = IndexService(ServiceConfig(), obs=obs)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            depth = sys.getrecursionlimit()
            query = (
                '{"$type":"Not","fields":{"part":' * depth
                + '{"$type":"Keyword","fields":{"field":null,"term":"x"}}'
                + "}}" * depth
            )
            payload = (
                '{"fields":{"client_id":1,"limit":5,"query":' + query + "},"
                f'"seq":0,"type":"SearchRequest","v":"{wire.WIRE_SCHEMA}"}}'
            ).encode("ascii")
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
            message, _ = await wire.read_frame(reader)
            assert isinstance(message, ErrorReply)
            assert "nested too deeply" in message.reason
            assert await reader.read(64) == b""
            assert obs.counters["service/wire_errors"] == 1
            writer.close()
            await _stop(service)

        run(scenario())

    def test_unknown_query_field_gets_framed_wire_error(self):
        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            obs = Observer()
            service = IndexService(ServiceConfig(), obs=obs)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            # An indexed file, so a search would have to test the field.
            for request in (
                ConnectRequest(client_id=1, nickname="n", firewalled=False),
                PublishFiles(client_id=1, files=[desc()]),
            ):
                await wire.write_frame(writer, request)
                await wire.read_frame(reader)
            query = '{"$type":"Keyword","fields":{"field":"bogus","term":"x"}}'
            payload = (
                '{"fields":{"client_id":1,"limit":5,"query":' + query + "},"
                f'"seq":0,"type":"SearchRequest","v":"{wire.WIRE_SCHEMA}"}}'
            ).encode("ascii")
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
            frame = await asyncio.wait_for(wire.read_frame(reader), 5)
            assert frame is not None
            message, _ = frame
            assert isinstance(message, ErrorReply)
            assert "unknown query field 'bogus'" in message.reason
            assert await reader.read(64) == b""
            assert obs.counters["service/wire_errors"] == 1
            writer.close()
            await _stop(service)
            assert unhandled == []

        run(scenario())

    def test_oversized_reply_is_framed_error_on_open_connection(
        self, monkeypatch
    ):
        async def scenario():
            obs = Observer()
            service = IndexService(ServiceConfig(), obs=obs)
            await service.start()
            t = await TcpTransport.open("127.0.0.1", service.port)
            await t.request(
                ConnectRequest(client_id=1, nickname="n", firewalled=False)
            )
            files = [desc(f"f{i:03d}", name=f"song {i}") for i in range(160)]
            await t.request(PublishFiles(client_id=1, files=files))
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 20_000)
            big = await t.request(SearchRequest(client_id=1, query=Keyword("song")))
            assert isinstance(big, ErrorReply)
            assert "oversized frame" in big.reason
            assert obs.counters["service/reply_wire_errors"] == 1
            # Same connection, session still published.
            sources = await t.request(QuerySources(client_id=1, file_id="f007"))
            assert isinstance(sources, SourcesReply)
            assert sources.sources == [1]
            await t.aclose()
            await _stop(service)

        run(scenario())


class TestLoadGen:
    def test_plan_is_deterministic(self):
        config = LoadGenConfig(port=1, requests=200, sessions=4)
        a = build_plan(config)
        b = build_plan(config)
        assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
        assert [op.message for op in a.ops] == [op.message for op in b.ops]
        assert a.mix == b.mix
        assert sum(a.mix.values()) == 200

    def test_plan_sessions_have_unique_ids_and_files(self):
        # More sessions than sharers: ids must still be unique.
        plan = build_plan(
            LoadGenConfig(port=1, requests=10, sessions=64)
        )
        ids = [s.client_id for s in plan.sessions]
        assert len(set(ids)) == len(ids) == 64
        assert all(s.files for s in plan.sessions)

    def test_end_to_end_against_live_service(self):
        async def scenario():
            obs = Observer()
            service = IndexService(ServiceConfig(), obs=obs)
            port = await service.start()
            result = await run_loadgen(
                LoadGenConfig(
                    port=port,
                    requests=400,
                    rate=4000.0,
                    sessions=4,
                    timeout_s=10.0,
                ),
                obs=obs,
            )
            await _stop(service)
            return result, obs.report()

        result, metrics = run(scenario())
        assert result.requests == 400
        assert result.ok == 400
        assert result.errors == 0 and result.timeouts == 0
        assert result.p99_ms >= result.p50_ms > 0
        assert result.throughput_rps > 0
        # The metrics payload carries the latency histogram and the
        # summary gauges the CI smoke job asserts on.
        assert metrics.histograms["loadgen/latency_s"]["count"] == 400
        assert metrics.gauges["loadgen/p99_ms"] > 0
        assert metrics.counters["service/connections"] == 4
        # Counters (not latencies) are deterministic: sent == ok per kind.
        for kind, n in result.mix.items():
            assert metrics.counters[f"loadgen/sent/{kind}"] == n
            assert metrics.counters[f"loadgen/ok/{kind}"] == n

    def test_an_unanswered_connect_is_resent(self):
        # At this seed the lossy service loses the first session's
        # ConnectRequest: loadgen resends it instead of aborting the run.
        async def scenario():
            obs = Observer()
            service = IndexService(
                ServiceConfig(seed=3, faults=FaultConfig(loss_rate=0.1)),
                obs=obs,
            )
            port = await service.start()
            result = await run_loadgen(
                LoadGenConfig(
                    port=port,
                    requests=50,
                    rate=2000.0,
                    sessions=4,
                    seed=3,
                    timeout_s=0.2,
                ),
                obs=obs,
            )
            await _stop(service)
            return result, obs.report()

        result, metrics = run(scenario())
        assert result.ok + result.errors + result.timeouts == 50
        assert result.timeouts > 0
        assert metrics.histograms["loadgen/latency_s"]["count"] == 50

    def test_an_unanswered_publish_is_resent(self, monkeypatch):
        # At this seed the lossy service leaves one session's
        # PublishFiles unanswered: loadgen resends it until it is
        # answered, so no session searches from an index it never joined.
        original = TcpTransport.request
        publish_replies = {}

        async def request(self, message, *args, **kwargs):
            reply = await original(self, message, *args, **kwargs)
            if isinstance(message, PublishFiles):
                publish_replies.setdefault(message.client_id, []).append(reply)
            return reply

        monkeypatch.setattr(TcpTransport, "request", request)

        async def scenario():
            service = IndexService(
                ServiceConfig(
                    seed=0, faults=FaultConfig(loss_rate=0.05, slow_rate=0.05)
                )
            )
            port = await service.start()
            result = await run_loadgen(
                LoadGenConfig(
                    port=port,
                    requests=50,
                    rate=2000.0,
                    sessions=8,
                    seed=0,
                    timeout_s=0.3,
                )
            )
            await _stop(service)
            return result

        result = run(scenario())
        assert result.requests == 50
        assert len(publish_replies) == 8
        assert any(None in replies for replies in publish_replies.values())
        for client_id, replies in publish_replies.items():
            assert isinstance(replies[-1], Ack), (client_id, replies)

    def test_a_publish_never_answered_aborts_the_run(self, monkeypatch):
        original = TcpTransport.request
        publishes = []

        async def request(self, message, *args, **kwargs):
            if isinstance(message, PublishFiles):
                publishes.append(message)
                return None
            return await original(self, message, *args, **kwargs)

        monkeypatch.setattr(TcpTransport, "request", request)

        async def scenario():
            service = await _service()
            try:
                await run_loadgen(
                    LoadGenConfig(
                        port=service.port, requests=10, sessions=1,
                        connect_retries=2,
                    )
                )
            finally:
                await _stop(service)

        with pytest.raises(TransportError, match="PublishFiles unanswered"):
            run(scenario())
        assert len(publishes) == 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LoadGenConfig(requests=0)
        with pytest.raises(ValueError):
            LoadGenConfig(rate=0)
        with pytest.raises(ValueError):
            LoadGenConfig(sessions=0)


class TestCodecMetrics:
    """``repro serve`` times each reply encode and counts what the
    codec's fragment store saved, when metrics are on."""

    @staticmethod
    async def _search_twice(obs):
        service = IndexService(ServiceConfig(), obs=obs)
        await service.start()
        t = await TcpTransport.open("127.0.0.1", service.port)
        await t.request(ConnectRequest(client_id=1, nickname="n", firewalled=False))
        files = [desc(f"f{i}", name=f"shared file {i}") for i in range(3)]
        await t.request(PublishFiles(client_id=1, files=files))
        search = SearchRequest(client_id=1, query=Keyword("shared"))
        replies, fragments = [], []
        for _ in range(2):
            replies.append(await t.request(search))
            fragments.append(
                (
                    obs.counters.get("wire/fragments/hits", 0),
                    obs.counters.get("wire/fragments/misses", 0),
                )
            )
        await t.aclose()
        await _stop(service)
        return replies, fragments

    def test_a_repeated_search_is_answered_from_fragments(self):
        obs = Observer()
        replies, fragments = run(self._search_twice(obs))
        assert replies[0] == replies[1] and len(replies[0].results) == 3
        assert fragments == [(0, 3), (3, 3)]
        metrics = obs.report()
        assert metrics.gauges["wire/fragments/entries"] >= 3
        assert metrics.histograms["service/encode_s/SearchReply"]["count"] == 2
        assert metrics.histograms["service/encode_s/Ack"]["count"] == 1

    def test_nothing_is_recorded_with_metrics_off(self):
        obs = Observer(enabled=False)
        replies, _ = run(self._search_twice(obs))
        assert len(replies[1].results) == 3
        metrics = obs.report()
        assert not metrics.counters and not metrics.gauges
        assert not metrics.histograms


class TestLoadGenTiming:
    def test_a_stalled_loop_shows_in_the_latencies(self, monkeypatch):
        # 100 requests due over 0.1 s; the loop stalls 0.3 s before the
        # first read request goes out, so the other 99 leave late.
        stall_s = 0.3
        original = TcpTransport.request
        stalled = []

        async def request(self, message, *args, **kwargs):
            if not stalled and not isinstance(
                message, (ConnectRequest, PublishFiles)
            ):
                stalled.append(message)
                time.sleep(stall_s)
            return await original(self, message, *args, **kwargs)

        monkeypatch.setattr(TcpTransport, "request", request)

        async def scenario():
            obs = Observer()
            service = IndexService(ServiceConfig())
            port = await service.start()
            result = await run_loadgen(
                LoadGenConfig(
                    port=port, requests=100, rate=1000.0, sessions=2, timeout_s=10.0
                ),
                obs=obs,
            )
            await _stop(service)
            return result, obs.report()

        result, metrics = run(scenario())
        assert stalled and result.ok == 100
        assert result.p50_ms >= 200
        assert metrics.gauges["loadgen/late_p99_ms"] >= 200
        assert metrics.histograms["loadgen/late_s"]["count"] == 100
        assert metrics.histograms["loadgen/latency_s"]["count"] == 100
