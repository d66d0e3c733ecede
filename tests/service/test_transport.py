"""Tests for the live transport, TcpTransport."""

import asyncio

import pytest

from repro.edonkey.messages import (
    Ack,
    ConnectRequest,
    QueryUsers,
)
from repro.edonkey.transport import TcpTransport, TransportError
from repro.edonkey.wire import read_frame, write_frame
from repro.service import IndexService, ServiceConfig


def run(coro):
    return asyncio.run(coro)


async def _start_service(**kwargs):
    service = IndexService(ServiceConfig(**kwargs))
    port = await service.start()
    return service, port


class TestTcpTransport:
    def test_request_reply(self):
        async def scenario():
            service, port = await _start_service()
            transport = await TcpTransport.open("127.0.0.1", port)
            reply = await transport.request(
                ConnectRequest(client_id=1, nickname="n", firewalled=False)
            )
            assert reply.accepted
            await transport.aclose()
            service.request_stop()
            await service.serve_until_stopped()

        run(scenario())

    def test_pipelined_requests_match_by_seq(self):
        async def scenario():
            service, port = await _start_service()
            transport = await TcpTransport.open("127.0.0.1", port)
            await transport.request(
                ConnectRequest(client_id=1, nickname="alpha", firewalled=False)
            )
            # Fire many distinguishable requests without awaiting between
            # sends: every reply must land on its own request's future.
            patterns = [f"nick{i}" for i in range(20)]
            replies = await asyncio.gather(
                *(
                    transport.request(QueryUsers(pattern=p))
                    for p in patterns
                )
            )
            assert all(r.supported for r in replies)
            # alpha matches only the queries alpha actually contains.
            hits = [
                p for p, r in zip(patterns, replies) if r.users
            ]
            assert hits == []
            reply = await transport.request(QueryUsers(pattern="alp"))
            assert [u[1] for u in reply.users] == ["alpha"]
            await transport.aclose()
            service.request_stop()
            await service.serve_until_stopped()

        run(scenario())

    def test_timeout_returns_none(self):
        async def scenario():
            # A raw server that accepts but never replies.
            async def sink(reader, writer):
                await reader.read(-1)

            listener = await asyncio.start_server(sink, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            transport = await TcpTransport.open("127.0.0.1", port)
            reply = await transport.request(Ack(), timeout=0.05)
            assert reply is None
            await transport.aclose()
            listener.close()
            await listener.wait_closed()

        run(scenario())

    def test_connect_refused_raises_transport_error(self):
        async def scenario():
            # Bind-and-close to get a port nothing listens on.
            listener = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = listener.sockets[0].getsockname()[1]
            listener.close()
            await listener.wait_closed()
            with pytest.raises(TransportError, match="cannot connect"):
                await TcpTransport.open("127.0.0.1", port)

        run(scenario())

    def test_peer_wire_error_fails_pending_requests(self):
        async def scenario():
            # A server that answers any frame with garbage bytes.
            async def garbage(reader, writer):
                frame = await read_frame(reader)
                assert frame is not None
                writer.write(b"\x00\x00\x00\x02{}")
                await writer.drain()
                await reader.read(-1)

            listener = await asyncio.start_server(garbage, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            transport = await TcpTransport.open("127.0.0.1", port)
            with pytest.raises(Exception):
                await transport.request(Ack(), timeout=5.0)
            await transport.aclose()
            listener.close()
            await listener.wait_closed()

        run(scenario())

    def test_request_after_close_raises(self):
        async def scenario():
            service, port = await _start_service()
            transport = await TcpTransport.open("127.0.0.1", port)
            await transport.aclose()
            with pytest.raises(TransportError, match="closed"):
                await transport.request(Ack())
            service.request_stop()
            await service.serve_until_stopped()

        run(scenario())
