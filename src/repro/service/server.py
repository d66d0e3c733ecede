"""The live index service: ``repro serve``.

Stands the simulator's :class:`~repro.edonkey.server.Server` up as a
long-running asyncio TCP service.  The message plane layers compose
here exactly as in the simulation — only the transport differs:

- frames arrive over asyncio streams and are decoded by
  :mod:`repro.edonkey.wire` (``repro.wire/1``);
- each decoded request passes through the *same*
  :class:`~repro.edonkey.protocol.ServerProtocolHandler` the in-memory
  network uses, wrapped in the *same*
  :meth:`~repro.faults.FaultInjector.filtered_dispatch` fault seam;
- the reply is framed back with the request's sequence number, so
  clients can pipeline and still match replies when the fault injector
  suppresses some.

Handlers returning ``None`` (``PublishFiles``) or a bare bool
(``CallbackRequest``) are wrapped into :class:`~repro.edonkey.messages.Ack`;
handler-level protocol errors (publish before connect) and replies the
codec refuses to frame (above ``MAX_FRAME_BYTES``) become
:class:`~repro.edonkey.messages.ErrorReply` rather than a torn
connection.  When a connection closes, every client id that connected
on it is disconnected from the index — the TCP session *is* the
eDonkey session.

Shutdown is graceful: SIGTERM/SIGINT stop the listener, in-flight
connections get ``grace_s`` seconds to finish, stragglers are
cancelled (their sessions still unpublished), and ``repro serve``
exits 0 — the drain contract the CI smoke job asserts.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.edonkey.messages import Ack, ConnectRequest, ErrorReply
from repro.edonkey.protocol import (
    ServerProtocolHandler,
    UnroutableMessageError,
)
from repro.edonkey.server import Server, ServerConfig
from repro.edonkey.wire import WireError, encode_frame, read_frame, write_frame
from repro.faults import FaultConfig, FaultInjector
from repro.obs import NULL_OBSERVER, Observer
from repro.util.rng import RngStream

#: Sentinel: the fault injector suppressed the reply (drop/timeout) —
#: send nothing and let the client's deadline expire.
_SUPPRESS = object()


@dataclass
class ServiceConfig:
    """Knobs of one ``repro serve`` process."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; IndexService.port has the answer
    seed: int = 0  # drives the fault injector's RNG streams
    max_users: int = 200_000
    reply_limit: int = 200
    supports_query_users: bool = True
    grace_s: float = 5.0
    faults: FaultConfig = field(default_factory=FaultConfig)


class IndexService:
    """One index server behind an asyncio TCP listener."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        obs: Optional[Observer] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.server = Server(
            server_id=0,
            config=ServerConfig(
                max_users=self.config.max_users,
                reply_limit=self.config.reply_limit,
                supports_query_users=self.config.supports_query_users,
            ),
        )
        self.handler = ServerProtocolHandler(self.server, obs=self.obs)
        self.faults = FaultInjector(
            self.config.faults, RngStream(self.config.seed, "service-faults")
        )
        self.requests_total = 0
        self.port: Optional[int] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._draining = False
        self._stop_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        self._stop_event = asyncio.Event()
        self._listener = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        return self.port

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (POSIX loops only)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    def request_stop(self) -> None:
        """Ask the service to drain; safe to call from a signal handler."""
        if self._stop_event is not None and not self._stop_event.is_set():
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop`, then drain and return."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, let live connections finish, then close up.

        In-flight requests complete on their own; idle keep-alive
        connections would park the drain forever, so after ``grace_s``
        seconds the stragglers are cancelled (each cancelled handler
        still runs its disconnect bookkeeping).
        """
        self._draining = True
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        if self._connections:
            done, pending = await asyncio.wait(
                set(self._connections), timeout=self.config.grace_s
            )
            if pending:
                self.obs.count("service/connections_aborted", len(pending))
                for task in pending:
                    task.cancel()
                await asyncio.wait(pending, timeout=1.0)
        self.obs.gauge("progress/requests_done", self.requests_total)
        self.obs.gauge("progress/active_connections", 0)

    # ------------------------------------------------------------------
    # Per-connection session loop

    async def _on_connection(self, reader, writer) -> None:
        if self._draining:
            writer.close()
            return
        task = asyncio.current_task()
        self._connections.add(task)
        connected: Set[int] = set()
        self.obs.count("service/connections")
        self.obs.gauge("progress/active_connections", len(self._connections))
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except WireError as exc:
                    # A peer speaking garbage gets one framed error,
                    # then the connection is closed: past this point
                    # the byte stream cannot be trusted.
                    self.obs.count("service/wire_errors")
                    try:
                        await write_frame(writer, ErrorReply(reason=str(exc)))
                    except (ConnectionError, OSError):
                        pass
                    break
                if frame is None:
                    break
                message, seq = frame
                reply = self._handle(message, connected)
                if reply is _SUPPRESS:
                    continue
                writer.write(self._reply_frame(reply, seq))
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            for client_id in sorted(connected):
                self.server.handle_disconnect(client_id)
            writer.close()
            self._connections.discard(task)
            self.obs.gauge(
                "progress/active_connections", len(self._connections)
            )

    def _reply_frame(self, reply, seq: Optional[int]) -> bytes:
        """``reply`` framed under ``seq``; a reply the codec refuses (one
        above ``MAX_FRAME_BYTES``, say) becomes a framed ``ErrorReply``,
        and the connection stays open."""
        try:
            return encode_frame(reply, seq=seq)
        except WireError as exc:
            self.obs.count("service/reply_wire_errors")
            return encode_frame(ErrorReply(reason=str(exc)), seq=seq)

    def _handle(self, message, connected: Set[int]):
        """Dispatch one decoded request; returns the wire reply."""
        self.requests_total += 1
        self.obs.gauge("progress/requests_done", self.requests_total)

        def dispatch(msg):
            try:
                reply = self.handler.handle(msg)
            except UnroutableMessageError as exc:
                self.obs.count("service/unroutable")
                return ErrorReply(reason=str(exc))
            except KeyError as exc:
                # Handler-level protocol errors, e.g. publish before
                # connect — report, don't tear the connection down.
                self.obs.count("service/protocol_errors")
                return ErrorReply(reason=f"protocol error: {exc}")
            if isinstance(msg, ConnectRequest) and reply.accepted:
                connected.add(msg.client_id)
            if reply is None:
                return Ack()
            if isinstance(reply, bool):
                return Ack(ok=reply)
            return reply

        if not self.faults.enabled:
            return dispatch(message)
        reply = self.faults.filtered_dispatch(message, dispatch)
        if reply is None:
            # Dropped or timed out at the transport seam (or an Ack
            # degraded to nothing): the client's deadline handles it.
            self.obs.count("service/replies_suppressed")
            return _SUPPRESS
        return reply


async def run_service(
    config: Optional[ServiceConfig] = None,
    obs: Optional[Observer] = None,
    port_file: Optional[str] = None,
    announce=print,
) -> IndexService:
    """Start a service, publish its port, and serve until stopped.

    ``port_file`` (atomic write) is how scripted runs discover a
    ``--port 0`` listener; ``announce`` receives one human-readable
    line once the socket is bound.
    """
    service = IndexService(config, obs=obs)
    port = await service.start()
    service.install_signal_handlers()
    if port_file:
        from repro.util.atomic import atomic_write_text

        atomic_write_text(port_file, f"{port}\n")
    announce(
        f"Serving eDonkey index on {service.config.host}:{port} "
        "(SIGTERM drains)"
    )
    await service.serve_until_stopped()
    return service
