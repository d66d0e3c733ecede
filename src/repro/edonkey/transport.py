"""The live transport of the message plane.

In a simulation, messages move through the in-memory
:class:`~repro.edonkey.network.Network`, whose ``to_server`` /
``to_client`` / ``callback_to_client`` trio is what
:class:`~repro.edonkey.client.Client` calls.  :class:`TcpTransport` is
the asyncio-streams client side of service mode, speaking
``repro.wire/1`` frames to a live ``repro serve`` process.  Its surface
is the async mirror of that trio: requests are sequence-tagged so
several can be in flight on one connection, and a reply suppressed by
the server's fault injector surfaces as ``None`` after the timeout —
exactly how the simulated network reports a dropped or timed-out
message.

Client-to-client messages have no live path: in service mode only the
index server is reachable, and browsing is server-mediated via
:class:`~repro.edonkey.messages.BrowseUser`.  ``TcpTransport.to_client``
therefore raises :class:`TransportError` rather than silently failing.

``asyncio`` is imported lazily inside ``TcpTransport`` methods so that
importing this module (which the CLI's cold-import gate does) keeps the
baseline asyncio-free.
"""

from __future__ import annotations

from typing import Optional


class TransportError(RuntimeError):
    """A transport-level failure: cannot connect, closed, or unroutable."""


class TcpTransport:
    """Asyncio-streams transport speaking framed ``repro.wire/1``.

    Open with :meth:`open`, issue requests with :meth:`request` (or the
    async ``to_server`` mirror), close with :meth:`aclose`.  A single
    background reader task resolves in-flight request futures by the
    sequence number the server echoes, so callers may pipeline freely.
    """

    def __init__(self, reader, writer) -> None:
        import asyncio

        self._reader = reader
        self._writer = writer
        self._next_seq = 0
        self._pending = {}  # seq -> Future
        self._closed = False
        self._error: Optional[BaseException] = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        retry_delay_s: float = 0.2,
    ) -> "TcpTransport":
        """Connect to a live index service.

        ``retries`` covers the serve-process startup race in scripted
        runs: each failed attempt sleeps ``retry_delay_s`` and tries
        again before giving up with :class:`TransportError`.
        """
        import asyncio

        last: Optional[BaseException] = None
        for attempt in range(retries + 1):
            try:
                reader, writer = await asyncio.open_connection(host, port)
                return cls(reader, writer)
            except OSError as exc:
                last = exc
                if attempt < retries:
                    await asyncio.sleep(retry_delay_s)
        raise TransportError(f"cannot connect to {host}:{port}: {last}")

    async def _read_loop(self) -> None:
        from repro.edonkey.wire import WireError, read_frame

        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                message, seq = frame
                future = self._pending.pop(seq, None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (WireError, ConnectionError, OSError) as exc:
            self._error = exc
        failure = self._error or TransportError("connection closed")
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure)
        self._pending.clear()

    async def request(self, message, timeout: Optional[float] = None):
        """Send one request; await its reply.

        Returns ``None`` when no reply arrives within ``timeout`` —
        matching the simulated network's convention for dropped and
        timed-out messages.  Wire-protocol violations from the peer
        (:class:`~repro.edonkey.wire.WireError`) propagate to every
        outstanding request.
        """
        import asyncio

        if self._closed:
            raise TransportError("transport is closed")
        if self._error is not None:
            raise self._error
        seq = self._next_seq
        self._next_seq += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future

        from repro.edonkey.wire import write_frame

        try:
            await write_frame(self._writer, message, seq=seq)
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            return None
        except ConnectionError as exc:
            raise self._error or TransportError(str(exc)) from exc
        finally:
            self._pending.pop(seq, None)

    # Async mirror of the Network trio ---------------------------------

    async def to_server(self, server_id: int, message):
        """The single live endpoint answers regardless of ``server_id``."""
        return await self.request(message)

    async def to_client(self, client_id: int, message):
        raise TransportError(
            "client-to-client messages are server-mediated in service "
            "mode: send BrowseUser to the server instead"
        )

    async def callback_to_client(self, client_id: int, message):
        raise TransportError(
            "callbacks are server-mediated in service mode"
        )

    async def aclose(self) -> None:
        """Close the connection and stop the reader task."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except BaseException:
            pass

    def close(self) -> None:
        """Best-effort sync close; prefer :meth:`aclose` in async code."""
        self._closed = True
        self._writer.close()
        self._reader_task.cancel()
