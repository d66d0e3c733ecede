"""Transport-independent message dispatch: the handler layer.

The message plane is split into three layers (DESIGN.md §15):

- the **codec** (:mod:`repro.edonkey.wire`) turns message dataclasses
  into framed bytes and back;
- the **transport** moves messages — in-process through the simulated
  :class:`~repro.edonkey.network.Network`, or over TCP through
  :class:`~repro.edonkey.transport.TcpTransport`;
- the **handler** (this module) maps a request to the ``handle_*``
  method of its target and returns the reply, knowing nothing about
  either of the other two.

Both transports consume the same handlers: the in-memory network routes
every server/client-bound hop through a :class:`ServerProtocolHandler`
or :class:`ClientProtocolHandler`, and the live asyncio service
(:mod:`repro.service.server`) dispatches decoded TCP frames through an
identical ``ServerProtocolHandler``.

Handlers optionally carry an :class:`~repro.obs.Observer` and record a
per-message-type counter (``protocol/server/SearchRequest``) and a
handle-latency histogram (``protocol/server/handle_s/SearchRequest``).
The simulated network constructs its handlers *without* an observer:
the sim's metric surface (``network/*`` hop counters, span aggregates)
predates this layer and is pinned by committed baselines, so the
per-message protocol metrics are a service-mode feature.  Handler
instances hold only their target and observer — no closures — so they
survive the checkpointer's pickle round-trip.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.edonkey.messages import (
    BlockRequest,
    BrowseRequest,
    BrowseUser,
    CallbackRequest,
    ConnectRequest,
    FileStatusRequest,
    PublishFiles,
    QuerySources,
    QueryUsers,
    SearchRequest,
    ServerListRequest,
)
from repro.obs import LATENCY_BOUNDS_S, NULL_OBSERVER, Observer


class UnroutableMessageError(TypeError):
    """No handler exists for this message type on this target.

    A ``TypeError`` subclass: misrouting a message is a programming
    error, and pre-refactor callers already expect ``TypeError``."""


#: Server-bound request type -> ``Server`` method name.
SERVER_HANDLERS: Dict[type, str] = {
    ConnectRequest: "handle_connect",
    PublishFiles: "handle_publish",
    SearchRequest: "handle_search",
    QuerySources: "handle_query_sources",
    QueryUsers: "handle_query_users",
    ServerListRequest: "handle_server_list",
    CallbackRequest: "handle_callback",
    BrowseUser: "handle_browse_user",
}

#: Client-bound request type -> ``Client`` method name.
CLIENT_HANDLERS: Dict[type, str] = {
    BrowseRequest: "handle_browse",
    FileStatusRequest: "handle_file_status",
    BlockRequest: "handle_block_request",
}


class ProtocolHandler:
    """Request -> reply dispatch table over one target object."""

    role = "peer"
    table: Dict[type, str] = {}

    def __init__(self, target, obs: Optional[Observer] = None) -> None:
        self.target = target
        self.obs = obs if obs is not None else NULL_OBSERVER

    def handle(self, message):
        """Dispatch ``message`` to its handler; returns the reply.

        Replies may be ``None`` (``PublishFiles``) or a bare bool
        (``CallbackRequest``) — wrapping those into wire messages is the
        transport's business, not the handler's."""
        name = self.table.get(type(message))
        if name is None:
            raise UnroutableMessageError(
                f"unroutable {self.role} message {type(message).__name__}"
            )
        method = getattr(self.target, name)
        obs = self.obs
        if not obs.enabled:
            return method(message)
        kind = type(message).__name__
        start = obs.clock()
        reply = method(message)
        elapsed = obs.clock() - start
        obs.count(f"protocol/{self.role}/{kind}")
        obs.hist(
            f"protocol/{self.role}/handle_s/{kind}", elapsed, LATENCY_BOUNDS_S
        )
        return reply


class ServerProtocolHandler(ProtocolHandler):
    """Dispatch for one :class:`~repro.edonkey.server.Server`."""

    role = "server"
    table = SERVER_HANDLERS


class ClientProtocolHandler(ProtocolHandler):
    """Dispatch for one :class:`~repro.edonkey.client.Client`."""

    role = "client"
    table = CLIENT_HANDLERS
