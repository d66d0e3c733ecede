"""Seeded open-loop load generator: ``repro loadgen``.

Replays a live register/search/source-query mix (the request classes
"Ten weeks in the life of an eDonkey server" measures) against a
``repro serve`` process.  The mix is derived from a
:class:`~repro.trace.compiled.CompiledTrace` of the seeded synthetic
workload, so the load is *the paper's* content distribution, not
uniform noise: session clients publish their actual caches, search
terms come from published file names, and source queries are weighted
toward popular files via the compiled trace's replica counts.

The generator is open-loop: request *i* is dispatched at
``start + i / rate`` regardless of how fast earlier replies came back,
and its latency is timed from that scheduled send, so a generator that
falls behind its schedule shows in the latencies instead of hiding
them; how late each send was is reported beside them
(``loadgen/late_s``, ``loadgen/late_p99_ms``).
Requests pipeline freely over a fixed pool of session connections
(sequence numbers keep replies matched).

Everything except wall-clock timing is deterministic from
``(seed, scale, requests, sessions)``: the plan — which session sends
which message when — is drawn from seeded :class:`~repro.util.rng.RngStream`
children, and all the requests are read-only against the published
index, so reply counters are byte-stable run to run.  That is what
lets CI gate a loadgen run's ``repro.metrics/2`` counters *exactly*
against a committed baseline while ignoring only the latency numbers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.edonkey.messages import (
    BrowseUser,
    ConnectRequest,
    ErrorReply,
    FileDescription,
    Keyword,
    PublishFiles,
    QuerySources,
    QueryUsers,
    SearchRequest,
    ServerListRequest,
    SizeRange,
    query_and,
)
from repro.edonkey.transport import TcpTransport, TransportError
from repro.edonkey.wire import WireError
from repro.obs import LATENCY_BOUNDS_S, NULL_OBSERVER, Observer
from repro.util.rng import RngStream

#: Request-mix weights (fractions of the open-loop stream), loosely
#: matching the live-server measurements: searches and source queries
#: dominate, nickname lookups and browses are a steady trickle.
MIX_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("search", 0.40),
    ("sources", 0.30),
    ("browse", 0.12),
    ("users", 0.10),
    ("serverlist", 0.08),
)


@dataclass
class LoadGenConfig:
    """Knobs of one ``repro loadgen`` run."""

    host: str = "127.0.0.1"
    port: int = 0
    requests: int = 1000
    rate: float = 500.0  # offered load, requests/second
    sessions: int = 8
    seed: int = 0
    scale: str = "tiny"  # trace the request mix is derived from
    timeout_s: float = 30.0
    connect_retries: int = 25  # the startup race, unanswered connects/publishes

    def __post_init__(self) -> None:
        if self.requests <= 0:
            raise ValueError(f"requests must be > 0, got {self.requests}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.sessions <= 0:
            raise ValueError(f"sessions must be > 0, got {self.sessions}")


@dataclass
class SessionPlan:
    """One load-generator session: a trace client and its cache."""

    client_id: int
    nickname: str
    files: List[FileDescription]


@dataclass
class Op:
    """One scheduled request."""

    session: int  # index into LoadPlan.sessions
    kind: str  # one of MIX_WEIGHTS
    message: object


@dataclass
class LoadPlan:
    """The full deterministic request plan of one run."""

    sessions: List[SessionPlan]
    ops: List[Op]
    mix: Dict[str, int] = field(default_factory=dict)


def build_plan(config: LoadGenConfig) -> LoadPlan:
    """Derive the deterministic request plan from the compiled trace."""
    from repro.runtime import SHARED_TRACE_CACHE, Scale

    scale = Scale[config.scale.upper()]
    static = SHARED_TRACE_CACHE.static(scale, config.seed)
    compiled = static.compiled()

    def nickname(client_id: int) -> str:
        meta = static.clients.get(client_id)
        if meta is not None and meta.nickname:
            return meta.nickname
        return f"user-{client_id}"

    # Session clients: sharers (non-empty compiled cache) in client-id
    # order, assigned round-robin until the pool is full.
    sharer_rows = [
        row
        for row in range(len(compiled.client_ids))
        if compiled.cache_sets[row]
    ]
    if not sharer_rows:
        raise ValueError(
            f"trace (scale={config.scale}, seed={config.seed}) has no "
            "sharers to derive a load plan from"
        )
    sessions: List[SessionPlan] = []
    for index in range(config.sessions):
        row = sharer_rows[index % len(sharer_rows)]
        client_id = compiled.client_ids[row]
        files = [
            FileDescription.of(static.files[compiled.file_ids[idx]])
            for idx in sorted(compiled.cache_sets[row])
        ]
        sessions.append(
            SessionPlan(
                # Round-robin reuse of a sharer must not collide on
                # client id — the server keys sessions by it.
                client_id=1_000_000 * (index // len(sharer_rows)) + client_id,
                nickname=nickname(client_id),
                files=files,
            )
        )

    # Popularity-weighted file pool for source queries (the head of the
    # replica-count distribution gets most of the traffic), and the
    # published-name token pool for searches.
    published = sorted(
        {desc.file_id: desc for s in sessions for desc in s.files}.values(),
        key=lambda d: d.file_id,
    )
    by_popularity = sorted(
        range(len(compiled.file_ids)),
        key=lambda idx: (-compiled.static_counts[idx], compiled.file_ids[idx]),
    )
    popular_ids = [compiled.file_ids[idx] for idx in by_popularity[:256]]

    rng = RngStream(config.seed, "loadgen").child("plan").py
    ops: List[Op] = []
    mix: Dict[str, int] = {kind: 0 for kind, _ in MIX_WEIGHTS}
    for _ in range(config.requests):
        session = rng.randrange(len(sessions))
        requester = sessions[session].client_id
        draw = rng.random()
        acc = 0.0
        kind = MIX_WEIGHTS[-1][0]
        for name, weight in MIX_WEIGHTS:
            acc += weight
            if draw < acc:
                kind = name
                break
        if kind == "search":
            desc = rng.choice(published)
            term = rng.choice(desc.tokens())
            query = (
                query_and(Keyword(term), SizeRange(min_size=1))
                if rng.random() < 0.2
                else Keyword(term)
            )
            message: object = SearchRequest(
                client_id=requester, query=query
            )
        elif kind == "sources":
            file_id = rng.choice(popular_ids)
            message = QuerySources(client_id=requester, file_id=file_id)
        elif kind == "browse":
            target = sessions[rng.randrange(len(sessions))].client_id
            message = BrowseUser(requester_id=requester, target_id=target)
        elif kind == "users":
            nick = sessions[rng.randrange(len(sessions))].nickname
            start = rng.randrange(max(1, len(nick) - 2))
            message = QueryUsers(pattern=nick[start : start + 3])
        else:
            message = ServerListRequest()
        mix[kind] += 1
        ops.append(Op(session=session, kind=kind, message=message))
    return LoadPlan(sessions=sessions, ops=ops, mix=mix)


@dataclass
class LoadGenResult:
    """Outcome of one run (latencies in milliseconds)."""

    requests: int
    ok: int
    errors: int
    timeouts: int
    elapsed_s: float
    p50_ms: float
    p99_ms: float
    throughput_rps: float
    mix: Dict[str, int]

    def summary(self) -> str:
        return (
            f"{self.requests} requests in {self.elapsed_s:.2f}s "
            f"({self.throughput_rps:.0f} req/s): {self.ok} ok, "
            f"{self.errors} errors, {self.timeouts} timeouts; "
            f"latency p50 {self.p50_ms:.2f}ms p99 {self.p99_ms:.2f}ms"
        )


def _percentile_ms(latencies_s: List[float], q: float) -> float:
    if not latencies_s:
        return 0.0
    ordered = sorted(latencies_s)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank] * 1000.0


async def _answered(transport: TcpTransport, message, config: LoadGenConfig):
    """The reply to a session set-up ``message``, resent up to
    ``connect_retries`` more times while a lossy service leaves it
    unanswered.

    Both set-up messages are safe to repeat: the server unpublishes a
    live session before it re-connects it, and re-publishes a file list
    by difference."""
    for _ in range(config.connect_retries + 1):
        reply = await transport.request(message, timeout=config.timeout_s)
        if reply is not None:
            return reply
    raise TransportError(
        f"session {message.client_id}: {type(message).__name__} unanswered"
    )


async def run_loadgen(
    config: LoadGenConfig, obs: Optional[Observer] = None
) -> LoadGenResult:
    """Connect, publish, replay the plan open-loop, report."""
    obs = obs if obs is not None else NULL_OBSERVER
    plan = build_plan(config)
    transports: List[TcpTransport] = []
    try:
        for session in plan.sessions:
            transport = await TcpTransport.open(
                config.host,
                config.port,
                retries=config.connect_retries,
            )
            transports.append(transport)
            reply = await _answered(
                transport,
                ConnectRequest(
                    client_id=session.client_id,
                    nickname=session.nickname,
                    firewalled=False,
                ),
                config,
            )
            if not getattr(reply, "accepted", False):
                raise TransportError(
                    f"session {session.client_id}: connect rejected ({reply})"
                )
            ack = await _answered(
                transport,
                PublishFiles(client_id=session.client_id, files=session.files),
                config,
            )
            if isinstance(ack, ErrorReply):
                raise TransportError(
                    f"session {session.client_id}: publish failed: "
                    f"{ack.reason}"
                )
        obs.gauge("loadgen/sessions", len(plan.sessions))

        loop = asyncio.get_running_loop()
        latencies: List[float] = []
        lateness: List[float] = []
        outcomes = {"ok": 0, "errors": 0, "timeouts": 0}
        wire_failure: List[BaseException] = []

        async def fire(index: int, op: Op) -> None:
            # Timed from the scheduled send, so a late loop adds to the
            # latency instead of hiding in it (no coordinated omission).
            due = start + index / config.rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late = max(0.0, loop.time() - due)
            lateness.append(late)
            obs.hist("loadgen/late_s", late, LATENCY_BOUNDS_S)
            obs.count(f"loadgen/sent/{op.kind}")
            try:
                reply = await transports[op.session].request(
                    op.message, timeout=config.timeout_s
                )
            except WireError as exc:
                obs.count("loadgen/wire_errors")
                wire_failure.append(exc)
                outcomes["errors"] += 1
                return
            elapsed = loop.time() - due
            latencies.append(elapsed)
            obs.hist("loadgen/latency_s", elapsed, LATENCY_BOUNDS_S)
            obs.hist(
                f"loadgen/latency_s/{op.kind}", elapsed, LATENCY_BOUNDS_S
            )
            if reply is None:
                outcomes["timeouts"] += 1
                obs.count("loadgen/timeouts")
            elif isinstance(reply, ErrorReply):
                outcomes["errors"] += 1
                obs.count("loadgen/errors")
            else:
                outcomes["ok"] += 1
                obs.count(f"loadgen/ok/{op.kind}")

        start = loop.time()
        await asyncio.gather(
            *(fire(index, op) for index, op in enumerate(plan.ops))
        )
        elapsed_s = loop.time() - start
        if wire_failure:
            raise wire_failure[0]
    finally:
        for transport in transports:
            await transport.aclose()

    result = LoadGenResult(
        requests=len(plan.ops),
        ok=outcomes["ok"],
        errors=outcomes["errors"],
        timeouts=outcomes["timeouts"],
        elapsed_s=elapsed_s,
        p50_ms=_percentile_ms(latencies, 0.50),
        p99_ms=_percentile_ms(latencies, 0.99),
        throughput_rps=len(plan.ops) / elapsed_s if elapsed_s else 0.0,
        mix=plan.mix,
    )
    obs.gauge("loadgen/offered_rps", config.rate)
    obs.gauge("loadgen/achieved_rps", result.throughput_rps)
    obs.gauge("loadgen/p50_ms", result.p50_ms)
    obs.gauge("loadgen/p99_ms", result.p99_ms)
    obs.gauge("loadgen/late_p99_ms", _percentile_ms(lateness, 0.99))
    obs.gauge("loadgen/elapsed_s", result.elapsed_s)
    return result
