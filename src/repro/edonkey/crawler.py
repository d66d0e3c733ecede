"""The eDonkey crawler (Section 2.2), rebuilt on the simulated network.

The crawler is initialized with a list of servers.  It connects to all of
them, retrieves new server lists, and builds its user list by sweeping
``query-users`` nickname searches from ``"aaa"`` to ``"zzz"`` (servers cap
replies at 200 users, so the sweep is what makes broad discovery possible).
The list is filtered to *reachable* (non-firewalled) clients, which another
module then browses every day, retrieving the description of all files in
each cache.  Successful browses become trace snapshots.

Fidelity notes mirrored from the paper:

- servers that do not implement ``query-users`` return nothing — if no
  crawled server supports it, the crawl legitimately collapses (that is why
  the authors say such a trace could no longer be collected);
- clients that disable browsing yield no snapshot;
- a daily browse budget models the crawler's bandwidth constraints — the
  declining budget reproduces Figure 1's decline in clients scanned daily.
"""

from __future__ import annotations

import itertools
import os
import string
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checkpoint import CheckpointInfo, Checkpointer

from repro.edonkey.messages import BrowseRequest, QueryUsers, ServerListRequest
from repro.edonkey.network import Network
from repro.faults import RetryPolicy
from repro.obs import Observer
from repro.trace.model import Trace
from repro.util.rng import RngStream
from repro.util.validation import check_positive

#: Checkpoint kind tag for crawler snapshots.
CRAWL_CHECKPOINT_KIND = "crawl"

#: Nickname-substring length of the sweep: the paper's ``aaa`` .. ``zzz``.
QUERY_LENGTH = 3


@dataclass
class CrawlerConfig:
    """Crawler behaviour.

    ``browse_budget_start``/``_end`` bound the number of browse attempts
    per day, decaying linearly (the paper's tightening bandwidth
    constraints).  ``days`` is the crawl duration.
    """

    days: int = 56
    browse_budget_start: int = 10_000
    browse_budget_end: int = 5_000
    refresh_users_every: int = 1  # days between nickname sweeps
    #: Retry policy for unanswered browses and nickname queries on a faulty
    #: network.  ``None`` disables retries (every failure is final, the
    #: pre-fault-layer behaviour).  Retries consume browse budget and their
    #: backoff is accounted in simulated seconds, never slept.
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        check_positive("days", self.days)
        check_positive("browse_budget_start", self.browse_budget_start)
        check_positive("browse_budget_end", self.browse_budget_end)
        check_positive("refresh_users_every", self.refresh_users_every)
        if self.browse_budget_end > self.browse_budget_start:
            raise ValueError(
                "browse_budget_end must be <= browse_budget_start "
                f"(the daily browse budget decays over the crawl), got "
                f"end={self.browse_budget_end} > start={self.browse_budget_start}"
            )

    def budget_on(self, day_offset: int) -> int:
        if self.days <= 1:
            return self.browse_budget_start
        frac = day_offset / (self.days - 1)
        return int(
            self.browse_budget_start
            + (self.browse_budget_end - self.browse_budget_start) * frac
        )


@dataclass
class CrawlStats:
    """Bookkeeping about the crawl itself (not the trace)."""

    nickname_queries: int = 0
    users_discovered: int = 0
    firewalled_skipped: int = 0
    browse_attempts: int = 0
    browse_refused: int = 0
    browse_succeeded: int = 0
    servers_without_query_users: int = 0
    browse_retries: int = 0
    query_retries: int = 0
    backoff_seconds: float = 0.0  # simulated time spent in backoff

    @property
    def browse_success_rate(self) -> float:
        if self.browse_attempts == 0:
            return 0.0
        return self.browse_succeeded / self.browse_attempts

    def as_dict(self) -> Dict[str, float]:
        """Flat mapping for the observability counters."""
        return {
            "nickname_queries": float(self.nickname_queries),
            "users_discovered": float(self.users_discovered),
            "firewalled_skipped": float(self.firewalled_skipped),
            "browse_attempts": float(self.browse_attempts),
            "browse_refused": float(self.browse_refused),
            "browse_succeeded": float(self.browse_succeeded),
            "servers_without_query_users": float(
                self.servers_without_query_users
            ),
            "browse_retries": float(self.browse_retries),
            "query_retries": float(self.query_retries),
            "backoff_seconds": self.backoff_seconds,
        }


class Crawler:
    """Crawls a :class:`~repro.edonkey.network.Network` into a Trace."""

    def __init__(
        self,
        network: Network,
        config: Optional[CrawlerConfig] = None,
        seed: Optional[int] = None,
        obs: Optional[Observer] = None,
        store_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        stream: bool = False,
    ) -> None:
        if seed is None:
            seed = 0
        self.network = network
        self.config = config or CrawlerConfig()
        self.rng = RngStream(seed, "crawler")
        self.stats = CrawlStats()
        self.obs = obs if obs is not None else network.obs
        self.known_servers: Set[int] = set(network.servers)
        self.reachable_users: Dict[int, str] = {}  # client_id -> nickname
        # client_id -> generator profile, built once: resolving metadata
        # per newly-seen client by scanning the profile list is O(N) per
        # lookup and made large crawls quadratic.
        self._profiles_by_id = {
            p.meta.client_id: p for p in network.generator.profiles
        }
        # Resume state: the trace under construction and the next day to
        # crawl.  Both travel inside a checkpoint, so a restored crawler
        # picks up exactly where the snapshot was taken.
        self._trace: Optional[Trace] = None
        self._next_day_offset = 0
        # The network's sorted check_invariants() list as of the last
        # checkpoint.  A lossy crawl can legitimately carry the ghost
        # session of a timed-out connect, so resume checks the restored
        # network against this list, not against an empty one.
        self.saved_invariants: Optional[List[str]] = None
        # Incremental trace-store output (a plain string so it pickles
        # into checkpoints).  Each completed day is appended *before* the
        # day's checkpoint, so a crash-and-resume replays the day and
        # idempotently rewrites the same segment.
        self.store_dir: Optional[str] = (
            os.fspath(store_dir) if store_dir is not None else None
        )
        # Streaming mode: each day goes straight into the store and is
        # then dropped from the in-memory trace, so a Scale.HUGE crawl
        # holds at most one day of snapshots resident.  File/client
        # metadata dictionaries are kept (the store interns from them).
        if stream and self.store_dir is None:
            raise ValueError("stream=True requires a store_dir sink")
        self.stream = stream

    # ------------------------------------------------------------------
    # Discovery

    def refresh_server_list(self) -> None:
        """Ask every known server for its server list (gossip walk)."""
        # Sorted: ``known_servers`` is a set, and set iteration order can
        # change across a pickle round-trip; the walk order decides which
        # server is asked first, which matters under message faults.
        frontier = sorted(self.known_servers)
        while frontier:
            server_id = frontier.pop()
            reply = self.network.to_server(server_id, ServerListRequest())
            if reply is None:
                continue
            for other in reply.servers:
                if other not in self.known_servers:
                    self.known_servers.add(other)
                    frontier.append(other)

    def sweep_nicknames(self) -> int:
        """Run the ``aaa``..``zzz`` sweep on every known server.

        Returns the number of *new* reachable users discovered.  Users whose
        replies flag them as firewalled are skipped (the crawler cannot
        connect to them).
        """
        new_users = 0
        patterns = (
            "".join(letters)
            for letters in itertools.product(
                string.ascii_lowercase, repeat=QUERY_LENGTH
            )
        )
        server_ids = sorted(self.known_servers)
        to_server = self.network.to_server
        retry = self.config.retry
        stats = self.stats
        reachable = self.reachable_users
        for pattern in patterns:
            # One message serves every server and retry: handlers only
            # read it, and each hop still gets a reply of its own.
            message = QueryUsers(pattern)
            for server_id in server_ids:
                reply = to_server(server_id, message)
                if reply is None and retry is not None:
                    reply = self._retry_query(server_id, message)
                stats.nickname_queries += 1
                if reply is None or not reply.supported:
                    continue
                for client_id, nickname, firewalled in reply.users:
                    if firewalled:
                        stats.firewalled_skipped += 1
                        continue
                    if client_id not in reachable:
                        reachable[client_id] = nickname
                        new_users += 1
        stats.users_discovered = len(reachable)
        stats.servers_without_query_users = sum(
            1
            for sid in self.known_servers
            if not self.network.servers[sid].config.supports_query_users
        )
        return new_users

    def _retry_query(self, server_id: int, message: QueryUsers):
        """Resend an unanswered nickname query (with backoff) until it is
        answered or the retry policy runs out.  Unsupported/empty replies
        are answers, not failures — only ``None`` (drop, timeout, dead
        server) retries."""
        policy = self.config.retry
        reply = None
        attempt = 0
        while reply is None and attempt < policy.max_retries:
            attempt += 1
            self.stats.query_retries += 1
            self.stats.backoff_seconds += policy.delay(attempt)
            self.network.faults.stats.retries += 1
            reply = self.network.to_server(server_id, message)
        return reply

    # ------------------------------------------------------------------
    # Browsing

    def browse_all(self, trace: Trace, day: int, budget: int) -> int:
        """Browse reachable users within ``budget`` attempts; record
        snapshots.

        Returns the number of successful browses.  The browse order is
        shuffled so the budget cut does not systematically starve the same
        clients.  Every attempt — including each retry of an unanswered
        browse — consumes one unit of budget, so failures eat into how
        many clients the crawler reaches that day (the paper's bandwidth
        constraint under hostile conditions).
        """
        order = self.rng.shuffled(sorted(self.reachable_users))
        policy = self.config.retry
        successes = 0
        remaining = budget
        for client_id in order:
            if remaining <= 0:
                break
            attempt = 0
            while True:
                remaining -= 1
                self.stats.browse_attempts += 1
                reply = self.network.to_client(
                    client_id, BrowseRequest(requester_id=-1)
                )
                if reply is not None:
                    break
                if (
                    policy is None
                    or attempt >= policy.max_retries
                    or remaining <= 0
                ):
                    break
                attempt += 1
                self.stats.browse_retries += 1
                self.stats.backoff_seconds += policy.delay(attempt)
                self.network.faults.stats.retries += 1
            if reply is None or not reply.allowed:
                self.stats.browse_refused += 1
                continue
            self._ensure_client_meta(trace, client_id)
            for desc in reply.files:
                if desc.file_id not in trace.files:
                    trace.add_file(desc.to_meta())
            trace.observe(day, client_id, (d.file_id for d in reply.files))
            successes += 1
            self.stats.browse_succeeded += 1
        return successes

    def _ensure_client_meta(self, trace: Trace, client_id: int) -> None:
        if client_id in trace.clients:
            return
        # The real crawler records the IP it connected to and resolves the
        # country / AS with a GeoIP database; here the generator's profile
        # plays the role of that database.
        trace.add_client(self._profiles_by_id[client_id].meta)

    def _append_store_day(self, day: int, trace: Trace) -> None:
        """Append ``day``'s snapshots to the on-disk trace store.

        The writer is opened per day (no open handle survives a crash or a
        pickle round-trip) and the append happens *before* the day's
        checkpoint: a crash between the two makes resume replay the day,
        and re-appending deterministically replaces the same segment.
        """
        from repro.trace.store import TraceStoreWriter

        with TraceStoreWriter.open(self.store_dir, create=True) as writer:
            writer.append_day(
                day,
                trace.snapshots_on(day),
                files=trace.files,
                clients=trace.clients,
            )

    # ------------------------------------------------------------------
    # Checkpointing

    def save_checkpoint(self, checkpointer: "Checkpointer") -> None:
        """Snapshot the whole crawler (network, trace and RNGs included).

        The snapshot carries :attr:`saved_invariants`, the network's
        invariant report at save time.
        """
        # Counted *before* pickling so the snapshot itself carries the
        # save it belongs to; a resumed run then continues the counter
        # exactly where an uninterrupted checkpointing run would be.
        self.obs.count("checkpoint/saves")
        self.saved_invariants = sorted(self.network.check_invariants())
        checkpointer.save(
            CRAWL_CHECKPOINT_KIND,
            self._next_day_offset,
            {"crawler": self},
            seed=self.rng.seed,
            meta={
                "day": self._next_day_offset,
                "network_day": self.network.day,
                "snapshots": self._trace.num_snapshots if self._trace else 0,
            },
        )

    @classmethod
    def resume_from(
        cls, checkpointer: "Checkpointer"
    ) -> Tuple["Crawler", "CheckpointInfo"]:
        """Rebuild a mid-crawl crawler from the newest intact checkpoint;
        returns it with the info of the file it came from."""
        return checkpointer.restore(CRAWL_CHECKPOINT_KIND, "crawler", cls)

    @property
    def next_day_offset(self) -> int:
        """The next day the crawl loop will execute (0 on a fresh crawler)."""
        return self._next_day_offset

    # ------------------------------------------------------------------
    # Full crawl

    def crawl(
        self,
        days: Optional[int] = None,
        checkpointer: Optional["Checkpointer"] = None,
        on_day_end: Optional[Callable[[int], None]] = None,
    ) -> Trace:
        """Run a multi-day crawl and return the collected trace.

        With observability enabled the per-day phases are timed under the
        ``crawl/day/...`` span hierarchy and the final
        :class:`CrawlStats` are exported as ``crawler/*`` counters.

        With a ``checkpointer`` the crawler snapshots itself after every
        completed day; a crawler rebuilt via :meth:`resume_from`
        continues from the checkpointed day and produces byte-identical
        final artefacts.  ``on_day_end(day_offset)`` (if given) runs
        after each day's checkpoint — ``repro crawl --kill-after-day`` uses
        it to kill the process at a precise point.
        """
        days = days if days is not None else self.config.days
        if self._trace is None:
            self._trace = Trace()
        trace = self._trace
        start = self._next_day_offset
        obs = self.obs
        obs.gauge("progress/days_total", days)
        obs.gauge("progress/days_done", start)
        with obs.span("crawl"):
            if start == 0:
                with obs.span("refresh_servers"):
                    self.refresh_server_list()
            for day_offset in range(start, days):
                obs.instant(
                    "day_start",
                    args={"day": day_offset, "network_day": self.network.day},
                    cat="crawl",
                )
                with obs.span("day"):
                    if day_offset % self.config.refresh_users_every == 0:
                        with obs.span("sweep_nicknames"):
                            self.sweep_nicknames()
                    budget = self.config.budget_on(day_offset)
                    network_day = self.network.day
                    with obs.span("browse"):
                        self.browse_all(trace, network_day, budget)
                    if self.store_dir is not None:
                        with obs.span("store_append"):
                            self._append_store_day(network_day, trace)
                        if self.stream:
                            trace.drop_day(network_day)
                    self.network.advance_day()
                self._next_day_offset = day_offset + 1
                obs.gauge("progress/days_done", day_offset + 1)
                if checkpointer is not None:
                    self.save_checkpoint(checkpointer)
                if on_day_end is not None:
                    on_day_end(day_offset)
        if obs.enabled:
            obs.merge_counters(self.stats.as_dict(), prefix="crawler/")
            obs.gauge(
                "crawler/browse_success_rate", self.stats.browse_success_rate
            )
            self.network.export_metrics()
        return trace

    def degradation_report(
        self, trace: Trace, baseline_snapshots: Optional[int] = None
    ):
        """Graceful-degradation summary of this crawl (see
        :class:`~repro.core.metrics.DegradationReport`).

        ``baseline_snapshots`` is the snapshot count of a fault-free run
        with the same seed and config; when given, the report carries
        the trace-completeness ratio against it."""
        from repro.core.metrics import build_degradation_report

        return build_degradation_report(
            self.network.faults.stats,
            self.stats,
            trace.num_snapshots,
            baseline_snapshots=baseline_snapshots,
        )
