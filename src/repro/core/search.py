"""The trace-driven semantic-search simulator (Section 5).

Simulation loop (Section 5.1): requests are generated from the static trace
(see :mod:`repro.core.requests`).  For each request by peer ``p`` for file
``f``:

1. if nobody currently shares ``f``, ``p`` is the original contributor —
   ``f`` enters ``p``'s shared cache without a search;
2. otherwise ``p`` queries its semantic neighbours in list order; the first
   neighbour sharing ``f`` answers (a **hit**);
3. in two-hop mode, a one-hop miss continues with the neighbours'
   neighbours (the semantic overlay of Section 5.3.4);
4. on a miss, the fall-back mechanism (server / flooding) finds a source
   uniformly at random among current sharers;
5. whoever uploaded — hit or fall-back — is recorded in ``p``'s neighbour
   strategy, and ``f`` is added to ``p``'s shared cache.

The ablations of Sections 5.3.2 (remove the most generous uploaders /
the most popular files) operate on the input trace before simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checkpoint import Checkpointer

from repro.core.metrics import HitRateAccumulator, LoadTracker
from repro.core.neighbours import (
    FixedNeighbours,
    NeighbourStrategy,
    make_strategy,
)
from repro.core.requests import iter_requests_compiled
from repro.obs import COUNT_BOUNDS, LATENCY_BOUNDS_S, NULL_OBSERVER, Observer
from repro.trace.compiled import CompiledTrace
from repro.trace.model import ClientId, FileId, StaticTrace
from repro.util.rng import RngStream
from repro.util.validation import check_fraction, check_positive

#: consecutive unanswered probes after which ``evict_dead`` drops a neighbour
DEAD_AFTER = 2


@dataclass
class SearchConfig:
    """Parameters of one simulation run.

    ``track_load`` decides only whether probes are counted in
    ``SimulationResult.load``; it never changes who answers.

    ``availability`` models peer churn (the concern of the availability
    studies the paper cites): every contacted peer is online with this
    probability, independently per request.  Offline semantic neighbours
    cannot answer; the fall-back only succeeds if some source is online.
    Availability below 1 is one-hop only (the two-hop walk assumes all
    peers answer).

    ``probe_loss_rate`` models a lossy network under the search: each
    neighbour probe is independently lost with this probability (the
    message is sent — it counts toward load — but never answered).

    ``evict_dead`` enables dead-neighbour detection: a neighbour that
    fails to answer :data:`DEAD_AFTER` consecutive probes from the same peer
    is evicted from that peer's list, making room for live peers; any
    answer clears the strikes.  Both fault knobs are one-hop only, like
    ``availability``.
    """

    list_size: int = 20
    strategy: str = "lru"  # lru | history | random | popularity
    two_hop: bool = False
    track_load: bool = True
    availability: float = 1.0
    probe_loss_rate: float = 0.0
    evict_dead: bool = False
    rare_cutoff: Optional[int] = None  # track a second hit-rate for
    # requests whose file has <= rare_cutoff replicas in the input trace
    track_exchanges: bool = False  # record the (uploader -> downloader)
    # exchange graph for the Section 6 graph analyses
    #: optional per-peer initial neighbour lists (e.g. converged gossip
    #: views).  With strategy "fixed" the lists never change; with the
    #: learning strategies they warm-start the list state.
    initial_lists: Optional[Dict[ClientId, List[ClientId]]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("list_size", self.list_size)
        check_fraction("availability", self.availability)
        check_fraction("probe_loss_rate", self.probe_loss_rate)
        if self.availability < 1.0 and self.two_hop:
            raise ValueError(
                "availability modelling is one-hop only; disable two_hop"
            )
        if (self.probe_loss_rate > 0 or self.evict_dead) and self.two_hop:
            raise ValueError(
                "fault modelling (probe_loss_rate/evict_dead) is one-hop "
                "only; disable two_hop"
            )
        if self.strategy == "fixed" and self.initial_lists is None:
            raise ValueError("strategy 'fixed' requires initial_lists")
        if self.initial_lists is not None:
            self._validate_initial_lists()

    def _validate_initial_lists(self) -> None:
        """Structural checks on the warm-start lists.

        Lists longer than ``list_size`` would be silently truncated by the
        strategies, and duplicate or self-referencing entries are dead
        weight that a real client could never hold; reject all three
        loudly.  Membership in the trace is checked by the simulator (the
        config alone cannot know the peer population).
        """
        for peer, neighbours in self.initial_lists.items():
            if len(neighbours) > self.list_size:
                raise ValueError(
                    f"initial_lists[{peer!r}] has {len(neighbours)} entries, "
                    f"exceeding list_size={self.list_size}"
                )
            if len(set(neighbours)) != len(neighbours):
                raise ValueError(
                    f"initial_lists[{peer!r}] contains duplicate neighbours"
                )
            if peer in neighbours:
                raise ValueError(
                    f"initial_lists[{peer!r}] lists the peer as its own "
                    "neighbour"
                )


@dataclass
class SimulationResult:
    """Outcome of one run.

    ``unresolvable`` counts requests where no source at all was online
    (only nonzero when ``availability < 1``); they are excluded from the
    hit-rate denominator because no mechanism could have served them.
    """

    config: SearchConfig
    rates: HitRateAccumulator
    load: LoadTracker
    num_peers: int
    num_files: int
    unresolvable: int = 0
    #: probes lost to the fault model / dead neighbours evicted
    probes_lost: int = 0
    evictions: int = 0
    rare_rates: Optional[HitRateAccumulator] = None
    #: (uploader, downloader) -> number of uploads, when track_exchanges
    exchanges: Optional[Dict[Tuple[ClientId, ClientId], int]] = None

    @property
    def hit_rate(self) -> float:
        return self.rates.hit_rate

    def summary(self) -> str:
        pieces = [
            f"strategy={self.config.strategy}",
            f"list={self.config.list_size}",
            f"requests={self.rates.requests}",
            f"hit_rate={100 * self.rates.hit_rate:.1f}%",
        ]
        if self.config.two_hop:
            pieces.append(
                f"one_hop_rate={100 * self.rates.one_hop_hit_rate:.1f}%"
            )
        return " ".join(pieces)


@dataclass
class QueryRecord:
    """One request's lifecycle: issued → probes → resolution.

    This is the per-query event record the eDonkey measurement papers
    analyse from server logs; here it is produced by the simulator
    itself (only while profiling) and feeds the query-lifecycle
    histograms plus, when an event tracer is attached, one structured
    trace event per request.

    ``two_hop_contacts`` counts second-hop peers actually probed.
    ``hit_position`` is the 1-based rank of the answering neighbour in
    the probe order (``None`` unless the one-hop search hit).
    """

    index: int
    peer: ClientId
    file_id: FileId
    outcome: str  # "one_hop" | "two_hop" | "fallback"
    hops: int  # one-hop neighbours probed
    two_hop_contacts: int = 0
    hit_position: Optional[int] = None
    probes_lost: int = 0  # probes the fault model ate during this request
    one_hop_s: float = 0.0
    two_hop_s: Optional[float] = None
    fallback_s: Optional[float] = None

    @property
    def probes(self) -> int:
        return self.hops + self.two_hop_contacts

    def as_args(self) -> Dict[str, object]:
        """Flat payload for the Chrome trace event's ``args``."""
        args: Dict[str, object] = {
            "index": self.index,
            "peer": self.peer,
            "file": self.file_id,
            "outcome": self.outcome,
            "hops": self.hops,
            "probes": self.probes,
        }
        if self.hit_position is not None:
            args["hit_position"] = self.hit_position
        if self.probes_lost:
            args["probes_lost"] = self.probes_lost
        return args


@dataclass
class _RunState:
    """The mutable mid-run state a checkpoint must capture.

    Everything the request loop reads or writes between events lives
    here (or on the simulator itself, which owns the per-peer state);
    the request stream is one of the picklable stream objects from
    :mod:`repro.core.requests`, so pickling this dataclass mid-sequence
    freezes the run exactly between two events.
    """

    rates: HitRateAccumulator
    load: LoadTracker
    requests: Iterator
    avail_rng: RngStream
    loss_rng: RngStream
    unresolvable: int = 0
    rare_rates: Optional[HitRateAccumulator] = None
    rare_files: Set = field(default_factory=set)
    exchanges: Optional[Dict[Tuple[ClientId, ClientId], int]] = None
    #: events consumed from the request stream so far (checkpoint cadence)
    processed: int = 0


#: Checkpoint kind tag for search-simulator snapshots.
SEARCH_CHECKPOINT_KIND = "search"


class SearchSimulator:
    """Runs the Section 5 methodology over a static trace.

    The simulation runs on the trace's compiled form
    (:meth:`~repro.trace.model.StaticTrace.compiled`, or a
    :class:`~repro.trace.compiled.CompiledTrace` passed directly, as
    sharded workers do): files are interned ints throughout the hot loop,
    current sharers live in a list indexed by file index, and the request
    stream is consumed as int tuples.  Request draws and fall-back
    selection are one ``randrange`` per event on the request stream's
    and this simulator's ``random.Random``.  Seeded results are pinned
    by the digests in ``tests/golden/``.

    ``run(checkpointer=...)`` snapshots the whole simulator every
    ``checkpoint_every`` events; :meth:`resume_from` rebuilds it from the
    latest snapshot and the next ``run()`` continues mid-sequence with
    byte-identical final results (the resume-equivalence suite pins
    this).
    """

    def __init__(
        self,
        trace: StaticTrace,
        config: Optional[SearchConfig] = None,
        obs: Optional[Observer] = None,
    ) -> None:
        self.trace = trace
        self.config = config or SearchConfig()
        self.obs = obs if obs is not None else NULL_OBSERVER
        if self.config.initial_lists is not None:
            self._check_lists_against_trace()
        self.rng = RngStream(self.config.seed, "search")
        self._compiled = (
            trace if isinstance(trace, CompiledTrace) else trace.compiled()
        )
        self._strategies: Dict[ClientId, NeighbourStrategy] = {}
        # File keys are interned file indices throughout.
        self._shared: Dict[ClientId, Set[int]] = {}
        self._sharers_list: List[Optional[List[ClientId]]] = (
            [None] * self._compiled.num_files
        )
        self._sharer_peers: List[ClientId] = []  # peers sharing >= 1 file
        self._sharer_seen: Set[ClientId] = set()
        # Dead-neighbour detection state (only used when evict_dead).
        self._strikes: Dict[Tuple[ClientId, ClientId], int] = {}
        self._probes_lost = 0
        self._evictions = 0
        # Mid-run state; populated lazily by run() and carried across a
        # checkpoint/resume cycle.
        self._run_state: Optional[_RunState] = None

    def _check_lists_against_trace(self) -> None:
        """Reject warm-start lists referencing peers absent from the trace.

        A dead entry can never answer a probe, so carrying it silently
        into the simulation deflates hit rates for no modelled reason —
        exactly the kind of quiet input error that should fail fast.
        """
        caches = getattr(self.trace, "caches", None)
        known = caches.keys() if caches is not None else set(self.trace.client_ids)
        for peer, neighbours in self.config.initial_lists.items():
            if peer not in known:
                raise ValueError(
                    f"initial_lists peer {peer!r} is not in the trace"
                )
            missing = [n for n in neighbours if n not in known]
            if missing:
                raise ValueError(
                    f"initial_lists[{peer!r}] references peers absent from "
                    f"the trace: {missing[:5]}"
                )

    # ------------------------------------------------------------------
    # State helpers

    def _population(self) -> List[ClientId]:
        """Current peers sharing at least one file (for Random lists).

        Append-only: a peer is appended when it first shares a file and
        is never removed or moved, which Random lists rely on to find
        their owner's index once."""
        return self._sharer_peers

    def _strategy_for(self, peer: ClientId) -> NeighbourStrategy:
        strategy = self._strategies.get(peer)
        if strategy is None:
            initial = (
                self.config.initial_lists.get(peer, [])
                if self.config.initial_lists is not None
                else []
            )
            if self.config.strategy == "fixed":
                strategy = FixedNeighbours(self.config.list_size, initial)
            else:
                strategy = make_strategy(
                    self.config.strategy,
                    self.config.list_size,
                    rng=self.rng.child(f"random[{peer}]"),
                    # A bound method (not a lambda) so strategies — and
                    # with them the whole simulator — stay picklable.
                    population=self._population,
                    owner=peer,
                )
                # Warm start: feed the initial list as synthetic uploads,
                # last entry first so the list head ends up at the head.
                for neighbour in reversed(initial):
                    strategy.record_upload(neighbour)
            self._strategies[peer] = strategy
        return strategy

    def _add_to_cache(self, peer: ClientId, file_key: int) -> None:
        self._shared.setdefault(peer, set()).add(file_key)
        sharers = self._sharers_list[file_key]
        if sharers is None:
            self._sharers_list[file_key] = [peer]
        else:
            sharers.append(peer)
        if peer not in self._sharer_seen:
            self._sharer_seen.add(peer)
            self._sharer_peers.append(peer)

    def _sharers(self, file_key: int) -> Optional[List[ClientId]]:
        """Current sharers of ``file_key`` in upload order (None if none)."""
        return self._sharers_list[file_key]

    # ------------------------------------------------------------------
    # Query paths

    def _query_one_hop(
        self,
        peer: ClientId,
        file_key,
        load: Optional[LoadTracker],
        online=None,
        lost=None,
    ) -> Tuple[Optional[ClientId], List[ClientId]]:
        """Query neighbours in order; return (answerer, queried list).

        ``online`` is an optional predicate; offline neighbours are
        contacted (the message is sent) but never answer.  ``lost`` is an
        optional thunk drawn once per probe: a lost probe is sent (it
        counts toward load) but never answered, even by an online
        neighbour.  Unanswered probes feed dead-neighbour detection."""
        neighbours = list(self._strategy_for(peer).ordered())
        messages = load.messages if load is not None else None
        shared = self._shared
        strikes = self._strikes if self.config.evict_dead else None
        for at, neighbour in enumerate(neighbours):
            if messages is not None:
                messages[neighbour] += 1
            if lost is not None and lost():
                self._probes_lost += 1
                self._record_probe_failure(peer, neighbour)
                continue
            if online is not None and not online(neighbour):
                self._record_probe_failure(peer, neighbour)
                continue
            if strikes is not None:
                strikes.pop((peer, neighbour), None)  # an answer clears them
            if file_key in shared.get(neighbour, ()):
                return neighbour, neighbours[: at + 1]
        return None, neighbours

    def _record_probe_failure(self, peer: ClientId, neighbour: ClientId) -> None:
        if not self.config.evict_dead:
            return
        key = (peer, neighbour)
        strikes = self._strikes.get(key, 0) + 1
        if strikes >= DEAD_AFTER:
            self._strategy_for(peer).evict(neighbour)
            self._strikes.pop(key, None)
            self._evictions += 1
        else:
            self._strikes[key] = strikes

    def _query_two_hop(
        self,
        peer: ClientId,
        file_key,
        first_hop: Sequence[ClientId],
        load: Optional[LoadTracker],
    ) -> Tuple[Optional[ClientId], int]:
        """Query the neighbours' neighbours after a one-hop miss; return
        (answerer, second-hop peers contacted).

        Second-hop peers are visited in the order induced by the first-hop
        list; duplicates, ``peer`` itself and already-queried first-hop
        neighbours are skipped.  ``load`` only decides whether the
        contacts are counted: the walk, and so the answer, is the same.
        """
        # Every contact is added to ``seen`` once, so the contact count
        # is how much ``seen`` grew.
        seen: Set[ClientId] = set(first_hop)
        seen.add(peer)
        known = len(seen)
        holders = set(self._sharers(file_key) or ())
        messages = load.messages if load is not None else None
        strategy_for = self._strategy_for
        for neighbour in first_hop:
            for second in strategy_for(neighbour).ordered():
                if second in seen:
                    continue
                seen.add(second)
                if messages is not None:
                    messages[second] += 1
                if second in holders:
                    return second, len(seen) - known
        return None, len(seen) - known

    # ------------------------------------------------------------------
    # Query-lifecycle records

    def _record_query(self, record: QueryRecord) -> None:
        """Fold one request's lifecycle into the distributional metrics.

        Hops/probes/hit-position land in count histograms, phase
        latencies in latency histograms; with a tracer attached the full
        structured record becomes one instant event in the run's event
        stream (the per-query log a server-side capture would analyse).
        """
        obs = self.obs
        obs.hist("search/hops_per_request", record.hops, bounds=COUNT_BOUNDS)
        obs.hist(
            "search/probes_per_request", record.probes, bounds=COUNT_BOUNDS
        )
        obs.hist(
            "search/latency/one_hop_s",
            record.one_hop_s,
            bounds=LATENCY_BOUNDS_S,
        )
        if record.two_hop_s is not None:
            obs.hist(
                "search/latency/two_hop_s",
                record.two_hop_s,
                bounds=LATENCY_BOUNDS_S,
            )
        if record.fallback_s is not None:
            obs.hist(
                "search/latency/fallback_s",
                record.fallback_s,
                bounds=LATENCY_BOUNDS_S,
            )
        if record.hit_position is not None:
            obs.hist(
                "search/hit_position", record.hit_position, bounds=COUNT_BOUNDS
            )
        if obs.tracer is not None:
            obs.instant("search/query", args=record.as_args(), cat="query")

    # ------------------------------------------------------------------
    # Main loop

    def _fresh_state(self) -> _RunState:
        """Build the event-zero run state (streams, accumulators, RNGs)."""
        config = self.config
        requests = iter_requests_compiled(self._compiled, self.rng.child("requests"))
        rare_rates: Optional[HitRateAccumulator] = None
        rare_files: Set[int] = set()
        if config.rare_cutoff is not None:
            rare_rates = HitRateAccumulator()
            rare_files = {
                idx
                for idx, c in enumerate(self._compiled.static_counts)
                if c <= config.rare_cutoff
            }
        return _RunState(
            rates=HitRateAccumulator(),
            load=LoadTracker(),
            requests=requests,
            avail_rng=self.rng.child("availability"),
            loss_rng=self.rng.child("probe-loss"),
            rare_rates=rare_rates,
            rare_files=rare_files,
            exchanges={} if config.track_exchanges else None,
        )

    def save_checkpoint(self, checkpointer: "Checkpointer") -> None:
        """Snapshot the whole simulator (run state included).

        The observer's live span stack is excluded from the snapshot (a
        resumed process opens its own spans), and the save counter is
        bumped *before* pickling so the snapshot carries the save it
        belongs to — a resumed run continues the counter exactly where
        an uninterrupted checkpointing run would be.
        """
        if self._run_state is None:
            raise ValueError("nothing to checkpoint: run() has not started")
        self.obs.count("checkpoint/saves")
        stack = self.obs._stack
        self.obs._stack = []
        try:
            checkpointer.save(
                SEARCH_CHECKPOINT_KIND,
                self._run_state.processed,
                {"simulator": self},
                seed=self.config.seed,
                meta={
                    "processed": self._run_state.processed,
                    "strategy": self.config.strategy,
                },
            )
        finally:
            self.obs._stack = stack

    @classmethod
    def resume_from(cls, checkpointer: "Checkpointer") -> "SearchSimulator":
        """Rebuild a mid-run simulator from the latest checkpoint."""
        payload, _info = checkpointer.load_latest(SEARCH_CHECKPOINT_KIND)
        simulator = payload["simulator"]
        if not isinstance(simulator, cls):
            raise TypeError(
                f"checkpoint payload holds {type(simulator).__name__}, "
                f"expected {cls.__name__}"
            )
        return simulator

    def run(
        self,
        checkpointer: Optional["Checkpointer"] = None,
        checkpoint_every: int = 10_000,
    ) -> SimulationResult:
        config = self.config
        obs = self.obs
        if checkpointer is not None:
            check_positive("checkpoint_every", checkpoint_every)
        # Local flag + clock keep the disabled path to one branch per
        # request section; timing uses explicit clock reads because a
        # context manager per request would dominate the hot loop.
        profiled = obs.enabled
        clock = obs.clock
        state = self._run_state
        if state is None:
            state = self._run_state = self._fresh_state()
        rates = state.rates
        load = state.load
        load_sink = load if config.track_load else None
        avail_rng = state.avail_rng
        loss_rng = state.loss_rng
        model_churn = config.availability < 1.0
        lost = None
        if config.probe_loss_rate > 0:
            def lost(_rng=loss_rng, _rate=config.probe_loss_rate):  # noqa: E731
                return _rng.py.random() < _rate
        unresolvable = state.unresolvable
        rare_rates = state.rare_rates
        rare_files = state.rare_files
        exchanges = state.exchanges
        requests = state.requests
        processed = state.processed
        # Checkpoints happen *between* events: at the top of the loop the
        # stream holds no half-processed event, so the snapshot is a clean
        # cut and resuming replays nothing twice.
        next_checkpoint = (
            processed + checkpoint_every if checkpointer is not None else None
        )
        run_start = clock() if profiled else 0.0
        while True:
            if next_checkpoint is not None and processed >= next_checkpoint:
                state.unresolvable = unresolvable
                state.processed = processed
                self.save_checkpoint(checkpointer)
                next_checkpoint = processed + checkpoint_every
            try:
                peer, file_key = next(requests)
            except StopIteration:
                break
            processed += 1
            if profiled:
                # Direct dict store: the flight recorder reads this live,
                # and a method call per request would tax the hot loop.
                obs.gauges["progress/requests_done"] = float(processed)
            sharers = self._sharers(file_key)
            if not sharers:
                # Original contributor: the file enters the system here.
                rates.contributions += 1
                self._add_to_cache(peer, file_key)
                continue

            online = None
            if model_churn:
                # One coherent online/offline draw per peer per request.
                statuses: Dict[ClientId, bool] = {}

                def online(target, _statuses=statuses):  # noqa: E731
                    status = _statuses.get(target)
                    if status is None:
                        status = avail_rng.py.random() < config.availability
                        _statuses[target] = status
                    return status

                online_sharers = [s for s in sharers if online(s)]
                if not online_sharers:
                    # Nobody holding the file is online: no mechanism can
                    # serve this request.  The peer is assumed to retry
                    # once a source returns, so the file still enters its
                    # cache, but no list learning happens.
                    unresolvable += 1
                    self._add_to_cache(peer, file_key)
                    continue
            else:
                online_sharers = sharers

            rates.requests += 1
            is_rare = rare_rates is not None and file_key in rare_files
            if is_rare:
                rare_rates.requests += 1
            lost_before = self._probes_lost if profiled else 0
            record: Optional[QueryRecord] = None
            started = clock() if profiled else 0.0
            answerer, first_hop = self._query_one_hop(
                peer, file_key, load_sink, online=online, lost=lost
            )
            if profiled:
                one_hop_s = clock() - started
                obs.record_span("search/one_hop", one_hop_s, start_s=started)
                record = QueryRecord(
                    index=rates.requests,
                    peer=peer,
                    # The lifecycle record crosses the boundary back to
                    # public string ids (trace events keep their schema).
                    file_id=self._compiled.file_ids[file_key],
                    outcome="fallback",
                    hops=len(first_hop),
                    one_hop_s=one_hop_s,
                )
            if answerer is not None:
                rates.hits += 1
                rates.one_hop_hits += 1
                if is_rare:
                    rare_rates.hits += 1
                    rare_rates.one_hop_hits += 1
                if record is not None:
                    record.outcome = "one_hop"
                    # The answering neighbour is always the last one probed.
                    record.hit_position = len(first_hop)
            elif config.two_hop:
                started = clock() if profiled else 0.0
                answerer, contacts = self._query_two_hop(
                    peer, file_key, first_hop, load_sink
                )
                if profiled:
                    two_hop_s = clock() - started
                    obs.record_span(
                        "search/two_hop", two_hop_s, start_s=started
                    )
                    record.two_hop_s = two_hop_s
                    record.two_hop_contacts = contacts
                if answerer is not None:
                    rates.hits += 1
                    rates.two_hop_hits += 1
                    if is_rare:
                        rare_rates.hits += 1
                        rare_rates.two_hop_hits += 1
                    if record is not None:
                        record.outcome = "two_hop"

            if answerer is None:
                # Fall-back search (server or flooding) picks a source
                # uniformly among currently online sharers.
                started = clock() if profiled else 0.0
                answerer = online_sharers[
                    self.rng.py.randrange(len(online_sharers))
                ]
                if profiled:
                    fallback_s = clock() - started
                    obs.record_span(
                        "search/fallback", fallback_s, start_s=started
                    )
                    record.fallback_s = fallback_s
            if record is not None:
                record.probes_lost = self._probes_lost - lost_before
                self._record_query(record)

            self._strategy_for(peer).record_upload(
                answerer, popularity=len(sharers)
            )
            if exchanges is not None:
                edge = (answerer, peer)
                exchanges[edge] = exchanges.get(edge, 0) + 1
            self._add_to_cache(peer, file_key)

        state.unresolvable = unresolvable
        state.processed = processed
        if profiled:
            obs.record_span(
                "search/request_loop", clock() - run_start, start_s=run_start
            )
            obs.merge_counters(
                {
                    "requests": rates.requests,
                    "hits": rates.hits,
                    "one_hop_hits": rates.one_hop_hits,
                    "two_hop_hits": rates.two_hop_hits,
                    "fallbacks": rates.misses,
                    "contributions": rates.contributions,
                    "unresolvable": unresolvable,
                    "probes_lost": self._probes_lost,
                    "evictions": self._evictions,
                },
                prefix="search/",
            )
            obs.gauge("search/hit_rate", rates.hit_rate)

        return SimulationResult(
            config=config,
            rates=rates,
            load=load,
            num_peers=self.trace.num_clients,
            num_files=self._compiled.num_files,
            unresolvable=unresolvable,
            probes_lost=self._probes_lost,
            evictions=self._evictions,
            rare_rates=rare_rates,
            exchanges=exchanges,
        )


def simulate_search(
    trace: StaticTrace,
    config: Optional[SearchConfig] = None,
    obs: Optional[Observer] = None,
) -> SimulationResult:
    """One-call helper: build a simulator and run it."""
    return SearchSimulator(trace, config, obs=obs).run()


# ----------------------------------------------------------------------
# Trace ablations (Sections 5.3.2 / 5.3.3)


def rank_uploaders(trace: StaticTrace) -> List[ClientId]:
    """Non-free-riders sorted by decreasing generosity (files shared)."""
    generosity = trace.generosity()
    sharers = [c for c, g in generosity.items() if g > 0]
    return sorted(sharers, key=lambda c: (-generosity[c], c))


def remove_top_uploaders(trace: StaticTrace, fraction: float) -> StaticTrace:
    """Drop the top ``fraction`` of non-free-riders by files shared.

    Mirrors "removal of the 5, 10 and 15% most generous uploaders from the
    non free-riders": the percentage is taken over sharers only.
    """
    check_fraction("fraction", fraction)
    ranked = rank_uploaders(trace)
    cutoff = int(round(fraction * len(ranked)))
    return trace.without_clients(ranked[:cutoff])


def rank_files_by_popularity(trace: StaticTrace) -> List[FileId]:
    """Files sorted by decreasing replica count (ties by id)."""
    counts = trace.replica_counts()
    return sorted(counts, key=lambda f: (-counts[f], f))


def remove_popular_files(trace: StaticTrace, fraction: float) -> StaticTrace:
    """Drop the top ``fraction`` of files by replica count from every cache."""
    check_fraction("fraction", fraction)
    ranked = rank_files_by_popularity(trace)
    cutoff = int(round(fraction * len(ranked)))
    return trace.without_files(ranked[:cutoff])
