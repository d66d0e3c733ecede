"""``serve``: a ``repro serve`` process under a trace-derived load.

Why: this is the only workload that runs the live message plane —
``repro.wire/1`` codec, ``TcpTransport`` and ``IndexService`` — so a
codec or transport change shows here and nowhere else.  The load comes
from this process alone over at most ``nproc`` (max 2) TCP connections;
the server is the only other process.

- Write phase: every sharer of the DEFAULT trace connects and publishes
  its cache (499 sessions, 38,795 files at seed 0), then re-publishes
  its cache for the last ``REPLAY_DAYS`` days of the temporal trace
  (the replace path: unpublish, then publish), then its full cache once
  more, so the read phase queries the index ``repro loadgen`` queries.
  This loads frame decode and ``handle_publish``.
- Read phase: the ``build_plan`` mix (search 40 / sources 30 / browse 12
  / users 10 / serverlist 8, the request classes of "Ten weeks in the
  life of an eDonkey server").  A closed loop with ``DEPTH`` outstanding
  requests per connection replays one list of requests as ``BURSTS``
  bursts, and between them run open loops at ``LOW_RPS`` and
  ``HIGH_RPS``.  This loads ``handle_search`` and reply encode.
  The read phase never writes, and ``Server`` sorts its replies, so
  every reply is deterministic and digested.

The server and the load generator are pinned to a core each, so each
core can be calibrated (see ``common.calibrate``); ``ops_per_s`` is the
closed-loop replies per second of server run time at reference speed.

Open-loop latency is timed from each request's *scheduled* send, so a
stalled generator cannot hide queueing (no coordinated omission); the
latency from the actual send and the generator's lateness are reported
beside it.

Loads: edonkey.wire, edonkey.transport, service.server, edonkey.protocol,
edonkey.server.  Bypasses: edonkey.network, edonkey.crawler,
faults.injector (off: the service dispatches directly), core.*.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    DATASET_SEED,
    OUT_DIR,
    ROOT,
    SETUP_REPEATS,
    SRC,
    DigestBook,
    Stopwatch,
    at_reference_speed,
    calibrate,
    median_of,
    metric,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    proc_run_s,
    ratio,
    short_digest,
)

#: Fixed offered rates (req/s).  Closed-loop capacity is about 550-700
#: req/s on the reference 2-core box, so these are roughly a sixth and a
#: third of it.  They never follow measured capacity: runs of different code
#: must face the same offered load to be comparable.
LOW_RPS = 100.0
HIGH_RPS = 200.0
#: Outstanding requests per connection in the closed loop (enough to keep
#: the server busy while the generator decodes).
DEPTH = 8
#: Temporal-trace days whose caches are re-published in the write phase.
REPLAY_DAYS = 2
#: Closed-loop requests per ``--seconds``, replayed as ``BURSTS`` bursts
#: spread over the read phase (~7 s of work in all at 15 s), each burst
#: timed in ``CHUNKS`` chunks.
CLOSED_PER_SECOND = 80
BURSTS = 3
CHUNKS = 24
#: A p99 needs at least 10 samples beyond it.
MIN_PERCENTILE_SAMPLES = 1000
#: Seconds a phase may take before its missing replies count as failed.
PHASE_TIMEOUT_S = 60.0

READ_TYPES = {
    "search": "SearchReply",
    "sources": "SourcesReply",
    "browse": "BrowseReply",
    "users": "UsersReply",
    "serverlist": "ServerListReply",
}
HANDLED_TYPES = (
    "SearchRequest",
    "QuerySources",
    "BrowseUser",
    "QueryUsers",
    "ServerListRequest",
    "PublishFiles",
)
CODEC_TYPES = tuple(READ_TYPES.values()) + ("PublishFiles",)
#: Messages per type re-run through the codec in the traced run.
CODEC_SAMPLE = 200


def connection_count() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


class Cores:
    """The load generator and the server each pinned to a core of its own
    (the first two visible), so that a calibration on each core, taken
    while the server is idle, tells how fast both ran."""

    def __init__(self) -> None:
        visible = sorted(os.sched_getaffinity(0))
        self.pinned = len(visible) >= 2
        self.generator = {visible[0]} if self.pinned else set(visible)
        self.server = {visible[1]} if self.pinned else set(visible)
        os.sched_setaffinity(0, self.generator)

    def pin_server(self, pid: int) -> None:
        os.sched_setaffinity(pid, self.server)

    def calibrate_server(self) -> float:
        """:func:`calibrate` on the server's core."""
        if not self.pinned:
            return calibrate()
        os.sched_setaffinity(0, self.server)
        try:
            return calibrate()
        finally:
            os.sched_setaffinity(0, self.generator)

    def calibrate(self) -> Tuple[float, float]:
        """:func:`calibrate` on the generator's core, then the server's."""
        return calibrate(), self.calibrate_server()


# ----------------------------------------------------------------------
# The server process


class ServeProcess:
    """A ``repro serve`` child, started from the checkout's ``src``."""

    def __init__(self, seed: int, tag: str, cores: Cores,
                 metrics_out: Optional[str] = None):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.port_file = os.path.join(OUT_DIR, f"serve-{tag}.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port-file", self.port_file,
            "--seed", str(seed),
            "--grace", "2",
        ]
        if metrics_out:
            cmd += ["--metrics-out", metrics_out]
        env = dict(os.environ, PYTHONPATH=SRC)
        self._log = open(os.path.join(OUT_DIR, f"serve-{tag}.log"), "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            cores.pin_server(self.proc.pid)
        except OSError:
            self.stop()
            raise

    def wait_port(self, timeout_s: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}"
                )
            try:
                with open(self.port_file, "r", encoding="ascii") as handle:
                    text = handle.read().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.005)
        raise RuntimeError("repro serve did not publish its port")

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def run_s(self) -> float:
        return proc_run_s(self.proc.pid)

    def hwm_mb(self) -> float:
        return proc_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain, writes ``--metrics-out``), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if os.path.exists(self.port_file):
            os.remove(self.port_file)


# ----------------------------------------------------------------------
# Inputs


def _description(meta):
    from repro.edonkey.messages import FileDescription

    return FileDescription(
        file_id=meta.file_id,
        name=meta.name or meta.file_id,
        size=meta.size,
        kind=meta.kind,
    )


def _build_plan(seed: int, requests: int):
    """The ``build_plan`` mix over the dataset's sharers, its requests put
    in an order drawn from ``seed`` (which also splits them into the
    closed-loop and open-loop phases)."""
    from repro.runtime import SHARED_TRACE_CACHE, Scale
    from repro.service.loadgen import LoadGenConfig, build_plan

    compiled = SHARED_TRACE_CACHE.compiled(Scale.DEFAULT, DATASET_SEED)
    sharers = sum(1 for cache in compiled.cache_sets if cache)
    plan = build_plan(
        LoadGenConfig(
            sessions=sharers,
            scale="default",
            seed=DATASET_SEED,
            requests=requests,
        )
    )
    random.Random(seed).shuffle(plan.ops)
    return plan


def _write_messages(plan, temporal, nconn: int):
    """Per connection: ``[(kind, message), ...]`` in send order."""
    from repro.edonkey.messages import ConnectRequest, PublishFiles

    per_conn: List[List[Tuple[str, object]]] = [[] for _ in range(nconn)]
    for index, session in enumerate(plan.sessions):
        per_conn[index % nconn].append(
            (
                "connect",
                ConnectRequest(
                    client_id=session.client_id,
                    nickname=session.nickname,
                    firewalled=False,
                ),
            )
        )
        per_conn[index % nconn].append(
            ("publish", PublishFiles(client_id=session.client_id, files=session.files))
        )
    for day in temporal.days()[-REPLAY_DAYS:]:
        caches = temporal.snapshots_on(day)
        for index, session in enumerate(plan.sessions):
            cache = caches.get(session.client_id)
            if cache is None:
                continue
            files = [_description(temporal.files[f]) for f in sorted(cache)]
            per_conn[index % nconn].append(
                ("publish", PublishFiles(client_id=session.client_id, files=files))
            )
    for index, session in enumerate(plan.sessions):
        per_conn[index % nconn].append(
            ("publish", PublishFiles(client_id=session.client_id, files=session.files))
        )
    return per_conn


# ----------------------------------------------------------------------
# Load generation (one asyncio loop in this process)


class Outcomes:
    """Per-request replies, fingerprints and failures of one phase.

    Replies are held until :meth:`settle`, which fingerprints them
    outside the timed phases (hashing a large reply costs the load
    generator about a tenth of its decode)."""

    def __init__(self, kinds: List[str]) -> None:
        self.kinds = kinds
        self.fingerprints: List[Optional[str]] = [None] * len(kinds)
        self.reply_types: List[Optional[str]] = [None] * len(kinds)
        self.samples: Dict[str, list] = {}
        self.keep_samples = False
        self._held: List[Tuple[int, object]] = []

    def record(self, index: int, reply) -> None:
        self._held.append((index, reply))

    def settle(self) -> None:
        for index, reply in self._held:
            name = type(reply).__name__ if reply is not None else "None"
            self.reply_types[index] = name
            self.fingerprints[index] = hashlib.sha1(
                repr(reply).encode("utf-8")
            ).hexdigest()
            if self.keep_samples:
                bucket = self.samples.setdefault(name, [])
                if len(bucket) < CODEC_SAMPLE:
                    bucket.append((index, reply))
        self._held = []


async def _closed_loop(conns, per_conn, outcomes, offsets, depth):
    """Send each connection's messages with ``depth`` outstanding.

    Workers of one connection share a cursor and write as soon as they
    take a message, so each connection sends in list order."""

    async def worker(conn, messages, offset, cursor):
        for i in cursor:
            reply = await conn.request(messages[i])
            outcomes.record(offset + i, reply)

    tasks = []
    for conn, messages, offset in zip(conns, per_conn, offsets):
        cursor = iter(range(len(messages)))
        tasks += [
            asyncio.ensure_future(worker(conn, messages, offset, cursor))
            for _ in range(depth)
        ]
    await _finish(tasks)


async def _finish(tasks) -> None:
    """Wait for ``tasks``; cancel what outlives the phase timeout."""
    done, pending = await asyncio.wait(tasks, timeout=PHASE_TIMEOUT_S)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    for task in done:
        task.result()  # surface transport errors


class OpenLoopResult:
    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done: List[Optional[float]] = [None] * n
        self.backlog_max = 0

    def latencies_ms(self, from_sent: bool = False) -> List[float]:
        start = self.sent if from_sent else self.due
        return [
            (d - s) * 1e3 for s, d in zip(start, self.done) if d is not None
        ]

    def lateness_ms(self) -> List[float]:
        return [(s - d) * 1e3 for d, s in zip(self.due, self.sent)]


async def _open_loop(conns, ops, rate, outcomes, offset, recorder=None):
    """Send ``ops`` on a fixed schedule of ``rate`` per second."""
    clock = time.perf_counter
    result = OpenLoopResult(len(ops))
    inflight = [0]

    async def one(i, conn, message):
        result.sent[i] = clock()
        inflight[0] += 1
        if inflight[0] > result.backlog_max:
            result.backlog_max = inflight[0]
        reply = await conn.request(message)
        result.done[i] = clock()
        inflight[0] -= 1
        outcomes.record(offset + i, reply)
        if recorder is not None:
            rid = offset + i
            recorder.complete(
                "loadgen.queue", result.due[i], result.sent[i] - result.due[i],
                cat="loadgen", args={"id": rid},
            )
            recorder.complete(
                "edonkey.transport.request", result.sent[i],
                result.done[i] - result.sent[i], cat="edonkey.transport",
                args={"id": rid, "type": type(message).__name__},
            )

    tasks = []
    start = clock() + 0.01
    for i, (conn_index, message) in enumerate(ops):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        result.due[i] = due
        tasks.append(asyncio.ensure_future(one(i, conns[conn_index], message)))
    await _finish(tasks)
    return result


async def _connect(port: int, nconn: int):
    from repro.edonkey.transport import TcpTransport

    return [
        await TcpTransport.open("127.0.0.1", port, retries=20)
        for _ in range(nconn)
    ]


async def _close(conns) -> None:
    for conn in conns:
        await conn.aclose()


# ----------------------------------------------------------------------
# One pass: write phase, closed loop, open loops


class Pass:
    """Figures of one server's lifetime under the full load."""

    publish_rps = 0.0
    capacity_rps = 0.0
    cpu_capacity_rps = 0.0
    cpu_ms_per_publish = 0.0
    cpu_ms_per_req = 0.0
    loadgen_cpu_ms_per_req = 0.0
    hwm_mb = 0.0
    replayed = 0  # closed-loop requests sent again after the first burst
    replay_mismatches = 0
    low: Optional[OpenLoopResult] = None
    high: Optional[OpenLoopResult] = None


async def _closed_burst(conns, closed, lo: int, hi: int, read) -> float:
    """Closed loop over ``closed[lo:hi]``; returns its seconds.

    Replies are recorded per connection, then mapped back to plan order,
    so the digest does not depend on how connections interleave."""
    nconn = len(conns)
    per_conn: List[List[object]] = [[] for _ in range(nconn)]
    index_of: List[List[int]] = [[] for _ in range(nconn)]
    for i in range(lo, hi):
        conn_index, message = closed[i]
        per_conn[conn_index].append(message)
        index_of[conn_index].append(i)
    staged = Outcomes(["read"] * (hi - lo))
    staged.keep_samples = read.keep_samples
    offsets, running = [], 0
    for messages in per_conn:
        offsets.append(running)
        running += len(messages)
    with Stopwatch() as sw:
        await _closed_loop(conns, per_conn, staged, offsets, DEPTH)
    staged.settle()
    flat = [i for indices in index_of for i in indices]
    for position, i in enumerate(flat):
        read.fingerprints[i] = staged.fingerprints[position]
        read.reply_types[i] = staged.reply_types[position]
    for name, bucket in staged.samples.items():
        read.samples.setdefault(name, []).extend(
            (flat[position], reply) for position, reply in bucket
        )
    return sw.elapsed


def _read_ops(plan, nconn: int, sizes: Tuple[int, int, int]):
    ops = [(op.session % nconn, op.message) for op in plan.ops]
    closed_n, low_n, _ = sizes
    return ops[:closed_n], ops[closed_n : closed_n + low_n], ops[closed_n + low_n :]


async def _drive(server, conns, write_per_conn, plan, sizes, write, read,
                 open_loops: bool, cores: Cores, recorder=None) -> Pass:
    nconn = len(conns)
    result = Pass()
    offsets, total = [], 0
    for messages in write_per_conn:
        offsets.append(total)
        total += len(messages)
    cpu0 = server.cpu_s()
    with Stopwatch() as sw:
        await _closed_loop(
            conns,
            [[m for _, m in messages] for messages in write_per_conn],
            write,
            offsets,
            DEPTH,
        )
    write.settle()
    result.publish_rps = total / sw.elapsed
    result.cpu_ms_per_publish = (server.cpu_s() - cpu0) / total * 1e3

    closed, low, high = _read_ops(plan, nconn, sizes)
    # The closed loop replays the same read-only list as BURSTS bursts
    # spread over the read phase (between the open-loop phases), each in
    # CHUNKS chunks.  Between chunks the server is idle: its run time in
    # the chunk is exact then, and its core is calibrated, so the chunk's
    # server time at reference speed is known; each chunk keeps its
    # median over the bursts (every burst gets the same replies).  The
    # wall-clock figure keeps each chunk's best time.  The first burst is
    # checked, the others must match it exactly.
    cuts = [k * len(closed) // CHUNKS for k in range(CHUNKS + 1)]
    chunk_seconds: List[List[float]] = []
    chunk_paced: List[List[float]] = []
    server_cpu = own_cpu = 0.0
    for burst in range(BURSTS):
        target = read if burst == 0 else Outcomes(["read"] * len(closed))
        cpu0, own0 = server.cpu_s(), time.process_time()
        before = cores.calibrate_server()
        seconds, paced = [], []
        for lo, hi in zip(cuts, cuts[1:]):
            chunk_cpu = server.run_s()
            seconds.append(await _closed_burst(conns, closed, lo, hi, target))
            chunk_cpu = server.run_s() - chunk_cpu
            after = cores.calibrate_server()
            paced.append(at_reference_speed(chunk_cpu, before, after))
            before = after
        chunk_seconds.append(seconds)
        chunk_paced.append(paced)
        server_cpu += server.cpu_s() - cpu0
        own_cpu += time.process_time() - own0
        if burst:
            result.replayed += len(closed)
            result.replay_mismatches += sum(
                a != b
                for a, b in zip(read.fingerprints, target.fingerprints)
            )
        if open_loops and burst == 0:
            result.low = await _open_loop(
                conns, low, LOW_RPS, read, len(closed), recorder
            )
            read.settle()
        if open_loops and burst == 1:
            result.high = await _open_loop(
                conns, high, HIGH_RPS, read, len(closed) + len(low), recorder
            )
            read.settle()
    best = [min(seconds) for seconds in zip(*chunk_seconds)]
    result.capacity_rps = len(closed) / sum(best)
    result.cpu_capacity_rps = len(closed) / sum(
        median_of(paced) for paced in zip(*chunk_paced)
    )
    result.cpu_ms_per_req = server_cpu / (len(closed) * BURSTS) * 1e3
    result.loadgen_cpu_ms_per_req = own_cpu / (len(closed) * BURSTS) * 1e3
    result.hwm_mb = server.hwm_mb()
    return result


# ----------------------------------------------------------------------
# Output checks


def _check(seed, seconds, plan, sizes, write, read, book, record,
           open_loops: bool):
    """Returns (attempted, failed, note)."""
    n_read = sizes[0] + (sizes[1] + sizes[2] if open_loops else 0)
    read_kinds = [op.kind for op in plan.ops[:n_read]]
    failed = 0
    attempted = len(write.kinds) + n_read
    phases = {
        "write": (write.fingerprints, write.reply_types, write.kinds),
        "read": (
            read.fingerprints[:n_read],
            read.reply_types[:n_read],
            read_kinds,
        ),
    }
    key = f"seconds={seconds}"
    recorded = {}
    for phase, (prints, types, kinds) in phases.items():
        expected_types = [
            {"connect": "ConnectReply", "publish": "Ack"}.get(k) or READ_TYPES[k]
            for k in kinds
        ]
        for got, want in zip(types, expected_types):
            failed += got != want
        shorts = "".join(short_digest(p) if p else "----" for p in prints)
        full = hashlib.sha1("".join(p or "-" for p in prints).encode()).hexdigest()
        recorded[phase] = {"requests": shorts, "digest": full}
    if record and open_loops:
        book.record(seed, key, recorded)
    expected = book.expected(seed, key)
    note = "reply types"
    if expected is not None:
        note = "digest"
        # A traced run's untraced pass sends only the closed-loop part
        # of the read phase: compare what was sent.
        for phase, got in recorded.items():
            want = expected[phase]
            sent = len(got["requests"])
            mismatched = sum(
                1
                for i in range(0, sent, 4)
                if got["requests"][i : i + 4] != want["requests"][i : i + 4]
            )
            if sent == len(want["requests"]) and got["digest"] != want["digest"]:
                mismatched = max(mismatched, 1)
            failed += mismatched
    return attempted, failed, note


# ----------------------------------------------------------------------
# Entry point


def _sizes(seconds: int) -> Tuple[int, int, int]:
    low = max(MIN_PERCENTILE_SAMPLES, int(LOW_RPS * seconds * 0.55))
    high = max(MIN_PERCENTILE_SAMPLES, int(HIGH_RPS * seconds * 0.3))
    return CLOSED_PER_SECOND * seconds, low, high


def _setup(seed: int, requests: int, nconn: int, tag: str, cores: Cores):
    """Spawn + port file, plan build, connect; repeated, keep the last.

    Returns (server, plan, connections, median reference-speed seconds,
    median wall seconds)."""
    from repro.runtime import SHARED_TRACE_CACHE

    times, walls = [], []
    server = plan = conns = None
    loop = asyncio.get_event_loop()
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                loop.run_until_complete(_close(conns))
                server.stop()
                server = None
            SHARED_TRACE_CACHE.clear()  # every rep builds its plan cold
            before = cores.calibrate()
            with Stopwatch() as sw:
                server = ServeProcess(seed, f"{tag}{rep}", cores)
                port = server.wait_port()
                plan = _build_plan(seed, requests)
                conns = loop.run_until_complete(_connect(port, nconn))
            walls.append(sw.elapsed)
            times.append(
                at_reference_speed(sw.elapsed, *before, *cores.calibrate())
            )
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return server, plan, conns, median_of(times), median_of(walls)


def run(seed: int, seconds: int, trace_mode: bool, record: bool, out):
    """One run; returns (attempted, failed, metrics, details)."""
    from repro.runtime import SHARED_TRACE_CACHE, Scale

    nconn = connection_count()
    cores = Cores()
    sizes = _sizes(seconds)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    temporal = SHARED_TRACE_CACHE.temporal(Scale.DEFAULT, DATASET_SEED)
    book = DigestBook("serve")
    servers = []
    try:
        server, plan, conns, setup_s, setup_wall_s = _setup(
            seed, sum(sizes), nconn, "a", cores
        )
        servers.append(server)
        write_per_conn = _write_messages(plan, temporal, nconn)
        del temporal
        # This process holds the generator's inputs (traces, plan,
        # messages): freeze them so full collections during the timed
        # phases scan only what the load itself allocates.
        gc.collect()
        gc.freeze()
        write = Outcomes([k for msgs in write_per_conn for k, _ in msgs])
        read = Outcomes(["read"] * sum(sizes))
        plain = loop.run_until_complete(
            _drive(server, conns, write_per_conn, plan, sizes, write, read,
                   open_loops=not trace_mode, cores=cores)
        )
        loop.run_until_complete(_close(conns))
        server.stop()
        attempted, failed, check = _check(
            seed, seconds, plan, sizes, write, read, book,
            record and not trace_mode, open_loops=not trace_mode,
        )
        attempted += plain.replayed
        failed += plain.replay_mismatches
        if not trace_mode:
            return _untraced_result(
                attempted, failed, check, setup_s, setup_wall_s, plain
            )

        # Traced pass: a fresh server with its handler histograms on, the
        # same load, and client-side spans per request.
        from tracing import new_recorder

        recorder = new_recorder()
        metrics_path = os.path.join(OUT_DIR, f"serve-metrics-{seed}.json")
        server = ServeProcess(seed, "traced", cores, metrics_out=metrics_path)
        servers.append(server)
        conns = loop.run_until_complete(_connect(server.wait_port(), nconn))
        write_t = Outcomes(write.kinds)
        read_t = Outcomes(["read"] * sum(sizes))
        write_t.keep_samples = read_t.keep_samples = True
        traced = loop.run_until_complete(
            _drive(server, conns, write_per_conn, plan, sizes, write_t, read_t,
                   open_loops=True, cores=cores, recorder=recorder)
        )
        loop.run_until_complete(_close(conns))
        server.stop()
        attempted_t, failed_t, _ = _check(
            seed, seconds, plan, sizes, write_t, read_t, book, False,
            open_loops=True,
        )
        publishes = [
            (i, m) for i, (k, m) in enumerate(
                (k, m) for msgs in write_per_conn for k, m in msgs
            ) if k == "publish"
        ][:CODEC_SAMPLE]
        codec = _codec_rerun(read_t.samples, publishes, recorder)
        out.write_chrome(recorder)
        handled = _handler_means(metrics_path)
        m = _layer_metrics(plain, traced, codec, handled, plan, sizes)
        return (
            attempted + attempted_t + traced.replayed,
            failed + failed_t + traced.replay_mismatches,
            m,
            {"check": (check, "")},
        )
    finally:
        for server in servers:
            server.stop()
        loop.close()
        asyncio.set_event_loop(None)


def _untraced_result(attempted, failed, check, setup_s, setup_wall_s,
                     plain: Pass):
    low_ms, high_ms = plain.low.latencies_ms(), plain.high.latencies_ms()
    details = {
        "serve.publish_rps": (plain.publish_rps, "req/s"),
        "serve.capacity_rps": (plain.capacity_rps, "req/s"),
        "serve.cpu_capacity_rps": (plain.cpu_capacity_rps, "req/s"),
        "serve.low.p50_ms": (percentile(low_ms, 0.5), "ms"),
        "serve.low.p99_ms": (percentile(low_ms, 0.99), "ms"),
        "serve.low.samples": (len(low_ms), "requests"),
        "serve.high.p50_ms": (percentile(high_ms, 0.5), "ms"),
        "serve.high.p99_ms": (percentile(high_ms, 0.99), "ms"),
        "serve.high.samples": (len(high_ms), "requests"),
        "service.server.cpu_ms_per_req": (plain.cpu_ms_per_req, "ms"),
        "loadgen.cpu_ms_per_req": (plain.loadgen_cpu_ms_per_req, "ms"),
        "loadgen.late_p99_ms": (
            percentile(plain.low.lateness_ms() + plain.high.lateness_ms(), 0.99),
            "ms",
        ),
        "setup_wall_s": (setup_wall_s, "s"),
        "fail_frac": (ratio(failed, attempted), "ratio"),
        "check": (check, ""),
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(plain.hwm_mb, "MB"),
        "ops_per_s": metric(plain.cpu_capacity_rps, "op/s"),
    }
    return attempted, failed, metrics, details


def _codec_rerun(samples, publishes, recorder):
    """Re-time encode/decode on this run's actual messages, per type.

    Returns ``{type: (encode_us, decode_us, mean bytes, count)}``."""
    from repro.edonkey.wire import decode_frame, encode_frame

    clock = time.perf_counter
    by_type: Dict[str, list] = dict(samples)
    by_type["PublishFiles"] = publishes
    result = {}
    for name in CODEC_TYPES:
        items = by_type.get(name, [])
        enc = dec = size = 0.0
        for rid, message in items:
            t0 = clock()
            frame = encode_frame(message, seq=rid)
            t1 = clock()
            decode_frame(frame)
            t2 = clock()
            enc += t1 - t0
            dec += t2 - t1
            size += len(frame)
            recorder.complete("edonkey.wire.encode", t0, t1 - t0,
                              cat="edonkey.wire", args={"id": rid, "type": name})
            recorder.complete("edonkey.wire.decode", t1, t2 - t1,
                              cat="edonkey.wire", args={"id": rid, "type": name})
        n = len(items)
        result[name] = (
            enc / n * 1e6 if n else 0.0,
            dec / n * 1e6 if n else 0.0,
            size / n if n else 0.0,
            n,
        )
    return result


def _handler_means(metrics_path: str) -> Dict[str, Tuple[float, float]]:
    """``{type: (mean handle seconds, calls)}`` from the server's
    ``protocol/server/handle_s/<type>`` histograms."""
    from repro.obs import RunMetrics

    histograms = RunMetrics.read(metrics_path).histograms
    result = {}
    for name in HANDLED_TYPES:
        hist = histograms.get(f"protocol/server/handle_s/{name}")
        if hist and hist["count"]:
            result[name] = (hist["sum"] / hist["count"], hist["count"])
        else:
            result[name] = (0.0, 0.0)
    return result


def _layer_metrics(plain: Pass, traced: Pass, codec, handled, plan, sizes):
    m = {}
    for name in HANDLED_TYPES:
        m[f"edonkey.protocol.handle_us.{name}"] = (handled[name][0] * 1e6, "us")
    for name in CODEC_TYPES:
        enc, dec, size, _ = codec[name]
        m[f"edonkey.wire.encode_us.{name}"] = (enc, "us")
        m[f"edonkey.wire.decode_us.{name}"] = (dec, "us")
        m[f"edonkey.wire.bytes.{name}"] = (size, "bytes")
    high = traced.high
    service = high.latencies_ms(from_sent=True)
    low_ms, high_ms = traced.low.latencies_ms(), high.latencies_ms()
    lateness = traced.low.lateness_ms() + high.lateness_ms()
    m.update(
        {
            "edonkey.transport.service_p50_ms": (percentile(service, 0.5), "ms"),
            "edonkey.transport.service_p99_ms": (percentile(service, 0.99), "ms"),
            "service.server.cpu_ms_per_req": (plain.cpu_ms_per_req, "ms"),
            "service.server.cpu_ms_per_publish": (plain.cpu_ms_per_publish, "ms"),
            "service.server.backlog_max": (
                max(traced.low.backlog_max, high.backlog_max),
                "count",
            ),
            "loadgen.late_p99_ms": (percentile(lateness, 0.99), "ms"),
            "loadgen.cpu_ms_per_req": (plain.loadgen_cpu_ms_per_req, "ms"),
            "serve.publish_rps": (plain.publish_rps, "req/s"),
            "serve.capacity_rps": (plain.capacity_rps, "req/s"),
            "serve.low.p50_ms": (percentile(low_ms, 0.5), "ms"),
            "serve.low.p99_ms": (percentile(low_ms, 0.99), "ms"),
            "serve.low.samples": (len(low_ms), "count"),
            "serve.high.p50_ms": (percentile(high_ms, 0.5), "ms"),
            "serve.high.p99_ms": (percentile(high_ms, 0.99), "ms"),
            "serve.high.samples": (len(high_ms), "count"),
            "trace.overhead_x": (plain.capacity_rps / traced.capacity_rps, "x"),
        }
    )
    # Self time per read request at the high rate, in ms: the handler and
    # the reply codec (server encode + client decode) are the children of
    # the transport round trip; what is left is socket and event-loop time.
    mix = {}
    for op in plan.ops[sizes[0] + sizes[1] :]:
        mix[op.kind] = mix.get(op.kind, 0) + 1
    request_type = {
        "search": "SearchRequest",
        "sources": "QuerySources",
        "browse": "BrowseUser",
        "users": "QueryUsers",
        "serverlist": "ServerListRequest",
    }
    n = sum(mix.values())
    handle_ms = sum(
        handled[request_type[k]][0] * c for k, c in mix.items()
    ) / n * 1e3
    wire_ms = sum(
        (codec[READ_TYPES[k]][0] + codec[READ_TYPES[k]][1]) * c
        for k, c in mix.items()
    ) / n * 1e-3
    service_mean = sum(service) / len(service)
    m["edonkey.protocol.self_ms"] = (handle_ms, "ms")
    m["edonkey.wire.self_ms"] = (wire_ms, "ms")
    m["edonkey.transport.self_ms"] = (service_mean - handle_ms - wire_ms, "ms")
    return m
