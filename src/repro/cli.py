"""Command-line interface.

``python -m repro <command>`` exposes the library's main workflows:

- ``generate``   — generate a synthetic trace and save it to a file;
- ``stats``      — print Table-1 style characteristics of a saved trace;
- ``analyze``    — run a clustering analysis on a saved or fresh trace;
- ``search``     — run the semantic-search simulation;
- ``experiment`` — reproduce a specific paper table/figure by registry
  name (``--list`` prints the registry);
- ``run-all``    — run every registered experiment, writing one run
  manifest each (skipped on a later run if the manifest still matches);
- ``crawl``      — run the protocol-level network + crawler simulation
  (``--store DIR`` additionally appends each day to an on-disk trace
  store as it completes);
- ``trace``      — convert between JSONL traces and columnar trace
  stores (``convert``), summarize either (``info``), and run a full
  store integrity check (``verify``).

Every command takes ``--seed`` and prints deterministic output, so CLI
runs are reproducible and scriptable.  ``experiment`` and ``run-all``
dispatch through :mod:`repro.runtime`'s experiment registry.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import contextmanager
from threading import TIMEOUT_MAX
from typing import List, Optional

from repro.obs.telemetry import TelemetrySpec, record_telemetry
from repro.runtime import DEFAULT_SEED, RunContext, Scale, crawl_workload


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _interval(text: str) -> float:
    """Seconds between wakeups: positive, and no longer than a thread
    wait or sleep accepts."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    if value > TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"must be <= {TIMEOUT_MAX:g} (threading.TIMEOUT_MAX), got {text}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--scale",
        choices=[scale.value for scale in Scale],
        default="small",
        help="workload scale preset",
    )


# ----------------------------------------------------------------------
# observability plumbing


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a timing-span / histogram / counter profile after the run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's metrics JSON (repro.metrics/2) to PATH",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace_event JSON of the run to PATH "
        "(load it in chrome://tracing or Perfetto)",
    )
    _add_telemetry_flags(parser)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="append live repro.telemetry/1 JSONL snapshots to PATH while "
        "the run executes (crash-persistent; watch with `repro tail`)",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=_interval,
        default=1.0,
        metavar="SECS",
        help="seconds between telemetry snapshots (default: 1.0)",
    )


def _observer(args: argparse.Namespace):
    """An enabled Observer when any obs flag is set, else the shared no-op.

    Instrumentation is RNG-neutral, so either way the simulated outputs
    are identical; the disabled path just skips all recording.
    ``--trace-out`` additionally attaches an event tracer.
    """
    from repro.obs import NULL_OBSERVER, Observer, TraceRecorder

    if args.profile or args.metrics_out or args.trace_out or args.telemetry_out:
        return Observer(tracer=TraceRecorder() if args.trace_out else None)
    return NULL_OBSERVER


def _check_out_parents(args: argparse.Namespace) -> Optional[str]:
    """An error message when an output flag's parent directory is missing.

    Checked up front so a long run cannot fail at write time, hours in,
    over a typo'd path.
    """
    for attr, flag in (
        ("metrics_out", "--metrics-out"),
        ("trace_out", "--trace-out"),
        ("telemetry_out", "--telemetry-out"),
    ):
        path = getattr(args, attr, None)
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            return (
                f"error: parent directory of {flag} does not exist: {parent}"
            )
    return None


def _telemetry_spec(args: argparse.Namespace) -> Optional[TelemetrySpec]:
    """A TelemetrySpec when ``--telemetry-out`` is set, else None."""
    if not args.telemetry_out:
        return None
    return TelemetrySpec(args.telemetry_out, args.telemetry_interval)


@contextmanager
def _observed(args: argparse.Namespace, obs, run_info: dict):
    """Flight-record the block (source ``main``), then write its outputs.

    After a block that returns, the profile, metrics, Chrome trace and
    "Wrote ..." lines follow; a block that raises leaves its recorder's
    end record ``failed`` and writes nothing.  A disabled observer (a
    crawl resumed from an unobserved run) still writes the telemetry.
    """
    with record_telemetry(_telemetry_spec(args), obs, run=run_info):
        yield
    if obs.enabled:
        from repro.obs import render_profile

        metrics = obs.report(run=run_info)
        if args.profile:
            print()
            print(render_profile(metrics))
        if args.metrics_out:
            metrics.write(args.metrics_out)
            print(f"Wrote metrics to {args.metrics_out}")
        if args.trace_out and obs.tracer is not None:
            obs.tracer.write_chrome(args.trace_out)
            dropped = (
                f" ({obs.tracer.dropped} oldest events dropped)"
                if obs.tracer.dropped
                else ""
            )
            print(
                f"Wrote Chrome trace ({len(obs.tracer)} events) to "
                f"{args.trace_out}{dropped}"
            )
    if args.telemetry_out:
        print(f"Wrote telemetry to {args.telemetry_out}")


# ----------------------------------------------------------------------
# generate


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.obs.log import get_log
    from repro.trace.io import save_trace

    ctx = RunContext(seed=args.seed, scale=Scale(args.scale))
    config = ctx.workload()
    get_log().info(
        f"Generating {args.scale} trace "
        f"({config.num_clients} clients, {config.num_files} files, "
        f"{config.days} days)..."
    )
    trace = ctx.temporal_trace()
    if args.anonymize:
        from repro.trace.io import anonymize

        trace = anonymize(trace)
    save_trace(trace, args.output)
    print(f"Wrote {trace.num_snapshots} snapshots to {args.output}")
    return 0


# ----------------------------------------------------------------------
# stats


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.trace.extrapolation import extrapolate
    from repro.trace.filtering import filter_duplicates
    from repro.trace.io import load_trace
    from repro.trace.stats import general_characteristics
    from repro.util.tables import format_table, percent

    trace = load_trace(args.trace)
    filtered = filter_duplicates(trace)
    extrapolated = extrapolate(filtered)
    rows = []
    for label, variant in (
        ("full", trace),
        ("filtered", filtered),
        ("extrapolated", extrapolated),
    ):
        chars = general_characteristics(variant)
        rows.append(
            (
                label,
                chars.duration_days,
                chars.num_clients,
                percent(chars.free_rider_fraction),
                chars.num_distinct_files,
                chars.num_snapshots,
            )
        )
    print(
        format_table(
            ("trace", "days", "clients", "free-riders", "files", "snapshots"),
            rows,
            title=f"Characteristics of {args.trace}",
        )
    )
    return 0


# ----------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.geographic import top_as_table
    from repro.analysis.semantic import clustering_correlation
    from repro.trace.filtering import filter_duplicates
    from repro.trace.io import load_trace
    from repro.util.tables import format_table, percent, render_series

    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = RunContext(seed=args.seed, scale=Scale(args.scale)).temporal_trace()
    filtered = filter_duplicates(trace)

    rows = [
        (r.asn, percent(r.global_share), percent(r.national_share), r.country)
        for r in top_as_table(filtered, 5)
    ]
    print(format_table(("AS", "global", "national", "country"), rows,
                       title="Top autonomous systems"))

    static = filtered.to_static()
    series = clustering_correlation(static.compiled(), name="clustering")
    print()
    print(render_series([series], title="P(another common file | n common), %:",
                        max_points=10))
    return 0


# ----------------------------------------------------------------------
# search


def cmd_search(args: argparse.Namespace) -> int:
    from repro.core.search import SearchConfig, simulate_search
    from repro.trace.filtering import filter_duplicates
    from repro.trace.io import load_trace
    from repro.util.tables import format_table, percent

    # Built before the trace, so a bad value fails before generation.
    try:
        configs = [
            SearchConfig(
                list_size=list_size,
                strategy=args.strategy,
                two_hop=args.two_hop,
                track_load=False,
                availability=args.availability,
                probe_loss_rate=args.loss_rate,
                evict_dead=args.evict_dead,
                seed=args.seed,
            )
            for list_size in args.list_sizes
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        static = filter_duplicates(load_trace(args.trace)).to_static()
    else:
        static = RunContext(seed=args.seed, scale=Scale(args.scale)).static_trace()

    obs = _observer(args)
    run_info = {
        "command": "search",
        "seed": args.seed,
        "scale": args.scale,
        "strategy": args.strategy,
        "two_hop": args.two_hop,
    }
    with _observed(args, obs, run_info):
        if args.workers > 1:
            from repro.runtime.sharded import sharded_search

            results = sharded_search(
                static,
                configs,
                workers=args.workers,
                obs=obs,
                span_names=[f"search@{size}" for size in args.list_sizes],
                telemetry=_telemetry_spec(args),
            )
        else:
            results = []
            for list_size, config in zip(args.list_sizes, configs):
                with obs.span(f"search@{list_size}"):
                    results.append(simulate_search(static, config, obs=obs))
        faulty = args.loss_rate > 0 or args.availability < 1 or args.evict_dead
        rows = []
        for list_size, result in zip(args.list_sizes, results):
            row = (list_size, result.rates.requests, percent(result.hit_rate))
            if faulty:
                row += (result.probes_lost, result.evictions)
            rows.append(row)
        hop = "two-hop" if args.two_hop else "one-hop"
        headers = ("neighbours", "requests", "hit rate")
        if faulty:
            headers += ("probes lost", "evictions")
        print(
            format_table(
                headers,
                rows,
                title=f"{args.strategy.upper()} semantic search ({hop})",
            )
        )
    return 0


# ----------------------------------------------------------------------
# experiment


def _render_experiment_list() -> str:
    from repro.runtime.registry import load_all
    from repro.util.tables import format_table

    rows = []
    for spec in load_all():
        name = spec.name
        if spec.aliases:
            name += " (" + ", ".join(spec.aliases) + ")"
        rows.append((name, spec.artefact, spec.scale_name, spec.description))
    return format_table(
        ("name", "artefact", "scale", "description"),
        rows,
        title=f"Registered experiments ({len(rows)})",
    )


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.runtime import UnknownExperimentError
    from repro.runtime.registry import get as get_spec, load_all

    load_all()
    if args.list or args.id is None:
        print(_render_experiment_list())
        return 0
    try:
        spec = get_spec(args.id)
    except UnknownExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    obs = _observer(args)
    ctx = RunContext(seed=args.seed, scale=Scale(args.scale), obs=obs)
    run_info = {"command": "experiment", "id": args.id, "scale": args.scale}
    with _observed(args, obs, run_info):
        with obs.span(f"experiment/{args.id}"):
            result = spec.run(ctx=ctx)
        print(result.render())
    return 0


# ----------------------------------------------------------------------
# run-all


def cmd_run_all(args: argparse.Namespace) -> int:
    from repro.obs.log import get_log
    from repro.runtime import Runner, UnknownExperimentError

    if args.workers > 1:
        return _run_all_parallel(args)

    runner = Runner(
        ctx=RunContext(seed=args.seed, scale=Scale(args.scale)),
        results_dir=args.results_dir,
        force=args.force,
        telemetry=_telemetry_spec(args),
    )
    report = _run_all_reporter(args)

    get_log().info(
        f"Running experiments at scale={args.scale} seed={args.seed} "
        f"-> {args.results_dir}"
    )
    try:
        outcomes = runner.run_all(args.only or None, on_outcome=report)
    except UnknownExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _run_all_summary(outcomes)


def _run_all_reporter(args: argparse.Namespace):
    def report(outcome) -> None:
        if outcome.skipped:
            status = "skip (manifest up to date)"
        elif outcome.ok:
            status = f"ok   ({outcome.manifest.wall_time_s:.2f}s)"
        else:
            status = f"FAIL ({outcome.error})"
        print(f"  {outcome.name:<20} {status}")
        if args.profile and outcome.ok and not outcome.skipped:
            from repro.obs import RunMetrics, render_profile

            print()
            print(
                render_profile(
                    RunMetrics.from_dict(outcome.manifest.run_metrics)
                )
            )
            print()

    return report


def _run_all_summary(outcomes) -> int:
    executed = sum(1 for o in outcomes if o.ok and not o.skipped)
    skipped = sum(1 for o in outcomes if o.skipped)
    failed = [o for o in outcomes if not o.ok]
    print(
        f"{executed} run, {skipped} skipped, {len(failed)} failed "
        f"({len(outcomes)} total)"
    )
    if failed:
        for outcome in failed:
            print(f"failed: {outcome.name}: {outcome.error}", file=sys.stderr)
        return 1
    return 0


def _run_all_parallel(args: argparse.Namespace) -> int:
    """``run-all --workers N``: one experiment per worker process."""
    from repro.obs.log import get_log
    from repro.runtime import UnknownExperimentError
    from repro.runtime.registry import get as get_spec, load_all
    from repro.runtime.sharded import run_experiments_parallel

    specs = load_all()
    if args.only:
        try:
            specs = [get_spec(name) for name in args.only]
        except UnknownExperimentError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    get_log().info(
        f"Running experiments at scale={args.scale} seed={args.seed} "
        f"-> {args.results_dir} ({args.workers} workers)"
    )
    outcomes = run_experiments_parallel(
        [spec.name for spec in specs],
        seed=args.seed,
        scale=Scale(args.scale),
        results_dir=args.results_dir,
        workers=args.workers,
        force=args.force,
        on_outcome=_run_all_reporter(args),
        telemetry=_telemetry_spec(args),
    )
    return _run_all_summary(outcomes)


# ----------------------------------------------------------------------
# metrics


def cmd_metrics_diff(args: argparse.Namespace) -> int:
    from repro.obs import RunMetrics, diff_metrics, parse_tolerance_spec

    try:
        rules = parse_tolerance_spec(args.fail_on)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    loaded = []
    for label, path in (("baseline", args.baseline), ("current", args.current)):
        try:
            loaded.append(RunMetrics.read(path))
        except (OSError, ValueError) as exc:
            print(f"cannot load {label} {path}: {exc}", file=sys.stderr)
            return 2
    baseline, current = loaded
    diff = diff_metrics(baseline, current, rules)
    print(diff.render())
    return 0 if diff.ok else 1


# ----------------------------------------------------------------------
# tail (live telemetry viewer)


def _render_tail(records, now: float) -> str:
    """One table row per telemetry source: progress, RSS, heartbeat age."""
    from repro.util.tables import format_table

    by_source: dict = {}
    for record in records:
        if record.get("kind") in ("snapshot", "end"):
            by_source[record["source"]] = record
    rows = []
    for source in sorted(by_source):
        record = by_source[source]
        progress = record.get("progress", {})
        if "days_done" in progress and "days_total" in progress:
            shown = (
                f"day {progress['days_done']:.0f}/{progress['days_total']:.0f}"
            )
        elif "requests_done" in progress:
            shown = f"{progress['requests_done']:.0f} requests"
        elif progress:
            key = sorted(progress)[0]
            shown = f"{key}={progress[key]:g}"
        else:
            shown = "-"
        resource = record.get("resource", {})
        rss_mb = resource.get("rss_bytes", 0.0) / (1024 * 1024)
        cpu_s = resource.get("cpu_user_s", 0.0) + resource.get(
            "cpu_system_s", 0.0
        )
        age_s = max(0.0, now - record.get("ts", now))
        state = (
            record.get("outcome", "ended")
            if record["kind"] == "end"
            else "live"
        )
        rows.append(
            (
                source,
                record.get("pid", "-"),
                shown,
                f"{rss_mb:.1f}",
                f"{cpu_s:.1f}",
                f"{record.get('heartbeat_s', 0.0):.1f}",
                f"{age_s:.1f}",
                state,
            )
        )
    return format_table(
        (
            "source",
            "pid",
            "progress",
            "rss MB",
            "cpu s",
            "uptime s",
            "age s",
            "state",
        ),
        rows,
        title=f"Telemetry ({len(records)} records)",
    )


def cmd_tail(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.telemetry import read_telemetry

    def render_once() -> object:
        try:
            records, truncated = read_telemetry(args.file)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
            return None
        if not records:
            print(f"{args.file}: no complete telemetry records yet")
            return records
        print(_render_tail(records, now=_time.time()))
        if truncated:
            print("  (torn final line ignored — writer crashed mid-append?)")
        return records

    records = render_once()
    if records is None:
        return 2
    if not args.follow:
        return 0
    try:
        while True:
            sources = {
                r["source"] for r in records if r.get("kind") == "start"
            }
            ended = {r["source"] for r in records if r.get("kind") == "end"}
            if records and sources and sources <= ended:
                return 0
            _time.sleep(args.interval)
            print()
            records = render_once()
            if records is None:
                return 2
    except KeyboardInterrupt:
        return 0


# ----------------------------------------------------------------------
# report (standalone HTML run report)


def cmd_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.htmlreport import write_report

    if not (args.metrics or args.telemetry or args.trace):
        print(
            "error: nothing to report — pass at least one of --metrics, "
            "--telemetry, --trace",
            file=sys.stderr,
        )
        return 2
    metrics = telemetry = trace = None
    try:
        if args.metrics:
            from repro.obs import RunMetrics

            metrics = RunMetrics.read(args.metrics)
        if args.telemetry:
            from repro.obs.telemetry import read_telemetry

            telemetry, _truncated = read_telemetry(args.telemetry)
        if args.trace:
            with open(args.trace, "r", encoding="utf-8") as fh:
                trace = _json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load report input: {exc}", file=sys.stderr)
        return 2
    try:
        write_report(
            args.output,
            metrics=metrics,
            telemetry=telemetry,
            trace=trace,
            title=args.title,
        )
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    print(f"Wrote report to {args.output}")
    return 0


# ----------------------------------------------------------------------
# bench-summary


def cmd_bench_summary(args: argparse.Namespace) -> int:
    from repro.obs.benchsummary import (
        checkout_dir,
        collate_trajectory,
        render_summary,
    )

    root = checkout_dir()
    rows = collate_trajectory(root)
    if not rows:
        print(f"error: no BENCH_PR*.json trajectory files in {root}", file=sys.stderr)
        return 2
    print(render_summary(rows))
    return 0


# ----------------------------------------------------------------------
# calibrate


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.trace.io import load_trace
    from repro.workload.calibration import (
        all_passed,
        calibration_report,
        render_report,
    )

    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = RunContext(seed=args.seed, scale=Scale(args.scale)).temporal_trace()
    checks = calibration_report(trace)
    print(render_report(checks))
    return 0 if all_passed(checks) else 1


# ----------------------------------------------------------------------
# trace (store tooling)


def _is_store(path: str) -> bool:
    return os.path.isdir(path)


def cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.trace.io import convert_trace_file_to_store, store_to_trace_file
    from repro.trace.store import TraceStoreError

    try:
        if _is_store(args.src):
            store_to_trace_file(args.src, args.dst)
            print(f"Wrote trace file {args.dst} from store {args.src}")
        else:
            store = convert_trace_file_to_store(args.src, args.dst)
            with store:
                print(
                    f"Wrote store {args.dst}: {len(store.days())} days, "
                    f"{store.num_clients} clients, {store.num_files} files, "
                    f"{store.num_snapshots} snapshots"
                )
    except (OSError, ValueError) as exc:  # TraceStoreError is a ValueError
        kind = "store" if isinstance(exc, TraceStoreError) else "trace"
        print(f"error: cannot convert {kind}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.util.tables import format_table

    try:
        if _is_store(args.path):
            from repro.trace.store import open_store

            with open_store(args.path) as store:
                manifest = store.manifest
                print(f"Trace store {args.path} ({manifest['format']})")
                print(
                    f"  clients={store.num_clients} files={store.num_files} "
                    f"snapshots={store.num_snapshots} "
                    f"sorted_intern={manifest['sorted_intern']}"
                )
                rows = [
                    (s["day"], s["clients"], s["replicas"], s["sha256"][:12])
                    for s in manifest["segments"]
                ]
                print(
                    format_table(
                        ("day", "clients", "replicas", "sha256[:12]"),
                        rows,
                        title=f"Segments ({len(rows)})",
                    )
                )
        else:
            from repro.trace.io import load_trace

            trace = load_trace(args.path)
            days = trace.days()
            span = f"{days[0]}..{days[-1]}" if days else "none"
            print(f"Trace file {args.path}")
            print(
                f"  clients={len(trace.clients)} files={len(trace.files)} "
                f"snapshots={trace.num_snapshots} days={len(days)} ({span})"
            )
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_trace_verify(args: argparse.Namespace) -> int:
    from repro.trace.store import verify_store

    problems = verify_store(args.path)
    if problems:
        print(f"{args.path}: {len(problems)} problem(s)", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"{args.path}: OK")
    return 0


# ----------------------------------------------------------------------
# crawl


def cmd_crawl(args: argparse.Namespace) -> int:
    from repro.checkpoint import CheckpointError, Checkpointer
    from repro.edonkey.crawler import Crawler, CrawlerConfig
    from repro.edonkey.network import NetworkConfig, build_network
    from repro.faults import FaultConfig, FaultSchedule, RetryPolicy

    # Built before any work, so an out-of-range flag fails with one line.
    try:
        faults = FaultConfig(
            loss_rate=args.loss_rate,
            slow_rate=args.slow_rate,
            malformed_rate=args.malformed_rate,
            peer_downtime=args.peer_downtime,
            server_crash_day=args.server_crash_day,
            server_crash_id=args.server_crash_id,
            server_downtime_days=args.server_downtime,
        )
        retry = RetryPolicy(max_retries=args.retries) if args.retries else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checkpointer = (
        Checkpointer(args.checkpoint_dir) if args.checkpoint_dir else None
    )
    if checkpointer is None:
        for flag, value in (
            ("--resume", args.resume),
            ("--kill-after-day", args.kill_after_day is not None),
        ):
            if value:
                print(f"error: {flag} requires --checkpoint-dir", file=sys.stderr)
                return 2

    if args.stream:
        if not args.store:
            print(
                "error: --stream requires --store (streamed days exist "
                "only in the on-disk sink)",
                file=sys.stderr,
            )
            return 2
        if args.output:
            print(
                "error: --stream cannot be combined with --output "
                "(streamed days are dropped from memory; run "
                "`repro trace convert` on the store instead)",
                file=sys.stderr,
            )
            return 2

    if args.resume:
        if args.fault_schedule:
            # The schedule rides inside the checkpoint; re-specifying it
            # on resume invites a silent mismatch.
            print(
                "error: --fault-schedule cannot be combined with --resume "
                "(the schedule is restored from the checkpoint)",
                file=sys.stderr,
            )
            return 2
        try:
            crawler, info = Crawler.resume_from(checkpointer)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        mismatches = []
        if info.seed != args.seed:
            mismatches.append(f"seed: checkpoint={info.seed}, flag={args.seed}")
        restored_clients = crawler.network.generator.config.num_clients
        if restored_clients != args.clients:
            mismatches.append(
                f"clients: checkpoint={restored_clients}, flag={args.clients}"
            )
        if crawler.config.days != args.days:
            mismatches.append(
                f"days: checkpoint={crawler.config.days}, flag={args.days}"
            )
        # The store directory rides inside the checkpoint (resume keeps
        # appending to the same store); re-specifying a *different* one
        # would silently split the trace across two stores.
        restored_store = getattr(crawler, "store_dir", None)
        if args.store is not None and restored_store != os.fspath(args.store):
            mismatches.append(
                f"store: checkpoint={restored_store}, flag={args.store}"
            )
        if mismatches:
            print(
                "error: checkpoint does not match the requested run "
                f"({'; '.join(mismatches)})",
                file=sys.stderr,
            )
            return 2
        # The saving run's own report is the baseline: a lossy crawl may
        # carry ghost sessions, and only a change across the restore is
        # a fault.  Sorted: set order can change across a pickle.
        problems = sorted(crawler.network.check_invariants())
        if problems != crawler.saved_invariants:
            from collections import Counter

            print(
                "error: restored network's invariant report differs from "
                "the one the checkpointing run saw "
                "(+ only after the restore, - only before):",
                file=sys.stderr,
            )
            found, saved = Counter(problems), Counter(crawler.saved_invariants)
            for mark, lines in (("+", found - saved), ("-", saved - found)):
                for problem in sorted(lines.elements()):
                    print(f"  {mark} {problem}", file=sys.stderr)
            return 3
        # Resume with the observer that was snapshotted alongside the
        # simulation, so counters keep accumulating across the crash.
        obs = crawler.obs
        wants_obs = (
            args.profile or args.metrics_out or args.trace_out
            or args.telemetry_out
        )
        if wants_obs and not obs.enabled:
            print(
                "warning: the interrupted run was not observed, so "
                "--profile/--metrics-out/--trace-out have nothing to "
                "report and --telemetry-out snapshots carry no progress; "
                "pass them on the initial run",
                file=sys.stderr,
            )
        from repro.obs.log import get_log

        get_log().info(
            f"Resuming crawl at day {crawler.next_day_offset}/{args.days} "
            f"from {info.path.name}..."
        )
    else:
        schedule = None
        if args.fault_schedule:
            try:
                schedule = FaultSchedule.load(args.fault_schedule)
            except (OSError, ValueError) as exc:
                print(
                    f"error: cannot load fault schedule: {exc}", file=sys.stderr
                )
                return 2
        obs = _observer(args)
        network = build_network(
            NetworkConfig(
                workload=crawl_workload(args.clients, args.days),
                faults=faults,
                fault_schedule=schedule,
            ),
            seed=args.seed,
            obs=obs,
        )
        crawler = Crawler(
            network,
            CrawlerConfig(days=args.days, retry=retry),
            seed=args.seed,
            store_dir=args.store,
            stream=args.stream,
        )
        from repro.obs.log import get_log

        get_log().info(
            f"Crawling {args.clients} clients for {args.days} days..."
        )

    on_day_end = None
    if args.kill_after_day is not None:
        kill_day = args.kill_after_day

        def on_day_end(day_offset: int) -> None:
            if day_offset == kill_day:
                # A real crash: no cleanup, no atexit, no flushing.  The
                # checkpoint written just before this hook is all that
                # survives — exactly what resume must cope with.
                os.kill(os.getpid(), signal.SIGKILL)

    run_info = {
        "command": "crawl",
        "seed": args.seed,
        "clients": args.clients,
        "days": args.days,
    }
    with _observed(args, obs, run_info):
        trace = crawler.crawl(checkpointer=checkpointer, on_day_end=on_day_end)
        _crawl_summary(args, trace, crawler)
    return 0


def _crawl_summary(args: argparse.Namespace, trace, crawler) -> None:
    from repro.trace.io import save_trace
    from repro.trace.stats import general_characteristics
    from repro.util.tables import percent

    store_dir = getattr(crawler, "store_dir", None)

    if args.stream:
        # Streamed days live only in the store; the resident trace keeps
        # metadata and counts, so summarize those instead of the (empty)
        # in-memory snapshot view.
        print(
            f"Streamed {trace.num_snapshots} snapshots of "
            f"{len(trace.clients)} clients ({len(trace.files)} files) "
            f"into {store_dir}"
        )
    else:
        chars = general_characteristics(trace)
        print(
            f"Collected {chars.num_snapshots} snapshots of {chars.num_clients} "
            f"clients ({percent(chars.free_rider_fraction)} free-riders), "
            f"{chars.num_distinct_files} files."
        )
    if crawler.network.faults.active:
        print(crawler.degradation_report(trace).render())
    if args.output:
        save_trace(trace, args.output)
        print(f"Wrote trace to {args.output}")
    if store_dir and not args.stream:
        print(f"Appended {len(trace.days())} day segments to {store_dir}")


# ----------------------------------------------------------------------
# serve / loadgen (service mode)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.faults import FaultConfig
    from repro.service import ServiceConfig, run_service

    if args.port_file:
        parent = os.path.dirname(os.path.abspath(args.port_file))
        if not os.path.isdir(parent):
            print(
                f"error: parent directory of --port-file does not exist: "
                f"{parent}",
                file=sys.stderr,
            )
            return 2

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            seed=args.seed,
            max_users=args.max_users,
            reply_limit=args.reply_limit,
            grace_s=args.grace,
            faults=FaultConfig(
                loss_rate=args.loss_rate,
                slow_rate=args.slow_rate,
                malformed_rate=args.malformed_rate,
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs = _observer(args)
    run_info = {"command": "serve", "seed": args.seed, "host": args.host}
    with _observed(args, obs, run_info):
        service = asyncio.run(
            run_service(config, obs=obs, port_file=args.port_file)
        )
        print(f"Drained after {service.requests_total} requests.")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.edonkey.transport import TransportError
    from repro.edonkey.wire import WireError
    from repro.service import LoadGenConfig, run_loadgen

    port = args.port
    if args.port_file:
        try:
            with open(args.port_file, "r", encoding="utf-8") as handle:
                port = int(handle.read().strip())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read --port-file: {exc}", file=sys.stderr)
            return 2
    if not port:
        print(
            "error: no target port (pass --port or --port-file)",
            file=sys.stderr,
        )
        return 2

    try:
        config = LoadGenConfig(
            host=args.host,
            port=port,
            requests=args.requests,
            rate=args.rate,
            sessions=args.sessions,
            seed=args.seed,
            scale=args.scale,
            timeout_s=args.timeout,
            connect_retries=args.connect_retries,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs = _observer(args)
    run_info = {
        "command": "loadgen",
        "seed": args.seed,
        "scale": args.scale,
        "requests": args.requests,
        "rate": args.rate,
        "sessions": args.sessions,
    }
    try:
        with _observed(args, obs, run_info):
            result = asyncio.run(run_loadgen(config, obs=obs))
            print(result.summary())
            mix = ", ".join(
                f"{kind}={n}" for kind, n in sorted(result.mix.items())
            )
            print(f"Request mix: {mix}")
    except (WireError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Peer Sharing Behaviour in the "
        "eDonkey Network' (EuroSys 2006)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("generate", help="generate a synthetic trace")
    _add_common(p)
    p.add_argument("--output", "-o", required=True, help="output path (.jsonl[.gz])")
    p.add_argument("--anonymize", action="store_true",
                   help="hash IPs/UIDs/nicknames before saving")
    p.set_defaults(func=cmd_generate)

    p = subparsers.add_parser("stats", help="summarize a saved trace")
    p.add_argument("trace", help="path to a saved trace")
    p.set_defaults(func=cmd_stats)

    p = subparsers.add_parser("analyze", help="clustering analysis")
    _add_common(p)
    p.add_argument("--trace", help="path to a saved trace (else synthesize)")
    p.set_defaults(func=cmd_analyze)

    p = subparsers.add_parser("search", help="semantic-search simulation")
    _add_common(p)
    p.add_argument("--trace", help="path to a saved trace (else synthesize)")
    p.add_argument("--strategy", choices=["lru", "history", "random", "popularity"],
                   default="lru")
    p.add_argument("--two-hop", action="store_true")
    p.add_argument("--list-sizes", type=_positive_int, nargs="+",
                   default=[5, 10, 20])
    p.add_argument("--availability", type=float, default=1.0,
                   help="probability a probed neighbour is online")
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="probability a neighbour probe is lost (one-hop only)")
    p.add_argument("--evict-dead", action="store_true",
                   help="evict neighbours whose probes keep failing")
    p.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                   help="simulate list sizes in N worker processes, each "
                   "handed the compiled trace once (results are identical "
                   "for any N)")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_search)

    p = subparsers.add_parser("experiment", help="reproduce a paper artefact")
    _add_common(p)
    p.add_argument(
        "id",
        nargs="?",
        help="registry name, e.g. fig18, table3, flooding (omit with --list)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="print the experiment registry and exit",
    )
    _add_obs_flags(p)
    # Experiments default to the paper seed, not the generic CLI seed 0
    # (``RunContext()``'s default).
    p.set_defaults(func=cmd_experiment, seed=DEFAULT_SEED)

    p = subparsers.add_parser(
        "run-all", help="run every registered experiment, with manifests"
    )
    _add_common(p)
    p.add_argument(
        "--results-dir",
        default="results",
        help="directory for manifests and CSVs (default: results/)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="re-run even when a manifest with a matching hash exists",
    )
    p.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only these registry names",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print each executed experiment's profile after its run",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run experiments in N worker processes",
    )
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_run_all, seed=DEFAULT_SEED)

    p = subparsers.add_parser(
        "tail", help="render a live repro.telemetry JSONL stream"
    )
    p.add_argument("file", help="telemetry JSONL written by --telemetry-out")
    p.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep re-rendering until every source has ended (Ctrl-C stops)",
    )
    p.add_argument(
        "--interval",
        type=_interval,
        default=1.0,
        metavar="SECS",
        help="refresh interval with --follow (default: 1.0)",
    )
    p.set_defaults(func=cmd_tail)

    p = subparsers.add_parser(
        "report",
        help="render metrics + telemetry + trace into one standalone "
        "HTML run report (no network assets)",
    )
    p.add_argument("--metrics", metavar="PATH", help="repro.metrics JSON")
    p.add_argument(
        "--telemetry", metavar="PATH", help="repro.telemetry JSONL"
    )
    p.add_argument(
        "--trace", metavar="PATH", help="Chrome trace_event JSON"
    )
    p.add_argument(
        "--output", "-o", required=True, metavar="PATH", help="output HTML"
    )
    p.add_argument(
        "--title", default="repro run report", help="report heading"
    )
    p.set_defaults(func=cmd_report)

    p = subparsers.add_parser(
        "bench-summary",
        help="list the perfbench trajectory (BENCH_PR*.json) as one table",
    )
    p.set_defaults(func=cmd_bench_summary)

    p = subparsers.add_parser(
        "metrics", help="inspect and compare metrics files"
    )
    metrics_sub = p.add_subparsers(dest="metrics_command", required=True)
    p = metrics_sub.add_parser(
        "diff",
        help="compare two repro.metrics files; non-zero exit on regression",
    )
    p.add_argument("baseline", help="baseline metrics JSON")
    p.add_argument("current", help="current metrics JSON")
    from repro.obs import DEFAULT_TOLERANCE_SPEC

    p.add_argument(
        "--fail-on",
        default=DEFAULT_TOLERANCE_SPEC,
        metavar="SPEC",
        help="tolerance spec: comma-separated section[:glob]=rel[:abs] "
        "clauses (rel 'ignore' skips); unmatched metrics compare exactly "
        f"(default: {DEFAULT_TOLERANCE_SPEC!r})",
    )
    p.set_defaults(func=cmd_metrics_diff)

    p = subparsers.add_parser(
        "calibrate", help="check a workload against every paper target"
    )
    _add_common(p)
    p.add_argument("--trace", help="path to a saved trace (else synthesize)")
    p.set_defaults(func=cmd_calibrate)

    p = subparsers.add_parser("crawl", help="protocol-level crawl simulation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clients", type=_positive_int, default=120)
    p.add_argument("--days", type=_positive_int, default=5)
    p.add_argument("--output", "-o", help="save the crawled trace here")
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="probability any message is silently dropped")
    p.add_argument("--slow-rate", type=float, default=0.0,
                   help="probability a reply is too slow and lost (a timeout)")
    p.add_argument("--malformed-rate", type=float, default=0.0,
                   help="probability a reply comes back with an empty payload")
    p.add_argument("--peer-downtime", type=float, default=0.0,
                   help="fraction of peers transiently unreachable each day")
    p.add_argument("--server-crash-day", type=int, default=None,
                   help="crash a server at the start of this day (0-based)")
    p.add_argument("--server-crash-id", type=int, default=0,
                   help="which server crashes (default: server 0)")
    p.add_argument("--server-downtime", type=int, default=2,
                   help="days the crashed server stays down")
    p.add_argument("--retries", type=int, default=0,
                   help="crawler retries per failed request (0 disables)")
    p.add_argument("--fault-schedule", metavar="PATH",
                   help="JSON fault schedule (repro.faults.schedule/1) "
                   "applying per-day FaultConfig overrides")
    p.add_argument("--store", metavar="DIR",
                   help="append each completed day to an on-disk columnar "
                   "trace store at DIR (created if absent)")
    p.add_argument("--stream", action="store_true",
                   help="drop each day from memory once appended to "
                   "--store (bounded RSS; the paper-scale crawl path)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="write an end-of-day checkpoint here after every "
                   "simulated day")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest intact checkpoint in "
                   "--checkpoint-dir instead of starting fresh")
    p.add_argument("--kill-after-day", type=int, default=None, metavar="DAY",
                   help="SIGKILL this process right after DAY's checkpoint "
                   "is written (kill+resume testing; requires --checkpoint-dir)")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_crawl)

    p = subparsers.add_parser(
        "serve",
        help="run the index server as a live asyncio TCP service "
        "(repro.wire/1 frames; SIGTERM drains gracefully)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port to bind (0 = pick a free one)")
    p.add_argument("--port-file", metavar="PATH",
                   help="atomically write the bound port here once "
                   "listening (how scripted runs discover --port 0)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the fault injector's RNG streams")
    p.add_argument("--grace", type=float, default=5.0, metavar="SECS",
                   help="drain grace period before live connections are "
                   "cancelled (default: 5.0)")
    p.add_argument("--max-users", type=int, default=200_000)
    p.add_argument("--reply-limit", type=int, default=200,
                   help="result cap per search/user-query reply")
    p.add_argument("--loss-rate", type=float, default=0.0,
                   help="probability any request is silently dropped")
    p.add_argument("--slow-rate", type=float, default=0.0,
                   help="probability a reply is suppressed (client times out)")
    p.add_argument("--malformed-rate", type=float, default=0.0,
                   help="probability a reply comes back with an empty payload")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_serve)

    p = subparsers.add_parser(
        "loadgen",
        help="replay a seeded trace-derived request mix against a live "
        "`repro serve` and report latency percentiles",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="port of the running service")
    p.add_argument("--port-file", metavar="PATH",
                   help="read the target port from this file (written by "
                   "`repro serve --port-file`)")
    p.add_argument("--requests", type=int, default=1000,
                   help="total requests to send (default: 1000)")
    p.add_argument("--rate", type=float, default=500.0,
                   help="offered open-loop load in requests/second")
    p.add_argument("--sessions", type=int, default=8,
                   help="concurrent client connections (default: 8)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=[scale.value for scale in Scale], default="tiny",
                   help="trace scale the request mix is derived from")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request reply deadline in seconds")
    p.add_argument("--connect-retries", type=int, default=25,
                   help="retries of the connection (covers the serve "
                   "startup race) and of an unanswered connect or publish")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_loadgen)

    p = subparsers.add_parser(
        "trace", help="trace file / trace store tooling"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "convert",
        help="JSONL trace file -> columnar store directory, or back "
        "(direction inferred: a directory source is a store)",
    )
    p.add_argument("src", help="source trace file or store directory")
    p.add_argument("dst", help="destination store directory or trace file")
    p.set_defaults(func=cmd_trace_convert)
    p = trace_sub.add_parser(
        "info", help="summarize a trace file or store directory"
    )
    p.add_argument("path", help="trace file or store directory")
    p.set_defaults(func=cmd_trace_info)
    p = trace_sub.add_parser(
        "verify",
        help="full integrity check of a store (hashes, structure); "
        "non-zero exit when problems are found",
    )
    p.add_argument("path", help="store directory")
    p.set_defaults(func=cmd_trace_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _check_out_parents(args)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
