"""CLI-level tests for ``repro serve`` / ``repro loadgen``."""

import asyncio
import json
import threading

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0
        assert args.grace == 5.0
        assert args.loss_rate == 0.0
        assert args.port_file is None

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.requests == 1000
        assert args.rate == 500.0
        assert args.sessions == 8
        assert args.scale == "tiny"


class TestErrorPaths:
    def test_loadgen_without_port_is_rc2(self, capsys):
        assert main(["loadgen"]) == 2
        assert "no target port" in capsys.readouterr().err

    def test_loadgen_unreadable_port_file_is_rc2(self, tmp_path, capsys):
        assert main(
            ["loadgen", "--port-file", str(tmp_path / "missing")]
        ) == 2
        assert "cannot read --port-file" in capsys.readouterr().err

    def test_loadgen_garbage_port_file_is_rc2(self, tmp_path, capsys):
        port_file = tmp_path / "port"
        port_file.write_text("not a port\n")
        assert main(["loadgen", "--port-file", str(port_file)]) == 2
        assert "cannot read --port-file" in capsys.readouterr().err

    def test_loadgen_invalid_requests_is_rc2(self, capsys):
        assert main(["loadgen", "--port", "1", "--requests", "0"]) == 2
        assert "requests must be" in capsys.readouterr().err

    def test_loadgen_unreachable_service_is_rc2(self, capsys):
        # Nothing listens on the port: the transport gives up after its
        # retries and the CLI reports it as an operational error.
        rc = main(
            ["loadgen", "--port", "1", "--connect-retries", "0",
             "--requests", "1"]
        )
        assert rc == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_serve_bad_port_file_parent_is_rc2(self, tmp_path, capsys):
        rc = main(
            ["serve", "--port-file", str(tmp_path / "nodir" / "port")]
        )
        assert rc == 2
        assert "--port-file" in capsys.readouterr().err

    def test_serve_bad_metrics_parent_is_rc2(self, tmp_path, capsys):
        rc = main(
            ["serve", "--metrics-out", str(tmp_path / "nodir" / "m.json")]
        )
        assert rc == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_loadgen_bad_metrics_parent_is_rc2(self, tmp_path, capsys):
        rc = main(
            ["loadgen", "--port", "1",
             "--metrics-out", str(tmp_path / "nodir" / "m.json")]
        )
        assert rc == 2
        assert "--metrics-out" in capsys.readouterr().err


class TestServeLoadgenSmoke:
    def test_loadgen_cli_against_live_service(self, tmp_path, capsys):
        """`repro loadgen` (the real CLI path) against a service hosted
        on a background event loop: rc=0, the metrics file carries the
        percentiles and a clean counter set, and the telemetry file is a
        valid start-to-completed stream."""
        from repro.obs.telemetry import read_telemetry, validate_telemetry
        from repro.service import IndexService, ServiceConfig

        metrics_file = tmp_path / "loadgen.json"
        telemetry = str(tmp_path / "loadgen-telemetry.jsonl")
        started = threading.Event()
        stopped = {}
        holder = {}

        def host():
            async def body():
                service = IndexService(ServiceConfig())
                await service.start()
                holder["service"] = service
                holder["loop"] = asyncio.get_running_loop()
                started.set()
                await service.serve_until_stopped()
                stopped["requests"] = service.requests_total

            asyncio.run(body())

        thread = threading.Thread(target=host)
        thread.start()
        try:
            assert started.wait(10)
            service = holder["service"]

            rc = main(
                ["loadgen", "--port", str(service.port),
                 "--requests", "200", "--rate", "2000", "--sessions", "4",
                 "--metrics-out", str(metrics_file),
                 "--telemetry-out", telemetry]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "200 requests" in out
            assert "p99" in out
            assert "Request mix:" in out

            payload = json.loads(metrics_file.read_text())
            assert payload["schema"] == "repro.metrics/2"
            assert payload["gauges"]["loadgen/p99_ms"] > 0
            assert payload["histograms"]["loadgen/latency_s"]["count"] == 200
            assert payload["counters"].get("loadgen/timeouts", 0) == 0
        finally:
            # A failed assertion must not leave the service thread
            # serving, or the test process never exits.
            if "loop" in holder:
                holder["loop"].call_soon_threadsafe(
                    holder["service"].request_stop
                )
            thread.join(10)
        assert not thread.is_alive()
        # connect + publish per session ride on top of the 200 plan ops.
        assert stopped["requests"] == 200 + 2 * 4

        assert validate_telemetry(telemetry) == []
        records, _truncated = read_telemetry(telemetry)
        assert records[0]["kind"] == "start"
        assert records[-1]["kind"] == "end"
        assert records[-1]["outcome"] == "completed"


def test_serve_drain_exits_zero_under_sigterm(tmp_path):
    """Full-fidelity drain contract: run `repro serve` as a subprocess,
    SIGTERM it mid-life, assert rc=0 and a freed port.  The child runs
    from a scratch directory, so the import path must not depend on the
    working directory."""
    import os
    import signal
    import socket
    import subprocess
    import sys
    import time
    from pathlib import Path

    import repro

    port_file = tmp_path / "port"
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port-file", str(port_file), "--grace", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=str(tmp_path),
        env=env,
        text=True,
    )
    try:
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        # The service accepts while alive.
        with socket.create_connection(("127.0.0.1", port), timeout=5):
            pass
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "Drained" in out
    # No orphaned socket: the port refuses connections after the drain.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=1)
