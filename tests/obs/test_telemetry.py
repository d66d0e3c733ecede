"""Flight recorder: snapshot schema, crash tails, reader and validator."""

import json
import os
import time

import pytest

from repro.obs import Observer
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    FlightRecorder,
    TelemetrySpec,
    read_telemetry,
    validate_telemetry,
    validate_telemetry_record,
)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_start_snapshot_end_lifecycle(tmp_path):
    path = str(tmp_path / "t.jsonl")
    obs = Observer()
    recorder = FlightRecorder(path, obs=obs, interval_s=60.0, source="main",
                              run={"experiment": "x", "seed": 7})
    recorder.start()
    recorder.close(outcome="completed")
    records = _read_lines(path)
    kinds = [r["kind"] for r in records]
    assert kinds == ["start", "snapshot", "end"]
    start, snapshot, end = records
    assert start["run"] == {"experiment": "x", "seed": 7}
    assert start["interval_s"] == 60.0
    assert snapshot["seq"] == 0 and end["seq"] == 1
    assert end["outcome"] == "completed"
    for record in records:
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["source"] == "main"
        assert record["pid"] == os.getpid()
        assert validate_telemetry_record(record) == [], record


def test_progress_merges_gauges_and_updates(tmp_path):
    path = str(tmp_path / "t.jsonl")
    obs = Observer()
    obs.gauge("progress/days_done", 2)
    obs.gauge("progress/days_total", 5)
    obs.gauge("unrelated/gauge", 9)
    recorder = FlightRecorder(path, obs=obs, interval_s=60.0)
    record = recorder.snapshot_now()
    # Prefix stripped; non-progress gauges stay out.
    assert record["progress"] == {"days_done": 2.0, "days_total": 5.0}
    obs.gauge("progress/days_done", 3)
    assert recorder.snapshot_now()["progress"]["days_done"] == 3.0
    recorder.close()


def test_top_spans_ordering(tmp_path):
    obs = Observer()
    with obs.span("slow"):
        time.sleep(0.02)
    with obs.span("fast"):
        pass
    recorder = FlightRecorder(str(tmp_path / "t.jsonl"), obs=obs,
                              interval_s=60.0)
    record = recorder.snapshot_now()
    paths = [entry[0] for entry in record["top_spans"]]
    assert paths[0] == "slow"
    assert set(paths) == {"slow", "fast"}
    for _path, count, total_s in record["top_spans"]:
        assert count >= 1 and total_s >= 0.0
    recorder.close()


def test_close_is_idempotent_and_folds_resource_gauges(tmp_path):
    path = str(tmp_path / "t.jsonl")
    obs = Observer()
    recorder = FlightRecorder(path, obs=obs, interval_s=60.0, source="main")
    recorder.start()
    recorder.close()
    recorder.close(outcome="failed")  # no second end line
    records = _read_lines(path)
    assert [r["kind"] for r in records].count("end") == 1
    assert obs.gauges["resource/rss_max_bytes"] > 0
    assert "resource/samples" in obs.gauges


def test_worker_source_prefixes_resource_gauges(tmp_path):
    obs = Observer()
    recorder = FlightRecorder(str(tmp_path / "t.jsonl"), obs=obs,
                              interval_s=60.0, source="shard 1")
    recorder.start()
    recorder.close()
    assert "resource/shard 1/rss_max_bytes" in obs.gauges
    assert "resource/rss_max_bytes" not in obs.gauges


def test_thread_snapshots_periodically(tmp_path):
    path = str(tmp_path / "t.jsonl")
    recorder = FlightRecorder(path, interval_s=0.01)
    recorder.start()
    deadline = time.monotonic() + 2.0
    while recorder.seq < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    recorder.close()
    records, truncated = read_telemetry(path)
    assert not truncated
    snapshots = [r for r in records if r["kind"] == "snapshot"]
    assert len(snapshots) >= 3
    assert [r["seq"] for r in snapshots] == list(range(len(snapshots)))


def test_write_failure_never_raises(tmp_path):
    missing = str(tmp_path / "gone" / "t.jsonl")
    recorder = FlightRecorder(missing, interval_s=60.0)
    recorder.snapshot_now()  # directory does not exist: swallowed
    recorder.close()
    assert not os.path.exists(missing)


def test_read_telemetry_tolerates_torn_tail(tmp_path):
    path = str(tmp_path / "t.jsonl")
    good = json.dumps({"schema": TELEMETRY_SCHEMA, "kind": "start"})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good + "\n")
        fh.write('{"schema": "repro.telem')  # torn mid-write
    records, truncated = read_telemetry(path)
    assert truncated
    assert len(records) == 1


def test_read_telemetry_raises_on_midfile_corruption(tmp_path):
    path = str(tmp_path / "t.jsonl")
    good = json.dumps({"schema": TELEMETRY_SCHEMA, "kind": "start"})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not json\n")
        fh.write(good + "\n")
    with pytest.raises(ValueError, match="non-final"):
        read_telemetry(path)


def test_validate_telemetry(tmp_path):
    path = str(tmp_path / "t.jsonl")
    recorder = FlightRecorder(path, interval_s=60.0)
    recorder.start()
    recorder.close()
    assert validate_telemetry(path) == []

    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    assert validate_telemetry(empty) != []

    bad = str(tmp_path / "bad.jsonl")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": "other", "kind": "mystery"}) + "\n")
    problems = validate_telemetry(bad)
    assert any("schema" in p for p in problems)
    assert any("kind" in p for p in problems)


def test_spec_is_frozen_and_picklable():
    import pickle

    spec = TelemetrySpec("/tmp/t.jsonl", interval_s=0.5)
    assert pickle.loads(pickle.dumps(spec)) == spec
    with pytest.raises(Exception):
        spec.path = "/other"


def test_interval_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        FlightRecorder(str(tmp_path / "t.jsonl"), interval_s=0.0)
