"""Resource readings: /proc readers, fallback, and the recorder's gauges."""

import json

from repro.obs import Observer
from repro.obs.resource import ResourceSample, read_resource_sample
from repro.obs.telemetry import FlightRecorder


def test_read_resource_sample_never_raises():
    sample = read_resource_sample()
    assert isinstance(sample, ResourceSample)
    # A live Python process certainly occupies memory and has burned CPU.
    assert sample.rss_bytes > 0
    assert sample.cpu_s >= 0.0


def test_sample_as_dict_all_float():
    sample = read_resource_sample()
    payload = sample.as_dict()
    assert payload, "empty sample dict"
    assert all(isinstance(v, float) for v in payload.values()), payload
    assert "rss_bytes" in payload


def test_summary_gauges_shape(tmp_path):
    """The folded gauges cover every sample the recorder wrote, not a
    bounded window of them."""
    path = tmp_path / "t.jsonl"
    obs = Observer()
    recorder = FlightRecorder(str(path), obs=obs, interval_s=60.0)
    recorder.start()
    # Freed ballast lets RSS fall after a snapshot, so the peak is not
    # simply the last reading.
    ballast = b"\x01" * (64 << 20)
    recorder.snapshot_now()
    del ballast
    for _ in range(2):
        recorder.snapshot_now()
    recorder.close()
    sampled = [
        record
        for record in map(json.loads, path.read_text().splitlines())
        if record["kind"] in ("snapshot", "end")
    ]
    gauges = obs.gauges
    assert gauges["resource/samples"] == len(sampled) == 5
    assert gauges["resource/rss_max_bytes"] == max(
        record["resource"]["rss_bytes"] for record in sampled
    )
    assert gauges["resource/rss_last_bytes"] == (
        sampled[-1]["resource"]["rss_bytes"]
    )
    assert {name for name in gauges if name.startswith("resource/")} == {
        "resource/rss_max_bytes",
        "resource/rss_last_bytes",
        "resource/cpu_user_s",
        "resource/cpu_system_s",
        "resource/io_read_bytes",
        "resource/io_write_bytes",
        "resource/gc_collections",
        "resource/samples",
    }
