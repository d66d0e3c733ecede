"""The on-disk columnar trace store: round-trips, converters, integrity
verification, idempotent appends, and crash recovery of torn metadata."""

import json

import pytest

from repro.trace.io import (
    convert_trace_file_to_store,
    dumps_trace,
    load_trace,
    save_trace,
    store_to_trace_file,
    trace_to_store,
)
from repro.trace.store import (
    TraceStoreError,
    TraceStoreWriter,
    open_store,
    verify_store,
)
from tests.conftest import build_trace, make_client, make_file


def sample_trace():
    return build_trace(
        {
            1: {0: ["a", "b"], 1: [], 2: ["c"]},
            2: {0: ["b"], 2: ["a", "c"]},
            5: {1: ["a", "b", "c"]},
        },
        clients=[make_client(0), make_client(1), make_client(2)],
        files=[make_file("a"), make_file("b"), make_file("c")],
    )


def traces_equal(a, b) -> bool:
    return (
        dict(a.files) == dict(b.files)
        and dict(a.clients) == dict(b.clients)
        and a.days() == b.days()
        and all(a.snapshots_on(d) == b.snapshots_on(d) for d in a.days())
    )


def store_bytes(path):
    """{file name: content bytes} for every file of a store directory."""
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestRoundTrip:
    def test_trace_to_store_and_back(self, tmp_path):
        trace = sample_trace()
        with trace_to_store(trace, tmp_path / "store") as store:
            assert store.days() == [1, 2, 5]
            assert store.num_snapshots == 6
            assert traces_equal(store.to_trace(), trace)

    def test_day_accessors_match_trace(self, tmp_path):
        trace = sample_trace()
        with trace_to_store(trace, tmp_path / "store") as store:
            for day in trace.days():
                assert store.snapshots_on(day) == trace.snapshots_on(day)
                assert store.replica_counts(day) == trace.replica_counts(day)

    def test_file_converter_round_trip(self, tmp_path):
        trace = sample_trace()
        src = tmp_path / "t.jsonl.gz"
        save_trace(trace, src)
        with convert_trace_file_to_store(src, tmp_path / "store") as store:
            assert traces_equal(store.to_trace(), trace)
        back = tmp_path / "back.jsonl.gz"
        store_to_trace_file(tmp_path / "store", back)
        assert traces_equal(load_trace(back), trace)

    def test_generated_trace_survives(self, tmp_path, small_temporal_trace):
        with trace_to_store(small_temporal_trace, tmp_path / "store") as store:
            assert store.num_snapshots == small_temporal_trace.num_snapshots
            assert verify_store(tmp_path / "store") == []
            day = small_temporal_trace.days()[0]
            assert store.snapshots_on(day) == small_temporal_trace.snapshots_on(day)

    def test_streaming_conversion_is_byte_identical(self, tmp_path):
        # The single-pass streaming converter and the whole-trace path must
        # produce the same store, byte for byte.
        trace = sample_trace()
        src = tmp_path / "t.jsonl"
        save_trace(trace, src)
        convert_trace_file_to_store(src, tmp_path / "streamed").close()
        trace_to_store(load_trace(src), tmp_path / "loaded").close()
        assert store_bytes(tmp_path / "streamed") == store_bytes(
            tmp_path / "loaded"
        )

    def test_non_day_grouped_input_falls_back(self, tmp_path):
        # Interleaved days defeat the streaming pass; the converter must
        # fall back to a whole-trace load and still produce an equal store.
        trace = sample_trace()
        src = tmp_path / "t.jsonl"
        save_trace(trace, src)
        lines = src.read_text().splitlines()
        snaps = [l for l in lines if '"snapshot"' in l]
        rest = [l for l in lines if '"snapshot"' not in l]
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(rest + snaps[::-1]) + "\n")
        with convert_trace_file_to_store(shuffled, tmp_path / "store") as store:
            assert traces_equal(store.to_trace(), trace)
        assert verify_store(tmp_path / "store") == []

    def test_metadata_only_trace(self, tmp_path):
        from repro.trace.model import Trace

        trace = Trace()
        trace.add_client(make_client(0))
        trace.add_file(make_file("a"))
        src = tmp_path / "t.jsonl"
        save_trace(trace, src)
        with convert_trace_file_to_store(src, tmp_path / "store") as store:
            assert store.days() == []
            assert store.num_files == 1
            assert store.num_clients == 1
            assert traces_equal(store.to_trace(), trace)


class TestWriter:
    def test_create_refuses_existing_store(self, tmp_path):
        TraceStoreWriter.create(tmp_path / "store").close()
        with pytest.raises(TraceStoreError, match="already exists"):
            TraceStoreWriter.create(tmp_path / "store")

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(TraceStoreError, match="no trace store"):
            TraceStoreWriter.open(tmp_path / "missing")
        TraceStoreWriter.open(tmp_path / "fresh", create=True).close()
        assert (tmp_path / "fresh" / "manifest.json").exists()

    def test_incremental_append_matches_one_shot(self, tmp_path):
        trace = sample_trace()
        trace_to_store(trace, tmp_path / "oneshot").close()
        # Incremental: metadata interned up front (as append_trace does),
        # then one append_day call per day -> identical bytes.
        with TraceStoreWriter.create(tmp_path / "incremental") as writer:
            writer.register_files(trace.files.values())
            writer.register_clients(trace.clients.values())
            for day in trace.days():
                writer.append_day(day, trace.snapshots_on(day))
        assert store_bytes(tmp_path / "incremental") == store_bytes(
            tmp_path / "oneshot"
        )

    def test_reappending_a_day_replaces_it(self, tmp_path):
        trace = sample_trace()
        with TraceStoreWriter.create(tmp_path / "store") as writer:
            writer.append_trace(trace)
            writer.append_day(
                1, {0: ["c"]}, files=trace.files, clients=trace.clients
            )
        with open_store(tmp_path / "store") as store:
            assert store.snapshots_on(1) == {0: frozenset({"c"})}
            assert store.snapshots_on(2) == trace.snapshots_on(2)
        assert verify_store(tmp_path / "store") == []

    def test_reappend_same_day_is_idempotent(self, tmp_path):
        trace = sample_trace()
        with TraceStoreWriter.create(tmp_path / "store") as writer:
            writer.append_trace(trace)
        before = store_bytes(tmp_path / "store")
        with TraceStoreWriter.open(tmp_path / "store") as writer:
            writer.append_day(
                5, trace.snapshots_on(5), files=trace.files, clients=trace.clients
            )
        assert store_bytes(tmp_path / "store") == before

    def test_unknown_client_without_metadata_raises(self, tmp_path):
        with TraceStoreWriter.create(tmp_path / "store") as writer:
            with pytest.raises(TraceStoreError, match="unknown client"):
                writer.append_day(1, {99: ["a"]})

    def test_unknown_file_without_metadata_raises(self, tmp_path):
        trace = sample_trace()
        with TraceStoreWriter.create(tmp_path / "store") as writer:
            with pytest.raises(TraceStoreError, match="unknown file"):
                writer.append_day(1, {0: ["zz"]}, clients=trace.clients)

    def test_out_of_order_interning_clears_sorted_flag(self, tmp_path):
        with TraceStoreWriter.create(tmp_path / "store") as writer:
            writer.register_files([make_file("m")])
            assert writer._manifest["sorted_intern"] is True
            writer.register_files([make_file("a")])  # sorts before "m"
            assert writer._manifest["sorted_intern"] is False
        with open_store(tmp_path / "store") as store:
            assert store.manifest["sorted_intern"] is False

    def test_negative_day_rejected(self, tmp_path):
        with TraceStoreWriter.create(tmp_path / "store") as writer:
            with pytest.raises(TraceStoreError, match=">= 0"):
                writer.append_day(-1, {})

    def test_torn_metadata_tail_truncated_on_reopen(self, tmp_path):
        trace = sample_trace()
        with TraceStoreWriter.create(tmp_path / "store") as writer:
            writer.append_trace(trace)
        # Simulate a crash after a partial metadata append but before the
        # manifest rewrite: junk bytes past the recorded length.
        files_table = tmp_path / "store" / "files.jsonl"
        intact = files_table.read_bytes()
        files_table.write_bytes(intact + b'{"id": "torn')
        assert verify_store(tmp_path / "store") == []  # hash is byte-limited
        with TraceStoreWriter.open(tmp_path / "store") as writer:
            writer.append_day(
                7, trace.snapshots_on(1), files=trace.files, clients=trace.clients
            )
        # The torn tail is gone and the store is fully consistent again.
        assert files_table.read_bytes() == intact
        assert verify_store(tmp_path / "store") == []


class TestVerify:
    @pytest.fixture()
    def store_path(self, tmp_path):
        trace_to_store(sample_trace(), tmp_path / "store").close()
        return tmp_path / "store"

    def test_clean_store_verifies(self, store_path):
        assert verify_store(store_path) == []

    def test_flipped_segment_byte_detected(self, store_path):
        seg = next(store_path.glob("day-*.seg"))
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF
        seg.write_bytes(bytes(data))
        problems = verify_store(store_path)
        assert any("sha256 mismatch" in p for p in problems)

    def test_truncated_metadata_table_detected(self, store_path):
        table = store_path / "clients.jsonl"
        table.write_bytes(table.read_bytes()[:-10])
        problems = verify_store(store_path)
        assert any("clients.jsonl" in p for p in problems)

    def test_missing_segment_detected(self, store_path):
        next(store_path.glob("day-*.seg")).unlink()
        problems = verify_store(store_path)
        assert any("missing" in p for p in problems)

    def test_tampered_manifest_count_detected(self, store_path):
        manifest_path = store_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["snapshots"] += 1
        manifest_path.write_text(json.dumps(manifest))
        problems = verify_store(store_path)
        assert any("snapshots" in p for p in problems)

    def test_corrupt_manifest_detected(self, store_path):
        (store_path / "manifest.json").write_text("{not json")
        problems = verify_store(store_path)
        assert problems and "manifest" in problems[0]

    def test_wrong_format_detected(self, store_path):
        manifest_path = store_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "something/else"
        manifest_path.write_text(json.dumps(manifest))
        problems = verify_store(store_path)
        assert any("format" in p for p in problems)

    def test_open_store_rejects_bad_format(self, store_path):
        manifest_path = store_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "something/else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(TraceStoreError, match="format"):
            open_store(store_path)


class TestReader:
    def test_unknown_day_raises(self, tmp_path):
        with trace_to_store(sample_trace(), tmp_path / "store") as store:
            with pytest.raises(KeyError):
                store.segment(99)

    def test_iter_days_releases_segments(self, tmp_path):
        with trace_to_store(sample_trace(), tmp_path / "store") as store:
            for day, seg in store.iter_days():
                assert seg.day == day
            assert store._segments == {}

    def test_segment_columns_are_zero_copy_views(self, tmp_path):
        with trace_to_store(sample_trace(), tmp_path / "store") as store:
            seg = store.segment(1)
            assert isinstance(seg.files, memoryview)
            assert isinstance(seg.cache_column(0), memoryview)
            assert list(seg.offsets)[0] == 0

    def test_dumps_round_trip_through_file(self, tmp_path):
        # store -> trace file -> trace equals direct to_trace() serialization.
        trace = sample_trace()
        trace_to_store(trace, tmp_path / "store").close()
        store_to_trace_file(tmp_path / "store", tmp_path / "back.jsonl")
        with open_store(tmp_path / "store") as store:
            assert dumps_trace(load_trace(tmp_path / "back.jsonl")) == dumps_trace(
                store.to_trace()
            )
