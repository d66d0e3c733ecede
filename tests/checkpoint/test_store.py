"""Checkpointer file format, atomicity, and corruption handling."""

import json
import pickle

import pytest

import repro
from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    Checkpointer,
    ForeignCheckpointError,
)


@pytest.fixture()
def store(tmp_path):
    return Checkpointer(tmp_path / "ckpt")


class TestSaveLoad:
    def test_round_trip(self, store):
        payload = {"numbers": [1, 2, 3], "nested": {"a": (4, 5)}}
        path = store.save("crawl", 3, payload, seed=42, meta={"day": 3})
        loaded, info = store.load(path)
        assert loaded == payload
        assert info.kind == "crawl"
        assert info.step == 3
        assert info.seed == 42
        assert info.meta == {"day": 3}

    def test_filename_orders_by_step(self, store):
        for step in (3, 11, 7):
            store.save("crawl", step, {"step": step}, seed=0)
        steps = [store.inspect(p).step for p in store.list("crawl")]
        assert steps == [3, 7, 11]

    def test_header_is_one_json_line(self, store):
        path = store.save("crawl", 1, {"x": 1}, seed=9)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode("utf-8"))
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["payload_bytes"] > 0
        assert len(header["payload_sha256"]) == 64

    def test_inspect_does_not_unpickle(self, store):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("must not unpickle during inspect")

        path = store.save("crawl", 1, {"x": 1}, seed=0)
        # Replace the payload with bytes that would explode if unpickled;
        # keep the header as-is.  inspect() must still succeed.
        with open(path, "rb") as fh:
            header_line = fh.readline()
        with open(path, "wb") as fh:
            fh.write(header_line)
            fh.write(b"\x80\x04not a pickle")
        info = store.inspect(path)
        assert info.kind == "crawl"

    def test_resave_replaces(self, store):
        store.save("crawl", 1, {"version": "old"}, seed=0)
        store.save("crawl", 1, {"version": "new"}, seed=0)
        assert len(store.list("crawl")) == 1
        loaded, _ = store.load_latest("crawl")
        assert loaded == {"version": "new"}


class TestValidation:
    @pytest.mark.parametrize("kind", ["", "with-dash", "with/slash"])
    def test_bad_kind_rejected(self, store, kind):
        with pytest.raises(ValueError):
            store.save(kind, 0, {}, seed=0)

    def test_negative_step_rejected(self, store):
        with pytest.raises(ValueError):
            store.save("crawl", -1, {}, seed=0)

    def test_load_missing_file(self, store, tmp_path):
        with pytest.raises(CheckpointError):
            store.load(tmp_path / "ckpt" / "crawl-00000099.ckpt")

    def test_wrong_schema_rejected(self, store, tmp_path):
        path = tmp_path / "ckpt" / "crawl-00000001.ckpt"
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps({})
        header = {"schema": "repro.checkpoint/999", "kind": "crawl"}
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(CheckpointError, match="schema"):
            store.inspect(path)


class TestCorruption:
    def _corrupt_payload(self, path):
        data = path.read_bytes()
        path.write_bytes(data[:-4] + b"XXXX")

    def test_truncated_payload_detected(self, store):
        path = store.save("crawl", 1, {"x": list(range(100))}, seed=0)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            store.load(path)

    def test_flipped_bytes_detected(self, store):
        path = store.save("crawl", 1, {"x": list(range(100))}, seed=0)
        self._corrupt_payload(path)
        with pytest.raises(CheckpointError, match="checksum"):
            store.load(path)

    def test_latest_skips_garbage_header(self, store):
        good = store.save("crawl", 1, {"x": 1}, seed=0)
        bad = store.save("crawl", 2, {"x": 2}, seed=0)
        bad.write_bytes(b"not a checkpoint at all")
        loaded, info = store.load_latest("crawl")
        assert loaded == {"x": 1}
        assert info.path == good

    def test_load_latest_falls_back_past_corrupt_payload(self, store):
        store.save("crawl", 1, {"step": 1}, seed=0)
        newest = store.save("crawl", 2, {"step": 2}, seed=0)
        self._corrupt_payload(newest)
        loaded, info = store.load_latest("crawl")
        assert loaded == {"step": 1}
        assert info.step == 1

    def test_load_latest_raises_when_nothing_intact(self, store):
        path = store.save("crawl", 1, {"x": 1}, seed=0)
        self._corrupt_payload(path)
        with pytest.raises(CheckpointError, match="no intact"):
            store.load_latest("crawl")

    def test_load_latest_empty_directory(self, store):
        with pytest.raises(CheckpointError, match="no intact"):
            store.load_latest("crawl")


def set_header_code(path, code):
    """Rewrite one checkpoint's ``code`` field (deleted when None)."""
    header_line, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header.pop("code")
    if code is not None:
        header["code"] = code
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)


class TestCodeIdentity:
    def test_header_records_the_writing_code(self, store):
        path = store.save("crawl", 1, {"x": 1}, seed=0)
        assert store.inspect(path).code == repro.code_identity()
        assert len(repro.code_identity()) == 64

    @pytest.mark.parametrize("code", ["0" * 64, None], ids=["other", "none"])
    def test_load_refuses_other_code(self, store, code):
        path = store.save("crawl", 1, {"x": 1}, seed=0)
        set_header_code(path, code)
        with pytest.raises(ForeignCheckpointError) as caught:
            store.load(path)
        assert repro.code_identity() in str(caught.value)
        if code is not None:
            assert code in str(caught.value)

    def test_load_latest_does_not_fall_back_past_other_code(self, store):
        store.save("crawl", 1, {"step": 1}, seed=0)
        newest = store.save("crawl", 2, {"step": 2}, seed=0)
        set_header_code(newest, "0" * 64)
        with pytest.raises(ForeignCheckpointError, match="0" * 64):
            store.load_latest("crawl")


class TestListing:
    def test_list_filters_by_kind(self, store):
        store.save("crawl", 1, {}, seed=0)
        store.save("search", 500, {}, seed=0)
        assert len(store.list()) == 2
        assert len(store.list("crawl")) == 1
        assert len(store.list("search")) == 1

    def test_list_on_missing_directory(self, tmp_path):
        assert Checkpointer(tmp_path / "nope").list() == []


class TestRestore:
    def test_returns_the_object_and_the_file_it_came_from(self, store):
        path = store.save("crawl", 1, {"sim": [1, 2]}, seed=0)
        restored, info = store.restore("crawl", "sim", list)
        assert restored == [1, 2]
        assert info.path == path

    def test_refuses_an_object_of_another_type(self, store):
        store.save("crawl", 1, {"sim": [1, 2]}, seed=0)
        with pytest.raises(TypeError, match="holds list, expected dict"):
            store.restore("crawl", "sim", dict)
