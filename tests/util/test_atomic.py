"""Atomic writes: a crash mid-write must never tear the target file."""

import os

import pytest

from repro.util.atomic import atomic_replace, atomic_write_text


class MidWriteCrash(Exception):
    pass


class TestAtomicReplace:
    def test_success_replaces_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        with atomic_replace(target) as tmp:
            with open(tmp, "w") as fh:
                fh.write("new")
        assert target.read_text() == "new"

    def test_exception_mid_write_keeps_old_content(self, tmp_path):
        """The regression the checkpoint layer depends on: an exception
        (or crash) after a partial write leaves the previous file whole."""
        target = tmp_path / "out.json"
        target.write_text("precious")
        with pytest.raises(MidWriteCrash):
            with atomic_replace(target) as tmp:
                with open(tmp, "w") as fh:
                    fh.write("half a new fi")  # partial content
                    raise MidWriteCrash
        assert target.read_text() == "precious"

    def test_exception_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        with pytest.raises(MidWriteCrash):
            with atomic_replace(target) as tmp:
                raise MidWriteCrash
        assert os.listdir(tmp_path) == ["out.json"]
        assert not os.path.exists(tmp)

    def test_temp_file_lives_next_to_target(self, tmp_path):
        # Same directory => same filesystem => os.replace is atomic.
        target = tmp_path / "deep" / "out.json"
        target.parent.mkdir()
        with atomic_replace(target) as tmp:
            assert os.path.dirname(tmp) == str(target.parent)
            with open(tmp, "w") as fh:
                fh.write("x")
        assert target.read_text() == "x"

    def test_creates_target_that_did_not_exist(self, tmp_path):
        target = tmp_path / "fresh.json"
        with atomic_replace(target) as tmp:
            with open(tmp, "w") as fh:
                fh.write("first")
        assert target.read_text() == "first"


class TestHelpers:
    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "t.txt"
        atomic_write_text(target, "héllo\n")
        assert target.read_text(encoding="utf-8") == "héllo\n"

    def test_relative_path_without_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        atomic_write_text("bare.txt", "ok")
        assert (tmp_path / "bare.txt").read_text() == "ok"
