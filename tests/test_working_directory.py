"""Tools must work from any working directory.

Subprocesses that re-import the library build their ``PYTHONPATH`` from
``__file__``, never from a relative ``src``; these checks run them from
a scratch directory.
"""

from benchmarks import bench_scaling


def test_import_baseline_check_runs_from_another_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = bench_scaling.check_import_baseline()
    assert not baseline["numpy_loaded"]
    assert not baseline["asyncio_preloaded"]
