"""Tests for the manifest-driven runner and the manifest schema."""

import json

import pytest

from repro.runtime import (
    MANIFEST_SCHEMA,
    RunContext,
    RunManifest,
    Runner,
    Scale,
    UnknownExperimentError,
    validate_manifest,
)


def _manifest(**overrides):
    payload = dict(
        experiment="fig18",
        artefact="Figure 18",
        config_hash="abc123",
        seed=3,
        scale="tiny",
        wall_time_s=0.5,
        metrics={"hit": 0.41},
        run_metrics={},
    )
    payload.update(overrides)
    return RunManifest(**payload)


class TestManifestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        manifest = _manifest()
        path = tmp_path / "m.json"
        manifest.write(path)
        loaded = RunManifest.read(path)
        assert loaded == manifest
        assert loaded.schema == MANIFEST_SCHEMA

    def test_validate_rejects_wrong_schema(self):
        payload = _manifest().to_dict()
        payload["schema"] = "repro.manifest/0"
        assert any("schema" in p for p in validate_manifest(payload))

    def test_validate_rejects_non_numeric_metrics(self):
        payload = _manifest().to_dict()
        payload["metrics"]["hit"] = "high"
        assert any("metrics" in p for p in validate_manifest(payload))

    def test_from_dict_raises_on_invalid(self):
        with pytest.raises(ValueError, match="invalid manifest"):
            RunManifest.from_dict({"schema": MANIFEST_SCHEMA})


@pytest.fixture
def tiny_runner(tmp_path):
    ctx = RunContext(seed=3, scale=Scale.TINY)
    return Runner(ctx=ctx, results_dir=tmp_path / "results")


class TestWriteMetrics:
    def test_write_metrics_emits_file_and_manifest_field(self, tmp_path):
        from repro.obs import RunMetrics

        ctx = RunContext(seed=3, scale=Scale.TINY)
        runner = Runner(
            ctx=ctx, results_dir=tmp_path / "results", write_metrics=True
        )
        outcome = runner.run("table2")
        assert outcome.ok
        metrics_path = runner.metrics_path("table2")
        assert metrics_path.exists()
        assert outcome.manifest.metrics_file == "table2.metrics.json"
        standalone = RunMetrics.read(str(metrics_path))
        assert standalone.to_dict() == outcome.manifest.run_metrics
        assert validate_manifest(outcome.manifest.to_dict()) == []

    def test_default_runner_writes_no_metrics_file(self, tiny_runner):
        outcome = tiny_runner.run("table2")
        assert outcome.ok
        assert not tiny_runner.metrics_path("table2").exists()
        assert outcome.manifest.metrics_file is None

    def test_manifest_with_metrics_file_round_trips(self, tmp_path):
        manifest = _manifest(metrics_file="fig18.metrics.json")
        path = tmp_path / "m.json"
        manifest.write(path)
        assert RunManifest.read(path) == manifest

    def test_validate_rejects_non_string_metrics_file(self):
        payload = _manifest().to_dict()
        payload["metrics_file"] = 7
        assert any("metrics_file" in p for p in validate_manifest(payload))


class TestRunnerCaching:
    def test_run_writes_manifest_and_csv(self, tiny_runner):
        outcome = tiny_runner.run("table2")
        assert outcome.ok and not outcome.skipped
        path = tiny_runner.manifest_path("table2")
        assert path.exists()
        manifest = RunManifest.read(path)
        assert manifest.experiment == "table2"
        assert manifest.scale == "tiny"
        assert manifest.seed == 3
        assert validate_manifest(manifest.to_dict()) == []
        assert manifest.run_metrics  # observability blob embedded
        assert tiny_runner.csv_path("table2").exists()

    def test_second_run_skips_on_hash_match(self, tiny_runner):
        first = tiny_runner.run("table2")
        second = tiny_runner.run("table2")
        assert not first.skipped
        assert second.skipped
        assert second.manifest.config_hash == first.manifest.config_hash

    def test_force_reruns(self, tiny_runner):
        tiny_runner.run("table2")
        again = tiny_runner.run("table2", force=True)
        assert not again.skipped

    def test_seed_change_invalidates(self, tiny_runner, tmp_path):
        tiny_runner.run("table2")
        other = Runner(
            ctx=RunContext(seed=4, scale=Scale.TINY),
            results_dir=tiny_runner.results_dir,
        )
        outcome = other.run("table2")
        assert not outcome.skipped

    def test_override_change_invalidates(self, tiny_runner):
        tiny_runner.run("fig18", list_sizes=(5, 20))
        assert tiny_runner.run("fig18", list_sizes=(5, 20)).skipped
        assert not tiny_runner.run("fig18", list_sizes=(5, 10, 20)).skipped

    def test_manifest_other_code_wrote_reruns(self, tiny_runner, monkeypatch):
        import repro

        with monkeypatch.context() as patch:
            patch.setattr(repro, "code_identity", lambda: "0" * 64)
            assert not tiny_runner.run("table2").skipped
        assert not tiny_runner.run("table2").skipped
        assert tiny_runner.run("table2").skipped

    def test_corrupt_manifest_reruns(self, tiny_runner):
        tiny_runner.run("table2")
        tiny_runner.manifest_path("table2").write_text("{not json")
        assert not tiny_runner.run("table2").skipped

    def test_unknown_name_raises(self, tiny_runner):
        with pytest.raises(UnknownExperimentError):
            tiny_runner.run("nope")


class TestRunAll:
    def test_subset_runs_and_isolates_failures(self, tiny_runner, monkeypatch):
        from repro.runtime import registry

        def boom(ctx=None):
            raise RuntimeError("kaboom")

        spec = registry.get("table2")
        monkeypatch.setattr(
            registry,
            "_REGISTRY",
            {
                **registry._REGISTRY,
                "table2": type(spec)(
                    name="table2",
                    runner=boom,
                    artefact=spec.artefact,
                    description=spec.description,
                ),
            },
        )
        outcomes = tiny_runner.run_all(["table2", "fig18"])
        by_name = {o.name: o for o in outcomes}
        assert not by_name["table2"].ok
        assert "kaboom" in by_name["table2"].error
        assert by_name["fig18"].ok  # the batch continued

    def test_unknown_name_propagates(self, tiny_runner):
        with pytest.raises(UnknownExperimentError):
            tiny_runner.run_all(["nope"])

    def test_manifest_files_are_valid_json(self, tiny_runner):
        tiny_runner.run_all(["table2"])
        payload = json.loads(
            tiny_runner.manifest_path("table2").read_text()
        )
        assert validate_manifest(payload) == []
