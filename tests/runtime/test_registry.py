"""Tests for the declarative experiment registry."""

import pytest

from repro.runtime import registry
from repro.runtime.registry import (
    ExperimentSpec,
    UnknownExperimentError,
    experiment,
)


def _dummy_spec(name, runner=None, **kwargs):
    if runner is None:
        def runner(ctx=None):  # pragma: no cover - never executed
            return None
        runner.__name__ = f"run_{name.replace('-', '_')}"
    return ExperimentSpec(
        name=name,
        runner=runner,
        artefact=kwargs.pop("artefact", "Test"),
        description=kwargs.pop("description", "test spec"),
        **kwargs,
    )


@pytest.fixture
def scratch_registry(monkeypatch):
    """An empty registry for registration-behaviour tests."""
    monkeypatch.setattr(registry, "_REGISTRY", {})
    monkeypatch.setattr(registry, "_ALIASES", {})
    return registry


class TestRegistration:
    def test_decorator_registers_and_returns_the_runner(self, scratch_registry):
        @experiment("t1", artefact="Test", description="d")
        def run_t1(ctx=None):
            return "ran"

        spec = registry.get("t1")
        assert spec.runner is run_t1
        assert spec.artefact == "Test"
        assert run_t1() == "ran"  # the function itself is unwrapped

    def test_duplicate_name_rejected(self, scratch_registry):
        registry.register(_dummy_spec("dup"))
        with pytest.raises(ValueError, match="registered twice"):
            registry.register(_dummy_spec("dup"))

    def test_duplicate_alias_rejected(self, scratch_registry):
        registry.register(_dummy_spec("a", aliases=("shared",)))
        with pytest.raises(ValueError, match="registered twice"):
            registry.register(_dummy_spec("b", aliases=("shared",)))

    def test_same_runner_twice_rejected(self, scratch_registry):
        spec = _dummy_spec("one")
        registry.register(spec)
        with pytest.raises(ValueError, match="registered twice"):
            registry.register(_dummy_spec("two", runner=spec.runner))

    def test_alias_resolves_to_primary(self, scratch_registry):
        registry.register(_dummy_spec("fig9", aliases=("fig10",)))
        assert registry.get("fig10") is registry.get("fig9")

    def test_unknown_name_lists_valid_choices(self, scratch_registry):
        registry.register(_dummy_spec("only"))
        with pytest.raises(UnknownExperimentError) as excinfo:
            registry.get("nope")
        message = str(excinfo.value)
        assert "nope" in message
        assert "only" in message

    def test_natural_name_order(self, scratch_registry):
        for name in ("fig10", "fig2", "fig1", "table1"):
            registry.register(_dummy_spec(name))
        assert [s.name for s in registry.all_experiments()] == [
            "fig1", "fig2", "fig10", "table1",
        ]


class TestCompleteness:
    """The real registry covers every public run_* exactly once."""

    def test_every_runner_registered_exactly_once(self):
        import repro.experiments as experiments

        specs = registry.load_all()
        registered = [spec.runner_name for spec in specs]
        assert len(registered) == len(set(registered))

        public_runners = {
            name for name in dir(experiments) if name.startswith("run_")
        }
        assert public_runners == set(registered)

    def test_runners_take_only_a_context(self):
        """A runner's identity is its required ``ctx``: no loose
        ``scale``/``seed``/``obs`` beside it."""
        import inspect

        for spec in registry.load_all():
            params = inspect.signature(spec.runner).parameters
            assert "ctx" in params, spec.runner_name
            assert params["ctx"].default is inspect.Parameter.empty, spec.runner_name
            assert not {"scale", "seed", "obs"} & set(params), spec.runner_name

    def test_aliases_do_not_collide_with_names(self):
        registry.load_all()
        specs = registry.all_experiments()
        primaries = {s.name for s in specs}
        aliases = [a for s in specs for a in s.aliases]
        assert len(aliases) == len(set(aliases))
        assert not primaries & set(aliases)

    def test_figure_aliases_present(self):
        registry.load_all()
        assert registry.get("fig10").name == "fig9"
        assert registry.get("fig16").name == "fig15"
        assert registry.get("fig17").name == "fig15"


class TestDispatch:
    def test_spec_run_equals_direct_call(self):
        """Registry dispatch is identity: same ctx -> same result."""
        from repro.experiments.search_figures import run_figure18
        from repro.runtime import RunContext, Scale

        registry.load_all()
        ctx = RunContext(seed=11, scale=Scale.SMALL)
        via_registry = registry.get("fig18").run(ctx=ctx)
        direct = run_figure18(ctx=ctx)
        assert via_registry.render() == direct.render()
        assert via_registry.metrics == direct.metrics

    def test_default_scale_used_when_no_ctx(self, scratch_registry):
        from repro.runtime import Scale

        seen = {}

        def run_probe(ctx=None):
            seen["scale"] = ctx.scale
            return None

        registry.register(
            _dummy_spec("probe", runner=run_probe, default_scale=Scale.SMALL)
        )
        registry.get("probe").run()
        assert seen["scale"] is Scale.SMALL
