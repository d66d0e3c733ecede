"""Determinism regression: the runtime layer must not move a single byte.

The :class:`~repro.runtime.Runner` executes an experiment under an
enabled Observer; instrumentation is RNG-neutral, so its result must be
byte-identical to calling the runner directly with the same context.
"""

from repro.runtime import RunContext, Scale


class TestSeededByteIdentity:
    def test_runner_observer_does_not_perturb_results(self, tmp_path):
        """The Runner attaches an enabled Observer; outputs must not move."""
        from repro.runtime import Runner

        direct = Runner(
            ctx=RunContext(seed=42, scale=Scale.TINY),
            results_dir=tmp_path,
        ).run("fig18", list_sizes=(5, 20))
        from repro.experiments.search_figures import run_figure18

        plain = run_figure18(
            RunContext(seed=42, scale=Scale.TINY), list_sizes=(5, 20)
        )
        assert direct.result.render() == plain.render()
        assert direct.manifest.metrics == plain.metrics
