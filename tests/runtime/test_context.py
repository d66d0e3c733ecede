"""Tests for RunContext and the bounded trace cache."""

import pytest

from repro.obs import NULL_OBSERVER
from repro.runtime import (
    DEFAULT_SEED,
    RunContext,
    SHARED_TRACE_CACHE,
    Scale,
    TraceCache,
)


class TestRunContext:
    def test_defaults_without_anything(self):
        ctx = RunContext()
        assert ctx.seed == DEFAULT_SEED
        assert ctx.scale is Scale.DEFAULT
        assert ctx.obs is NULL_OBSERVER

    def test_derive_changes_one_field(self):
        ctx = RunContext(seed=5)
        derived = ctx.derive(scale=Scale.SMALL)
        assert derived.seed == 5
        assert derived.scale is Scale.SMALL
        assert ctx.scale is Scale.DEFAULT  # original untouched


class TestContextTraces:
    def test_traces_default_to_the_shared_cache(self):
        assert RunContext().traces is SHARED_TRACE_CACHE

    def test_private_cache_is_isolated(self):
        private = TraceCache(maxsize=4)
        ctx = RunContext(seed=3, scale=Scale.SMALL, traces=private)
        trace = ctx.static_trace()
        assert ("static", Scale.SMALL, 3) in private
        assert trace is ctx.static_trace()  # second call hits

    def test_trace_matches_shared_cache(self):
        ctx = RunContext(seed=3, scale=Scale.SMALL)
        assert ctx.static_trace() is SHARED_TRACE_CACHE.static(Scale.SMALL, 3)

    def test_compiled_trace_is_cached(self):
        private = TraceCache(maxsize=4)
        ctx = RunContext(seed=3, scale=Scale.SMALL, traces=private)
        compiled = private.compiled(Scale.SMALL, 3)
        assert ("compiled", Scale.SMALL, 3) in private
        assert compiled is private.compiled(Scale.SMALL, 3)  # hit skips recompilation
        assert compiled is ctx.static_trace().compiled()  # shared object


class TestTraceCache:
    def test_bounded_lru_eviction(self):
        cache = TraceCache(maxsize=2)
        builds = []

        def build(tag):
            builds.append(tag)
            return tag

        cache._get("k", Scale.TINY, 1, lambda: build(1))
        cache._get("k", Scale.TINY, 2, lambda: build(2))
        cache._get("k", Scale.TINY, 1, lambda: build("hit"))  # refresh 1
        cache._get("k", Scale.TINY, 3, lambda: build(3))  # evicts 2
        assert ("k", Scale.TINY, 1) in cache
        assert ("k", Scale.TINY, 2) not in cache
        assert ("k", Scale.TINY, 3) in cache
        assert builds == [1, 2, 3]
        assert cache.hits == 1
        assert cache.misses == 3

    def test_clear_empties_but_keeps_counters(self):
        cache = TraceCache(maxsize=2)
        cache._get("k", Scale.TINY, 1, lambda: "x")
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError, match="maxsize"):
            TraceCache(maxsize=0)

    def test_variants_share_one_bound(self):
        cache = TraceCache(maxsize=2)
        cache.static(Scale.SMALL, 3)
        cache.temporal(Scale.TINY, 1)
        cache.filtered(Scale.TINY, 1)  # builds from temporal, evicts static
        assert ("static", Scale.SMALL, 3) not in cache
        assert len(cache) == 2
