"""Tests for the synthetic workload generator."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scale import Scale, workload_config
from repro.util.rng import RngStream
from repro.workload.config import WorkloadConfig
from repro.workload.generator import ShockEvent, SyntheticWorkloadGenerator


class TestShockEvent:
    def test_zero_before_release(self):
        shock = ShockEvent(file_index=0, release_day=10, boost=100, half_life_days=5)
        assert shock.attraction(9) == 0.0

    def test_boost_at_release(self):
        shock = ShockEvent(file_index=0, release_day=10, boost=100, half_life_days=5)
        assert shock.attraction(10) == pytest.approx(100.0)

    def test_half_life(self):
        shock = ShockEvent(file_index=0, release_day=10, boost=100, half_life_days=5)
        assert shock.attraction(15) == pytest.approx(50.0)
        assert shock.attraction(20) == pytest.approx(25.0)


class TestDeterminism:
    def test_same_seed_same_trace(self, small_config):
        a = SyntheticWorkloadGenerator(config=small_config, seed=11).generate()
        b = SyntheticWorkloadGenerator(config=small_config, seed=11).generate()
        assert list(a.iter_snapshots()) == list(b.iter_snapshots())
        assert a.clients == b.clients

    def test_different_seed_different_trace(self, small_config):
        a = SyntheticWorkloadGenerator(config=small_config, seed=1).generate()
        b = SyntheticWorkloadGenerator(config=small_config, seed=2).generate()
        assert list(a.iter_snapshots()) != list(b.iter_snapshots())

    def test_static_deterministic(self, small_config):
        a = SyntheticWorkloadGenerator(config=small_config, seed=3).generate_static()
        b = SyntheticWorkloadGenerator(config=small_config, seed=3).generate_static()
        assert a.caches == b.caches


class TestPopulation:
    def test_free_rider_fraction(self, small_generator, small_config):
        primaries = [p for p in small_generator.profiles if p.alias_of is None]
        fraction = sum(p.free_rider for p in primaries) / len(primaries)
        assert fraction == pytest.approx(small_config.free_rider_fraction, abs=0.12)

    def test_free_riders_have_no_interests(self, small_generator):
        for profile in small_generator.profiles:
            if profile.free_rider:
                assert profile.interests == []
                assert profile.target_cache_size == 0
            else:
                assert profile.interests

    def test_duplicates_share_ip_or_uid(self, small_generator):
        by_id = {p.meta.client_id: p for p in small_generator.profiles}
        aliases = [p for p in small_generator.profiles if p.alias_of is not None]
        assert aliases, "expected some duplicate clients"
        for alias in aliases:
            primary = by_id[alias.alias_of]
            assert (
                alias.meta.ip == primary.meta.ip
                or alias.meta.uid == primary.meta.uid
            )

    def test_country_mix_tracks_figure4(self, small_generator):
        counts = Counter(p.meta.country for p in small_generator.profiles)
        total = sum(counts.values())
        assert counts["FR"] / total == pytest.approx(0.29, abs=0.08)
        assert counts["DE"] / total == pytest.approx(0.28, abs=0.08)

    def test_unique_client_ids(self, small_generator):
        ids = [p.meta.client_id for p in small_generator.profiles]
        assert len(ids) == len(set(ids))


class TestFiles:
    def test_file_count_and_ids(self, small_generator, small_config):
        assert len(small_generator.files) == small_config.num_files
        ids = {f.file_id for f in small_generator.files}
        assert len(ids) == small_config.num_files

    def test_kinds_and_sizes_consistent(self, small_generator):
        from repro.workload.filesizes import SIZE_MODELS

        for meta in small_generator.files[:500]:
            _, _, lo, hi = SIZE_MODELS[meta.kind]
            assert lo <= meta.size <= hi

    def test_birth_days_in_range(self, small_generator, small_config):
        births = small_generator.birth_days
        assert min(births) >= small_config.start_day - 1
        assert max(births) < small_config.end_day

    def test_categories_assigned(self, small_generator, small_config):
        n_cats = small_config.interest_model.num_categories
        for meta in small_generator.files[:500]:
            assert 0 <= meta.category < n_cats


class TestFlatTables:
    """The generator draws from flat tables built once; each matches the
    numpy expression it replaced."""

    @pytest.mark.parametrize("scale", [Scale.TINY, Scale.SMALL])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_file_weights_are_the_sampler_weights(self, scale, seed):
        generator = SyntheticWorkloadGenerator(workload_config(scale), seed=seed)
        generator.build()
        sampler = generator._global_sampler
        assert generator.file_weights.tolist() == [
            sampler.weight(i) for i in range(sampler.n)
        ]

    @pytest.mark.parametrize("scale", [Scale.TINY, Scale.SMALL])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_num_born_matches_numpy_searchsorted(self, scale, seed):
        generator = SyntheticWorkloadGenerator(workload_config(scale), seed=seed)
        generator.build()
        births = np.asarray(generator.birth_days)
        order = np.argsort(births, kind="stable")
        assert list(generator._born_order) == order.tolist()
        born = births[order]
        cfg = generator.config
        for day in range(cfg.start_day - 2, cfg.end_day + 1):
            expected = int(np.searchsorted(born, day, side="right"))
            assert generator._num_born(day) == expected


class TestShocks:
    def test_shock_count(self, small_generator, small_config):
        assert len(small_generator.shocks) == small_config.num_shock_files

    def test_shock_birth_equals_release(self, small_generator):
        for shock in small_generator.shocks:
            assert small_generator.birth_days[shock.file_index] == shock.release_day

    def test_releases_staggered_within_trace(self, small_generator, small_config):
        releases = [s.release_day for s in small_generator.shocks]
        assert min(releases) > small_config.start_day
        assert max(releases) < small_config.end_day


class TestTemporalTrace:
    def test_no_file_observed_before_birth(self, small_temporal_trace, small_generator):
        births = {
            meta.file_id: int(day)
            for meta, day in zip(small_generator.files, small_generator.birth_days)
        }
        for day in small_temporal_trace.days():
            for cache in small_temporal_trace.snapshots_on(day).values():
                for fid in cache:
                    assert births[fid] <= day

    def test_free_riders_always_empty(self, small_temporal_trace, small_generator):
        free_riders = {
            p.meta.client_id for p in small_generator.profiles if p.free_rider
        }
        for day in small_temporal_trace.days():
            for client_id, cache in small_temporal_trace.snapshots_on(day).items():
                if client_id in free_riders:
                    assert not cache

    def test_observation_counts_decline(self, small_temporal_trace):
        days = small_temporal_trace.days()
        first_third = days[: len(days) // 3]
        last_third = days[-len(days) // 3 :]
        early = sum(len(small_temporal_trace.observed_clients(d)) for d in first_third)
        late = sum(len(small_temporal_trace.observed_clients(d)) for d in last_third)
        assert late < early

    def test_caches_stay_near_target(self, small_temporal_trace, small_generator):
        targets = {
            p.meta.client_id: p.target_cache_size
            for p in small_generator.profiles
            if not p.free_rider
        }
        last_day = small_temporal_trace.days()[-1]
        for client_id, cache in small_temporal_trace.snapshots_on(last_day).items():
            target = targets.get(client_id)
            if target:
                assert len(cache) <= target


class TestStaticTrace:
    def test_covers_all_clients(self, small_static_trace, small_generator):
        assert set(small_static_trace.caches) == {
            p.meta.client_id for p in small_generator.profiles
        }

    def test_cache_sizes_respect_targets(self, small_static_trace, small_generator):
        for profile in small_generator.profiles:
            cache = small_static_trace.caches[profile.meta.client_id]
            assert len(cache) <= profile.target_cache_size

    def test_interest_clustering_planted(self, small_static_trace, small_generator):
        """Same-interest sharers overlap more than disjoint-interest ones."""
        from repro.trace.model import overlap

        profiles = [
            p
            for p in small_generator.profiles
            if not p.free_rider and p.alias_of is None
        ]
        same, disjoint = [], []
        for i, a in enumerate(profiles):
            for b in profiles[i + 1 :]:
                cache_a = small_static_trace.caches[a.meta.client_id]
                cache_b = small_static_trace.caches[b.meta.client_id]
                if not cache_a or not cache_b:
                    continue
                value = overlap(cache_a, cache_b) / min(len(cache_a), len(cache_b))
                if set(a.interests) & set(b.interests):
                    same.append(value)
                else:
                    disjoint.append(value)
        assert same and disjoint
        assert sum(same) / len(same) > 2 * (sum(disjoint) / len(disjoint))


class TestPublicFacade:
    def test_initial_cache_and_churn(self, small_generator, small_config):
        sharer = next(p for p in small_generator.profiles if not p.free_rider)
        rng = RngStream(99, "facade")
        day = small_config.start_day
        cache = small_generator.initial_cache(sharer, day, rng)
        assert len(cache) <= sharer.target_cache_size
        before = set(cache)
        small_generator.churn_cache(sharer, cache, day + 1, rng)
        assert len(cache) <= sharer.target_cache_size
        assert cache != before or sharer.target_cache_size <= 1

    def test_file_meta_accessor(self, small_generator):
        meta = small_generator.file_meta(0)
        assert meta.file_id == "f0000000"


class TestRatesAndMix:
    def test_zipfish_popularity(self, small_static_trace):
        from repro.util.zipf import fit_zipf_slope

        counts = sorted(
            small_static_trace.replica_counts().values(), reverse=True
        )
        ranks = range(1, len(counts) + 1)
        slope, _ = fit_zipf_slope(list(ranks), counts, skip_head=3)
        assert slope > 0.2

    def test_interest_loyalty_zero_removes_clustering(self, small_config):
        """Ablation: loyalty=0 -> same-interest pairs stop overlapping more."""
        from repro.trace.model import overlap

        config = dataclasses.replace(small_config, interest_loyalty=0.0)
        generator = SyntheticWorkloadGenerator(config=config, seed=7)
        static = generator.generate_static()
        profiles = [p for p in generator.profiles if not p.free_rider]
        same, disjoint = [], []
        for i, a in enumerate(profiles):
            for b in profiles[i + 1 :]:
                cache_a = static.caches[a.meta.client_id]
                cache_b = static.caches[b.meta.client_id]
                if not cache_a or not cache_b:
                    continue
                value = overlap(cache_a, cache_b) / min(len(cache_a), len(cache_b))
                (same if set(a.interests) & set(b.interests) else disjoint).append(
                    value
                )
        mean_same = sum(same) / len(same)
        mean_disjoint = sum(disjoint) / len(disjoint)
        assert mean_same < mean_disjoint * 1.5


class TestArrivals:
    def test_default_everyone_present_from_start(self, small_generator):
        assert all(
            p.join_day == small_generator.config.start_day
            for p in small_generator.profiles
        )

    def test_arrivals_join_mid_trace(self, small_config):
        import dataclasses

        config = dataclasses.replace(small_config, arrival_fraction=0.5)
        generator = SyntheticWorkloadGenerator(config=config, seed=21)
        generator.build()
        arrivals = [
            p for p in generator.profiles if p.join_day > config.start_day
        ]
        assert arrivals
        assert all(
            config.start_day < p.join_day < config.end_day for p in arrivals
        )

    def test_no_snapshots_before_join(self, small_config):
        import dataclasses

        config = dataclasses.replace(small_config, arrival_fraction=0.5)
        generator = SyntheticWorkloadGenerator(config=config, seed=21)
        trace = generator.generate()
        join = {p.meta.client_id: p.join_day for p in generator.profiles}
        for client_id in trace.clients:
            days = trace.observation_days(client_id)
            if days:
                assert days[0] >= join[client_id]

    def test_population_grows_over_trace(self, small_config):
        import dataclasses

        config = dataclasses.replace(
            small_config,
            arrival_fraction=0.6,
            obs_capacity_start=0.8,
            obs_capacity_end=0.8,  # flat crawler capacity isolates arrivals
        )
        trace = SyntheticWorkloadGenerator(config=config, seed=22).generate()
        days = trace.days()
        early = sum(len(trace.observed_clients(d)) for d in days[:3])
        late = sum(len(trace.observed_clients(d)) for d in days[-3:])
        assert late > early


class TestCrawlerOutage:
    def test_outage_days_dent_observations(self, small_config):
        import dataclasses

        with_outage = dataclasses.replace(small_config, outage_days=4)
        trace = SyntheticWorkloadGenerator(config=with_outage, seed=30).generate()
        days = trace.days()
        # Days 2..5 (offsets) sit in the outage window: observation counts
        # there are well below the surrounding days (Figure 2's dip).
        by_day = {d: len(trace.observed_clients(d)) for d in days}
        start = small_config.start_day
        outage_days = [start + o for o in range(2, 6) if start + o in by_day]
        normal_days = [d for d in days if d < start + 2 or d >= start + 6]
        assert outage_days and normal_days
        outage_mean = sum(by_day[d] for d in outage_days) / len(outage_days)
        normal_mean = sum(by_day[d] for d in normal_days) / len(normal_days)
        assert outage_mean < 0.6 * normal_mean


class TestModuleHelpers:
    def test_generate_trace_helper(self, small_config):
        from repro.workload.generator import generate_trace

        trace = generate_trace(config=small_config, seed=7)
        direct = SyntheticWorkloadGenerator(config=small_config, seed=7).generate()
        assert trace.num_snapshots == direct.num_snapshots

    def test_generate_static_trace_helper(self, small_config):
        from repro.workload.generator import generate_static_trace

        static = generate_static_trace(config=small_config, seed=7)
        direct = SyntheticWorkloadGenerator(
            config=small_config, seed=7
        ).generate_static()
        assert static.caches == direct.caches
