"""The synthetic workload generator.

Builds a file universe, a client population and a day-by-day cache churn
process, and records crawler-style snapshots into a
:class:`~repro.trace.model.Trace`.  See the package docstring for the model
and :class:`~repro.workload.config.WorkloadConfig` for the dials.

Two entry points:

- :meth:`SyntheticWorkloadGenerator.generate` — the full temporal trace
  (Figures 1-3, 5, 8-10, 13-17 need the day dimension);
- :meth:`SyntheticWorkloadGenerator.generate_static` — initial cache fills
  only, returned as a :class:`~repro.trace.model.StaticTrace` (the Section 5
  search simulations run on the static view, so skipping the churn loop
  makes those experiments much faster).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.trace.model import ClientMeta, FileMeta, StaticTrace, Trace
from repro.util.rng import RngStream, cumulative_table, weighted_index
from repro.util.zipf import ZipfSampler
from repro.workload.config import WorkloadConfig
from repro.workload.geo import CountryModel, IpAllocator, default_country_model
from repro.workload.interests import InterestUniverse, poisson_draw

if TYPE_CHECKING:  # annotations only; functions import numpy when called
    import numpy as np

_NICKNAME_POOL = [
    "darkstar", "muse", "pingu", "rider", "shadow", "neo", "zorro", "pixel",
    "atlas", "comet", "dexter", "echo", "falcon", "gizmo", "hydra", "indigo",
    "jolt", "karma", "luna", "mantis", "nova", "orbit", "pulse", "quark",
    "rogue", "sonic", "titan", "umbra", "vortex", "wraith", "xenon", "yeti",
]


@dataclass
class ShockEvent:
    """A popularity shock: a file released mid-trace with a boosted,
    exponentially decaying attraction weight (drives Figures 8-10)."""

    file_index: int
    release_day: int
    boost: float
    half_life_days: float

    def attraction(self, day: int) -> float:
        if day < self.release_day:
            return 0.0
        age = day - self.release_day
        return self.boost * 0.5 ** (age / self.half_life_days)


@dataclass
class ClientProfile:
    """Generator-internal view of one client."""

    meta: ClientMeta
    free_rider: bool
    interests: List[int]
    target_cache_size: int
    online_prob: float
    alias_of: Optional[int] = None  # client_id of the primary identity
    join_day: int = 0  # first day the client exists (absolute day number)


class SyntheticWorkloadGenerator:
    """Generates synthetic eDonkey traces.  Deterministic given (config, seed)."""

    def __init__(
        self,
        config: Optional[WorkloadConfig] = None,
        seed: int = 0,
        country_model: Optional[CountryModel] = None,
    ) -> None:
        import numpy as np

        self.config = config or WorkloadConfig()
        self.seed = seed
        self.rng = RngStream(seed, "workload")
        self.country_model = country_model or default_country_model()
        self._built = False
        # Populated by _build():
        self.files: List[FileMeta] = []
        self.file_weights: np.ndarray = np.empty(0)
        self.birth_days = array("q")
        self.universe: Optional[InterestUniverse] = None
        self.profiles: List[ClientProfile] = []
        self.shocks: List[ShockEvent] = []
        self._global_sampler: Optional[ZipfSampler] = None
        self._mainstream_sampler: Optional[ZipfSampler] = None
        self._born_order = array("q")  # file indices by birth day
        self._born_days = array("q")  # their birth days, ascending
        # (day, its shock tables) of the last day _shock_tables was asked
        self._day_tables: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Universe construction

    def _build(self) -> None:
        if self._built:
            return
        self._build_files()
        self._build_clients()
        self._build_shocks()
        order = sorted(range(self.config.num_files), key=self.birth_days.__getitem__)
        self._born_order = array("q", order)
        self._born_days = array("q", sorted(self.birth_days))
        self._built = True

    def _build_files(self) -> None:
        cfg = self.config
        rng = self.rng.child("files")
        interest_model = cfg.interest_model
        self.universe = interest_model.build_universe(
            self.country_model.sample_country, rng.child("categories")
        )
        cat_cum = cumulative_table([c.weight for c in self.universe.categories])
        cat_total = cat_cum[-1]

        self._global_sampler = ZipfSampler(cfg.num_files, cfg.file_alpha, cfg.flat_head)
        # The mainstream pool is the global popular head: indices
        # [0, mainstream_pool_size), drawn with their own (flatter) Zipf.
        self._mainstream_sampler = ZipfSampler(
            cfg.mainstream_pool_size, cfg.mainstream_alpha, cfg.mainstream_flat_head
        )
        self.file_weights = self._global_sampler.weights()

        births = array("q", [0]) * cfg.num_files
        files: List[FileMeta] = []
        size_rng = rng.child("sizes")
        for i in range(cfg.num_files):
            cat_index = weighted_index(rng.py, cat_cum, cat_total)
            kind, size = cfg.kind_model.sample(i, cfg.num_files, size_rng)
            if rng.py.random() < cfg.preexisting_fraction:
                births[i] = cfg.start_day - 1
            else:
                births[i] = rng.py.randrange(cfg.start_day, cfg.end_day)
            meta = FileMeta(
                file_id=f"f{i:07x}",
                size=size,
                kind=kind,
                category=cat_index,
                name=f"{kind}-{i}",
            )
            files.append(meta)
            self.universe.add_file(i, cat_index)
        self.files = files
        self.birth_days = births
        self.universe.finalize(self.file_weights)

    def _build_clients(self) -> None:
        cfg = self.config
        rng = self.rng.child("clients")
        allocator = IpAllocator()
        profiles: List[ClientProfile] = []
        next_id = 0
        n_primary = cfg.num_clients

        for _ in range(n_primary):
            profile = self._make_profile(next_id, rng, allocator)
            profiles.append(profile)
            next_id += 1

        # Duplicate/alias injection: some clients appear twice (DHCP churn or
        # software reinstall).  Aliases reuse the IP or the UID of a primary.
        dup_rng = self.rng.child("duplicates")
        aliases: List[ClientProfile] = []
        for primary in profiles:
            if dup_rng.py.random() >= cfg.duplicate_fraction:
                continue
            alias = self._make_profile(next_id, rng, allocator)
            next_id += 1
            if dup_rng.py.random() < 0.5:
                # Same IP, new UID (DHCP lease reuse).
                alias_meta = ClientMeta(
                    client_id=alias.meta.client_id,
                    uid=alias.meta.uid,
                    ip=primary.meta.ip,
                    country=primary.meta.country,
                    asn=primary.meta.asn,
                    nickname=alias.meta.nickname,
                )
            else:
                # Same UID, new IP (client moved).
                alias_meta = ClientMeta(
                    client_id=alias.meta.client_id,
                    uid=primary.meta.uid,
                    ip=alias.meta.ip,
                    country=primary.meta.country,
                    asn=primary.meta.asn,
                    nickname=primary.meta.nickname,
                )
            alias.meta = alias_meta
            alias.alias_of = primary.meta.client_id
            aliases.append(alias)
        self.profiles = profiles + aliases

    def _make_profile(
        self, client_id: int, rng: RngStream, allocator: IpAllocator
    ) -> ClientProfile:
        cfg = self.config
        if cfg.arrival_fraction > 0 and rng.py.random() < cfg.arrival_fraction:
            arrival_span = max(1, (cfg.days * 2) // 3)
            join_day = cfg.start_day + rng.py.randrange(arrival_span)
        else:
            join_day = cfg.start_day
        country = self.country_model.sample_country(rng)
        asn = self.country_model.sample_asn(country, rng)
        ip = allocator.allocate(asn)
        uid = f"u{rng.py.getrandbits(64):016x}"
        nickname = (
            rng.py.choice(_NICKNAME_POOL) + str(rng.py.randrange(100))
        )
        free_rider = rng.py.random() < cfg.free_rider_fraction
        if free_rider:
            interests: List[int] = []
            target = 0
        else:
            assert self.universe is not None
            interests = cfg.interest_model.assign_interests(
                self.universe, country, rng.child(f"interests[{client_id}]")
            )
            raw = rng.py.lognormvariate(
                math.log(cfg.cache_size_median), cfg.cache_size_sigma
            )
            target = int(min(max(raw, 1), cfg.cache_size_max))
        online_prob = rng.py.betavariate(cfg.online_alpha, cfg.online_beta)
        meta = ClientMeta(
            client_id=client_id,
            uid=uid,
            ip=ip,
            country=country,
            asn=asn,
            nickname=nickname,
        )
        return ClientProfile(
            meta=meta,
            free_rider=free_rider,
            interests=interests,
            target_cache_size=target,
            online_prob=online_prob,
            join_day=join_day,
        )

    def _build_shocks(self) -> None:
        cfg = self.config
        if cfg.num_shock_files == 0:
            self.shocks = []
            return
        rng = self.rng.child("shocks")
        # Shock files are drawn from the popular-ish head (they become the
        # most replicated files) and are re-labelled as born at release.
        candidates = list(range(min(cfg.num_files, max(50, cfg.flat_head * 5))))
        picks = rng.sample_without_replacement(candidates, cfg.num_shock_files)
        shocks: List[ShockEvent] = []
        # Stagger releases over the first two thirds of the trace so that the
        # trace captures both the rise and the decay (Figure 8).
        span = max(1, (cfg.days * 2) // 3)
        for i, file_index in enumerate(sorted(picks)):
            release = cfg.start_day + 1 + (i * span) // max(1, len(picks))
            self.birth_days[file_index] = release
            shocks.append(
                ShockEvent(
                    file_index=file_index,
                    release_day=release,
                    boost=cfg.shock_boost,
                    half_life_days=cfg.shock_half_life_days,
                )
            )
        self.shocks = shocks

    # ------------------------------------------------------------------
    # File draws

    def _num_born(self, day: int) -> int:
        return bisect_right(self._born_days, day)

    def _fallback_draw(self, day: int, rng: RngStream) -> Optional[int]:
        """Uniform draw among files born by ``day`` (last-resort path)."""
        n_born = self._num_born(day)
        if n_born == 0:
            return None
        return self._born_order[rng.py.randrange(n_born)]

    def _draw_file(
        self,
        profile: ClientProfile,
        day: int,
        rng: RngStream,
        exclude: Set[int],
        trend_prob: float,
        shock_cum: Optional[array],
    ) -> Optional[int]:
        """Draw one file index for ``profile`` on ``day``.

        Order of preference: trending shock file (with probability
        ``trend_prob``), then a popularity-weighted draw inside one of the
        client's interest categories (probability ``interest_loyalty``),
        then a global popularity-weighted draw.  All paths reject files not
        yet born or already cached, with a uniform born-file fallback.
        """
        cfg = self.config
        assert self.universe is not None and self._global_sampler is not None

        if shock_cum is not None and trend_prob > 0 and rng.py.random() < trend_prob:
            pos = weighted_index(rng.py, shock_cum, shock_cum[-1])
            idx = self.shocks[pos].file_index
            if idx not in exclude and self.birth_days[idx] <= day:
                return idx
            # fall through to the normal paths on rejection

        for _ in range(40):
            draw = rng.py.random()
            if draw < cfg.mainstream_prob:
                idx = self._mainstream_sampler.sample(rng.py)
            elif profile.interests and rng.py.random() < cfg.interest_loyalty:
                cat = profile.interests[rng.py.randrange(len(profile.interests))]
                idx = self.universe.sample_file(cat, rng)
            else:
                idx = self._global_sampler.sample(rng.py)
            if idx is None:
                continue
            if idx in exclude or self.birth_days[idx] > day:
                continue
            return idx

        for _ in range(20):
            idx = self._fallback_draw(day, rng)
            if idx is None:
                return None
            if idx not in exclude:
                return idx
        return None

    def _shock_tables(self, day: int):
        """Per-day trend probability and cumulative shock weights.

        Kept for the last day asked: a network day churns every sharer,
        and a live simulation draws many requests, on one day's tables."""
        memo = self._day_tables
        if memo is None or memo[0] != day:
            memo = self._day_tables = (day, self._compute_shock_tables(day))
        return memo[1]

    def _compute_shock_tables(self, day: int):
        if not self.shocks:
            return 0.0, None
        import numpy as np

        attractions = np.array([s.attraction(day) for s in self.shocks])
        total = float(attractions.sum())
        if total <= 0:
            return 0.0, None
        trend_prob = min(
            self.config.shock_trend_cap, total / (total + self.config.shock_boost)
        )
        return trend_prob, cumulative_table(attractions)

    # ------------------------------------------------------------------
    # Cache processes

    def _initial_fill(
        self, profile: ClientProfile, day: int, rng: RngStream
    ) -> Set[int]:
        cache: Set[int] = set()
        for _ in range(profile.target_cache_size):
            idx = self._draw_file(profile, day, rng, cache, 0.0, None)
            if idx is None:
                break
            cache.add(idx)
        return cache

    def _churn_day(
        self,
        profile: ClientProfile,
        cache: Set[int],
        day: int,
        rng: RngStream,
        trend_prob: float,
        shock_cum: Optional[array],
    ) -> None:
        cfg = self.config
        n_add = poisson_draw(cfg.daily_adds_mean, rng)
        for _ in range(n_add):
            idx = self._draw_file(profile, day, rng, cache, trend_prob, shock_cum)
            if idx is None:
                break
            cache.add(idx)
        # Evict uniformly at random back down to the target size: the client
        # deletes old downloads to reclaim disk space.
        excess = len(cache) - profile.target_cache_size
        if excess > 0:
            victims = rng.sample_without_replacement(sorted(cache), excess)
            cache.difference_update(victims)

    def _observation_prob(self, profile: ClientProfile, day_offset: int) -> float:
        cfg = self.config
        if cfg.days <= 1:
            capacity = cfg.obs_capacity_start
        else:
            frac = day_offset / (cfg.days - 1)
            capacity = (
                cfg.obs_capacity_start
                + (cfg.obs_capacity_end - cfg.obs_capacity_start) * frac
            )
        prob = profile.online_prob * capacity
        # Optional crawler outage near the start (the paper's network
        # failure around day 345 produces the dip in Figure 2).
        if cfg.outage_days and 2 <= day_offset < 2 + cfg.outage_days:
            prob *= 0.25
        return prob

    # ------------------------------------------------------------------
    # Public facade (used by the eDonkey network substrate)

    def build(self) -> None:
        """Build the file universe, client profiles and shock schedule.

        Idempotent; called implicitly by :meth:`generate` and
        :meth:`generate_static`."""
        self._build()

    def initial_cache(self, profile: "ClientProfile", day: int, rng: RngStream) -> Set[int]:
        """Public wrapper: fill a fresh cache for ``profile`` as of ``day``."""
        self._build()
        return self._initial_fill(profile, day, rng)

    def churn_cache(
        self, profile: "ClientProfile", cache: Set[int], day: int, rng: RngStream
    ) -> None:
        """Public wrapper: apply one day of churn to ``cache`` in place."""
        self._build()
        trend_prob, shock_cum = self._shock_tables(day)
        self._churn_day(profile, cache, day, rng, trend_prob, shock_cum)

    def file_meta(self, index: int) -> FileMeta:
        """Metadata of file ``index`` (files are indexed 0..num_files)."""
        self._build()
        return self.files[index]

    def draw_request(
        self,
        profile: "ClientProfile",
        day: int,
        rng: RngStream,
        exclude: Set[int],
    ) -> Optional[int]:
        """Public wrapper: one interest-driven file request for ``profile``.

        Used by live client simulations to generate realistic queries
        (same draw paths as cache churn, including trend chasing)."""
        self._build()
        trend_prob, shock_cum = self._shock_tables(day)
        return self._draw_file(profile, day, rng, exclude, trend_prob, shock_cum)

    # ------------------------------------------------------------------
    # Public API

    def generate(self) -> Trace:
        """Run the full day-by-day process and return the temporal trace."""
        self._build()
        cfg = self.config
        trace = Trace(
            files={m.file_id: m for m in self.files},
            clients={p.meta.client_id: p.meta for p in self.profiles},
        )
        churn_rng = self.rng.child("churn")
        obs_rng = self.rng.child("observation")
        caches: Dict[int, Set[int]] = {}
        client_rngs: Dict[int, RngStream] = {
            p.meta.client_id: churn_rng.child(f"c[{p.meta.client_id}]")
            for p in self.profiles
        }

        for day_offset in range(cfg.days):
            day = cfg.start_day + day_offset
            trend_prob, shock_cum = self._shock_tables(day)
            for profile in self.profiles:
                cid = profile.meta.client_id
                if profile.free_rider or day < profile.join_day:
                    continue
                rng = client_rngs[cid]
                if cid not in caches:
                    caches[cid] = self._initial_fill(profile, day, rng)
                else:
                    self._churn_day(
                        profile, caches[cid], day, rng, trend_prob, shock_cum
                    )
            for profile in self.profiles:
                cid = profile.meta.client_id
                if day < profile.join_day:
                    continue
                if obs_rng.py.random() < self._observation_prob(profile, day_offset):
                    cache = caches.get(cid, set())
                    trace.observe(
                        day, cid, (self.files[i].file_id for i in cache)
                    )
        return trace

    def generate_static(self) -> StaticTrace:
        """Initial cache fills only (no churn loop), as a static trace.

        Births are ignored — every file is available — because the static
        view corresponds to "the union of everything the client ever
        shared".  Free-riders get empty caches.
        """
        self._build()
        fill_rng = self.rng.child("static-fill")
        last_day = self.config.end_day - 1
        caches: Dict[int, frozenset] = {}
        for profile in self.profiles:
            cid = profile.meta.client_id
            if profile.free_rider:
                caches[cid] = frozenset()
                continue
            rng = fill_rng.child(f"c[{cid}]")
            indices = self._initial_fill(profile, last_day, rng)
            caches[cid] = frozenset(self.files[i].file_id for i in indices)
        return StaticTrace(
            caches=caches,
            files={m.file_id: m for m in self.files},
            clients={p.meta.client_id: p.meta for p in self.profiles},
        )
