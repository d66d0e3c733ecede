"""Tests for the geography models."""

from collections import Counter

import pytest

from repro.util.rng import RngStream
from repro.workload.geo import (
    AsInfo,
    CountryModel,
    IpAllocator,
    default_country_model,
)


class TestAsInfo:
    def test_share_validated(self):
        with pytest.raises(ValueError):
            AsInfo(asn=1, name="x", national_share=1.5)


class TestCountryModel:
    def test_requires_countries(self):
        with pytest.raises(ValueError):
            CountryModel(country_weights={})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            CountryModel(country_weights={"FR": -1.0})

    def test_rejects_oversubscribed_as_table(self):
        with pytest.raises(ValueError):
            CountryModel(
                country_weights={"FR": 1.0},
                as_tables={
                    "FR": [
                        AsInfo(1, "a", 0.7),
                        AsInfo(2, "b", 0.7),
                    ]
                },
            )

    def test_catch_all_created(self):
        model = CountryModel(
            country_weights={"FR": 1.0},
            as_tables={"FR": [AsInfo(1, "a", 0.6)]},
        )
        shares = {a.asn: a.national_share for a in model.as_tables["FR"]}
        assert sum(shares.values()) == pytest.approx(1.0)
        assert len(shares) == 2

    def test_sampling_distribution(self):
        model = CountryModel(country_weights={"FR": 3.0, "DE": 1.0})
        rng = RngStream(0)
        counts = Counter(model.sample_country(rng) for _ in range(4000))
        assert counts["FR"] > 2 * counts["DE"]

    def test_sample_asn_belongs_to_country(self):
        model = default_country_model()
        rng = RngStream(1)
        for _ in range(100):
            asn = model.sample_asn("DE", rng)
            assert asn in {a.asn for a in model.as_tables["DE"]}


class TestDefaultModel:
    def test_paper_country_shares(self):
        model = default_country_model()
        assert model.country_weights["FR"] == pytest.approx(0.29)
        assert model.country_weights["DE"] == pytest.approx(0.28)
        assert model.country_weights["ES"] == pytest.approx(0.16)
        assert model.country_weights["US"] == pytest.approx(0.05)

    def test_paper_as_table(self):
        model = default_country_model()
        de = {a.asn: a for a in model.as_tables["DE"]}
        assert de[3320].national_share == pytest.approx(0.75)
        fr = {a.asn: a for a in model.as_tables["FR"]}
        assert fr[3215].national_share == pytest.approx(0.51)
        assert fr[12322].national_share == pytest.approx(0.24)

    def test_implied_global_shares_match_table2(self):
        """national share x country weight reproduces Table 2's global %."""
        model = default_country_model()
        total = sum(model.country_weights.values())

        def global_share(country, asn):
            table = {a.asn: a for a in model.as_tables[country]}
            return (
                model.country_weights[country] / total
            ) * table[asn].national_share

        assert global_share("DE", 3320) == pytest.approx(0.21, abs=0.01)
        assert global_share("FR", 3215) == pytest.approx(0.15, abs=0.01)
        assert global_share("ES", 3352) == pytest.approx(0.08, abs=0.01)
        assert global_share("FR", 12322) == pytest.approx(0.07, abs=0.01)
        assert global_share("US", 1668) == pytest.approx(0.03, abs=0.01)


class TestIpAllocator:
    def test_unique_addresses(self):
        alloc = IpAllocator()
        addresses = [alloc.allocate(3320) for _ in range(1000)]
        assert len(set(addresses)) == 1000

    def test_same_as_shares_prefix(self):
        alloc = IpAllocator()
        a = alloc.allocate(1)
        b = alloc.allocate(1)
        assert a.rsplit(".", 2)[0] == b.rsplit(".", 2)[0]

    def test_different_as_different_block(self):
        alloc = IpAllocator()
        a = alloc.allocate(1)
        b = alloc.allocate(2)
        assert a.split(".")[:2] != b.split(".")[:2]

    def test_block_overflow_allocates_new_block(self):
        alloc = IpAllocator()
        first = alloc.allocate(7)
        for _ in range(65535):
            last_in_block = alloc.allocate(7)
        overflow = alloc.allocate(7)
        assert last_in_block.split(".")[:2] == first.split(".")[:2]
        assert overflow.split(".")[:2] != first.split(".")[:2]

    def test_valid_dotted_quads(self):
        alloc = IpAllocator()
        for _ in range(300):
            parts = alloc.allocate(5).split(".")
            assert len(parts) == 4
            assert all(0 <= int(p) <= 255 for p in parts)
