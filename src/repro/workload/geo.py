"""Geography: countries, autonomous systems and synthetic IP allocation.

The country mix follows Figure 4 of the paper (FR 29%, DE 28%, ES 16%,
US 5%, ...) and the AS mix within each major country follows Table 2
(Deutsche Telekom hosts 75% of German clients, France Telecom 51% of French
clients, and so on).  IPs are synthetic: each AS owns one or more /16-style
blocks and hands out addresses sequentially — all the analyses need is that
two clients in the same AS share a block prefix and that IP equality is
meaningful for duplicate filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.util.rng import RngStream, stable_choice
from repro.util.validation import check_fraction


@dataclass(frozen=True)
class AsInfo:
    """An autonomous system: number, human name, and national share."""

    asn: int
    name: str
    national_share: float

    def __post_init__(self) -> None:
        check_fraction("national_share", self.national_share)


@dataclass
class CountryModel:
    """Country weights plus per-country AS tables.

    ``country_weights`` need not sum to one; they are normalized on use.
    Every country must have at least one AS whose shares sum to <= 1; the
    remainder goes to a synthetic catch-all AS per country.
    """

    country_weights: Dict[str, float]
    as_tables: Dict[str, List[AsInfo]] = field(default_factory=dict)
    _catch_all_base: int = 64000

    def __post_init__(self) -> None:
        if not self.country_weights:
            raise ValueError("country model needs at least one country")
        for country, weight in self.country_weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {country}")
        # Give every country a catch-all AS covering the residual share.
        for idx, country in enumerate(sorted(self.country_weights)):
            table = list(self.as_tables.get(country, []))
            used = sum(a.national_share for a in table)
            if used > 1.0 + 1e-9:
                raise ValueError(
                    f"AS shares for {country} sum to {used:.3f} > 1"
                )
            if used < 1.0:
                table.append(
                    AsInfo(
                        asn=self._catch_all_base + idx,
                        name=f"{country}-other",
                        national_share=1.0 - used,
                    )
                )
            self.as_tables[country] = table

    def countries(self) -> List[str]:
        return sorted(self.country_weights)

    def sample_country(self, rng: RngStream) -> str:
        names = self.countries()
        weights = [self.country_weights[c] for c in names]
        return stable_choice(rng.py, names, weights)

    def sample_asn(self, country: str, rng: RngStream) -> int:
        table = self.as_tables[country]
        return stable_choice(
            rng.py, [a.asn for a in table], [a.national_share for a in table]
        )


def default_country_model() -> CountryModel:
    """The paper's empirical country and AS mix (Figure 4 and Table 2).

    The 6% "Others" bucket of Figure 4 is split over a handful of further
    European countries; every percentage from the paper is kept verbatim.
    """
    country_weights = {
        "FR": 0.29,
        "DE": 0.28,
        "ES": 0.16,
        "US": 0.05,
        "IT": 0.03,
        "IL": 0.02,
        "GB": 0.02,
        "TW": 0.01,
        "PL": 0.01,
        "AT": 0.01,
        "NL": 0.01,
        # "Others" split (Figure 4 shows 6% but its named buckets only sum
        # to 95% after rounding; the residual 11% goes to further European
        # countries so the weights total exactly 1):
        "BE": 0.03,
        "CH": 0.02,
        "PT": 0.02,
        "SE": 0.02,
        "DK": 0.01,
        "FI": 0.01,
    }
    as_tables = {
        # Table 2: national shares of the top ASes.
        "DE": [AsInfo(3320, "Deutsche Telekom AG", 0.75)],
        "FR": [
            AsInfo(3215, "France Telecom Transpac", 0.51),
            AsInfo(12322, "Proxad ISP France", 0.24),
        ],
        "ES": [AsInfo(3352, "Telefonica Data Espana", 0.50)],
        "US": [AsInfo(1668, "AOL-primehost USA", 0.60)],
    }
    return CountryModel(country_weights=country_weights, as_tables=as_tables)


class IpAllocator:
    """Hands out unique synthetic IPv4 addresses, one block per AS.

    Each AS receives consecutive /16 blocks starting from ``10.0.0.0``-style
    space as needed; addresses inside a block are sequential.  The allocator
    also supports deliberately *reusing* an address (for injecting DHCP-style
    duplicate clients into a workload).
    """

    def __init__(self) -> None:
        self._next_block = 0
        self._blocks: Dict[int, List[int]] = {}
        self._next_host: Dict[int, int] = {}

    def _block_prefix(self, block_index: int) -> Tuple[int, int]:
        # Map block index into 10.x.y.0/16-ish space (wraps after 65536).
        hi = 10 + (block_index >> 8) % 200
        lo = block_index & 0xFF
        return hi, lo

    def allocate(self, asn: int) -> str:
        """A fresh address within the AS's current block."""
        if asn not in self._blocks:
            self._blocks[asn] = [self._next_block]
            self._next_host[asn] = 0
            self._next_block += 1
        host = self._next_host[asn]
        if host >= 65536:
            self._blocks[asn].append(self._next_block)
            self._next_block += 1
            self._next_host[asn] = 0
            host = 0
        block = self._blocks[asn][-1]
        self._next_host[asn] = host + 1
        b1, b2 = self._block_prefix(block)
        return f"{b1}.{b2}.{host >> 8}.{host & 0xFF}"
