"""Synthetic eDonkey workload generation.

The paper's analyses run on a 56-day crawl trace that no longer exists (the
nickname-query crawl path it relied on was removed from eDonkey servers, as
the paper itself notes).  This package generates synthetic traces whose
*marginal statistics match everything the paper reports* — free-riding rate,
Zipf-like popularity, bimodal file sizes, country/AS mix, heavy-tailed
generosity, cache churn of ~5 files/client/day, popularity shocks — and
whose *clustering structure is planted through an explicit interest model*:

- every file belongs to an **interest category**;
- categories may have a **home country** (geographic affinity);
- non-free-riding clients subscribe to a few categories, preferring
  categories homed in their own country;
- cache fills and daily churn draw mostly from subscribed categories.

Semantic clustering (Section 4.2 / 5) and geographic clustering (Section
4.1) thus emerge from one mechanism — the hypothesis the paper itself
advances — and the downstream analyses must recover the planted structure.
"""

from repro.workload.config import WorkloadConfig
from repro.workload.filesizes import FileKindModel, sample_size
from repro.workload.generator import SyntheticWorkloadGenerator
from repro.workload.geo import CountryModel, IpAllocator, default_country_model
from repro.workload.interests import InterestModel, InterestUniverse

__all__ = [
    "CountryModel",
    "FileKindModel",
    "InterestModel",
    "InterestUniverse",
    "IpAllocator",
    "SyntheticWorkloadGenerator",
    "WorkloadConfig",
    "default_country_model",
    "sample_size",
]
