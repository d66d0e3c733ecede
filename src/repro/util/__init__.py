"""Shared utilities: deterministic RNG streams, empirical distributions,
Zipf sampling and fitting, and plain-text table rendering.

These helpers are intentionally dependency-light (numpy only) so that every
other subpackage can use them without import cycles.
"""

from repro.util.atomic import atomic_replace, atomic_write_text
from repro.util.cdf import Series, empirical_cdf
from repro.util.rng import RngStream, derive_seed
from repro.util.tables import format_table, render_series
from repro.util.validation import check_fraction, check_positive
from repro.util.zipf import ZipfSampler, fit_zipf_slope, zipf_weights

__all__ = [
    "RngStream",
    "Series",
    "ZipfSampler",
    "atomic_replace",
    "atomic_write_text",
    "check_fraction",
    "check_positive",
    "derive_seed",
    "empirical_cdf",
    "fit_zipf_slope",
    "format_table",
    "render_series",
    "zipf_weights",
]
