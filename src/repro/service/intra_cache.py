"""Service-named views of the analysis memo's intra/fused counters.

The tables and their counters live in :mod:`repro.core.memo`; the lookups
that fill them are :func:`~repro.core.intra.cached_optimize_intra` and
:func:`~repro.core.fusion.cached_optimize_fused`.
"""

from __future__ import annotations

from ..core.memo import CacheStats, memo_stats


def intra_cache_stats() -> CacheStats:
    """Counters of the shared intra-operator table."""
    return memo_stats()["intra"]


def fused_cache_stats() -> CacheStats:
    """Counters of the shared fused-segment table."""
    return memo_stats()["fused"]
