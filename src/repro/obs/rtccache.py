"""RTC memo-effectiveness gauges.

The Section 3.4 solvers keep three memos:

* the full-sizing ``lru_cache`` in :mod:`repro.rtc.sizing`;
* the two ``lru_cache``\\ d PJD curve constructors in
  :mod:`repro.rtc.pjd`.

The campaign does not rely on the full-sizing memo: it solves each
scenario once and carries the result.  The memos serve the CLI and the
experiment harnesses, which re-size the same Table 1 models, and these
statistics feed the run-report gauges and the ``perfbench`` metrics
``rtc.memo_hit_frac`` / ``rtc.pjd_hit_frac``.

:func:`record_rtc_cache_gauges` snapshots every memo's ``cache_info()``
hit/miss/size numbers into ``rtc.cache.*`` gauges on a
:class:`~repro.obs.metrics.MetricsRegistry`, so run reports answer "did
the sweep actually reuse solver work, or did it solve cold?".
"""

from __future__ import annotations

from typing import Dict, Optional

#: Gauge name prefix for process-wide ``lru_cache`` statistics.
CACHE_PREFIX = "rtc.cache"


def _rtc_caches() -> Dict[str, object]:
    """The memoised callables, keyed by their gauge-name segment.

    Imported lazily so ``repro.obs`` stays importable without pulling the
    whole RTC stack in at module load.
    """
    from repro.rtc import pjd, sizing

    return {
        "pjd_upper": pjd._upper_curve,
        "pjd_lower": pjd._lower_curve,
        "sizing": sizing._size_duplicated_network_cached,
    }


def rtc_cache_stats() -> Dict[str, Dict[str, int]]:
    """Plain-data ``cache_info()`` snapshot of every RTC memo layer."""
    stats: Dict[str, Dict[str, int]] = {}
    for name, func in _rtc_caches().items():
        info = func.cache_info()
        stats[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
        }
    return stats


def record_rtc_cache_gauges(registry) -> None:
    """Publish RTC memo hit/miss/size gauges onto ``registry``.

    Per cache ``<name>`` this sets ``rtc.cache.<name>.hits``,
    ``.misses`` and ``.size``, plus process-wide ``rtc.cache.total.*``
    rollups.  The numbers are process-lifetime (``lru_cache`` has no
    per-run scoping), which is exactly the sweep-level question the
    gauges exist to answer.

    A disabled registry makes every call a no-op (null instruments).
    """
    total_hits = 0
    total_misses = 0
    for name, stats in rtc_cache_stats().items():
        registry.gauge(f"{CACHE_PREFIX}.{name}.hits").set(stats["hits"])
        registry.gauge(f"{CACHE_PREFIX}.{name}.misses").set(stats["misses"])
        registry.gauge(f"{CACHE_PREFIX}.{name}.size").set(stats["currsize"])
        total_hits += stats["hits"]
        total_misses += stats["misses"]
    registry.gauge(f"{CACHE_PREFIX}.total.hits").set(total_hits)
    registry.gauge(f"{CACHE_PREFIX}.total.misses").set(total_misses)


def summarize_cache_gauges(metrics: Dict[str, dict]) -> Optional[str]:
    """One-line summary of the ``rtc.cache.total.*`` gauges, if present.

    ``metrics`` is a ``MetricsRegistry.snapshot()`` dictionary (the
    ``"metrics"`` section of a run report).  Returns ``None`` when the
    gauges were never recorded.
    """
    hits_entry = metrics.get(f"{CACHE_PREFIX}.total.hits")
    misses_entry = metrics.get(f"{CACHE_PREFIX}.total.misses")
    if hits_entry is None or misses_entry is None:
        return None
    hits = hits_entry.get("value", 0)
    misses = misses_entry.get("value", 0)
    lookups = hits + misses
    rate = (100.0 * hits / lookups) if lookups else 0.0
    return (
        f"RTC solver memos: {hits:.0f} hits / {misses:.0f} misses "
        f"({rate:.0f}% hit rate)"
    )
