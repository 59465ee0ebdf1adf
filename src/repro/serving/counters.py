"""Process-global counter plumbing across the worker boundary.

The engine accounts low-level work in three process-global mutable
singletons — :data:`repro.geometry.predicates.STATS`,
:data:`repro.metric.STATS`, and :data:`repro.grid.store.STATS` — which
the simulator publishes as per-tick deltas.  Under multiprocessing each
worker accumulates its own copies, and without an explicit seam those
counts silently die with the worker: the gateway process reports only
its own (near-zero) totals.

This module is that seam.  Workers snapshot the singletons around their
work and ship plain-data *deltas* back; a gateway over process shards
folds them into its own process-global singletons with
:func:`merge_stats`, so obs totals (``predicate_*_total``,
``network_*_total``, ``store_*_total``) stay correct no matter how many
processes did the work.  Inline shards already count into the gateway's
singletons, so their deltas are not merged.
"""

from __future__ import annotations

from typing import Dict

from repro import metric as metric_mod
from repro.geometry import predicates
from repro.grid import store as store_mod

StatsSnapshot = Dict[str, Dict[str, int]]


def stats_snapshot() -> StatsSnapshot:
    """Plain-data copy of all three process-global stat singletons."""
    return {
        "predicates": predicates.STATS.snapshot(),
        "metric": metric_mod.STATS.snapshot(),
        "store": store_mod.STATS.snapshot(),
    }


def stats_delta(base: StatsSnapshot, current: StatsSnapshot) -> StatsSnapshot:
    """Per-counter difference ``current - base`` (same shape as both)."""
    return {
        group: {
            key: current[group][key] - base[group][key]
            for key in current[group]
        }
        for group in current
    }


def merge_stats(delta: StatsSnapshot) -> None:
    """Fold a worker's counter delta into this process's singletons."""
    predicates.STATS.merge(delta.get("predicates", {}))
    metric_mod.STATS.merge(delta.get("metric", {}))
    store_mod.STATS.merge(delta.get("store", {}))
