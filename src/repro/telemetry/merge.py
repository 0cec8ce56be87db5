"""Merge scraped metrics pages into one registry.

:func:`rows_from_prometheus` reconstructs metric rows from a scraped
``/metrics`` text page (the inverse of
:func:`~repro.telemetry.exporters.to_prometheus`), :func:`apply_dump`
folds rows into a registry under optional extra labels, and
:func:`aggregate_fleet` folds every node's page into one registry — each
instrument twice, once summed fleet-wide and once under a ``node`` label
for the per-node breakdown (``repro fleet-stats``).

Counters merge by increment, gauges by last-write, histograms by per-bucket
addition (see :meth:`~repro.telemetry.registry.Histogram.merge_counts`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.telemetry.registry import MetricsRegistry

#: One instrument: (kind, name, labels, help, payload...).
MetricRow = tuple


def apply_dump(
    registry: MetricsRegistry,
    rows: List[MetricRow],
    **extra_labels,
) -> None:
    """Fold metric rows into ``registry``.

    ``extra_labels`` (e.g. ``node="node0"``) are added to every instrument
    so rows from different sources land on distinct series.
    """
    for row in rows:
        kind, name, labels, help_text = row[0], row[1], row[2], row[3]
        all_labels = dict(labels)
        all_labels.update(extra_labels)
        if kind == "counter":
            if row[4]:
                registry.counter(name, help_text, **all_labels).inc(row[4])
        elif kind == "gauge":
            registry.gauge(name, help_text, **all_labels).set(row[4])
        elif kind == "histogram":
            bounds, buckets, total, count = row[4], row[5], row[6], row[7]
            if count or any(buckets):
                hist = registry.histogram(name, help_text, bounds=bounds,
                                          **all_labels)
                hist.merge_counts(buckets, total, count)


def rows_from_prometheus(text: str) -> List[MetricRow]:
    """Reconstruct metric rows from a Prometheus text exposition page.

    The inverse of :func:`~repro.telemetry.exporters.to_prometheus`, as
    far as the format allows: counters and gauges come back exactly;
    histograms are rebuilt from their cumulative ``_bucket`` series
    (finite ``le`` edges become the bounds, the ``+Inf`` series the
    overflow bucket, de-cumulated back to per-bucket counts) with
    ``_sum``/``_count`` riding along.  The rows feed straight into
    :func:`apply_dump`, which is how a scraped remote node's metrics
    merge into a local registry.
    """
    from repro.telemetry.exporters import parse_prometheus

    rows: List[MetricRow] = []
    # (base, labels-sans-le) -> {"le": {edge: cumulative}, "sum": x, ...}
    partial: Dict[Tuple[str, tuple], dict] = {}
    order: List[Tuple[str, tuple]] = []
    for sample in parse_prometheus(text):
        labels = tuple(sorted(sample.labels.items()))
        if sample.kind == "counter":
            rows.append(("counter", sample.name, labels, sample.help,
                         sample.value))
        elif sample.kind == "gauge":
            rows.append(("gauge", sample.name, labels, sample.help,
                         sample.value))
        elif sample.kind == "histogram":
            base = sample.name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[:-len(suffix)]
                    break
            bare = tuple(sorted((k, v) for k, v in sample.labels.items()
                                if k != "le"))
            key = (base, bare)
            if key not in partial:
                partial[key] = {"le": {}, "sum": 0.0, "count": 0,
                                "help": sample.help}
                order.append(key)
            slot = partial[key]
            if sample.name.endswith("_bucket"):
                slot["le"][float(sample.labels["le"])] = sample.value
            elif sample.name.endswith("_sum"):
                slot["sum"] = sample.value
            elif sample.name.endswith("_count"):
                slot["count"] = int(sample.value)
    for (base, labels) in order:
        slot = partial[(base, labels)]
        edges = sorted(slot["le"])
        cumulative = [slot["le"][edge] for edge in edges]
        if not edges or not math.isinf(edges[-1]):
            cumulative.append(float(slot["count"]))  # implicit +Inf
        else:
            edges = edges[:-1]
        counts = tuple(int(c - p) for c, p in
                       zip(cumulative, [0.0] + cumulative[:-1]))
        rows.append(("histogram", base, labels, slot["help"],
                     tuple(edges), counts, slot["sum"], slot["count"]))
    return rows


def aggregate_fleet(
    pages: Dict[str, str],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Merge every node's scraped ``/metrics`` page into one registry.

    Each instrument lands twice: once under a ``node`` label (the
    per-node breakdown) and once unlabelled (the fleet-wide view,
    counters and histograms summed across nodes).  Gauges stay per-node
    only — summing one node's uptime with another's is not a fleet
    uptime, and last-write-wins across nodes is noise.
    """
    if registry is None:
        registry = MetricsRegistry()
    for name in sorted(pages):
        rows = rows_from_prometheus(pages[name])
        apply_dump(registry, rows, node=name)
        apply_dump(registry, [row for row in rows if row[0] != "gauge"])
    return registry
