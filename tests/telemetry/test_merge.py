"""Tests for repro.telemetry.merge — the fleet scrape path.

``rows_from_prometheus`` inverts ``to_prometheus`` so a scraped
``/metrics`` page turns back into metric rows, ``apply_dump`` folds rows
into a registry, and ``aggregate_fleet`` folds every node's page into one
registry with a per-node breakdown.
"""

import pytest

pytestmark = pytest.mark.telemetry

from repro.telemetry.exporters import to_prometheus
from repro.telemetry.merge import (
    aggregate_fleet,
    apply_dump,
    rows_from_prometheus,
)
from repro.telemetry.registry import MetricsRegistry


def make_registry(jobs=3, errs=1, depth=7, latencies=(0.05, 0.5, 5.0)):
    reg = MetricsRegistry()
    reg.counter("jobs_total", "Jobs processed").inc(jobs)
    reg.counter("errs_total", "Errors", kind="io").inc(errs)
    reg.gauge("depth", "Queue depth").set(depth)
    h = reg.histogram("latency_seconds", "Latency", bounds=[0.1, 1.0])
    for value in latencies:
        h.observe(value)
    return reg


#: The rows ``make_registry()`` holds, written out by hand in the row
#: format ``apply_dump`` consumes.
NATIVE_ROWS = [
    ("counter", "jobs_total", (), "Jobs processed", 3),
    ("counter", "errs_total", (("kind", "io"),), "Errors", 1),
    ("gauge", "depth", (), "Queue depth", 7),
    ("histogram", "latency_seconds", (), "Latency", (0.1, 1.0), (1, 1, 1),
     5.55, 3),
]


class TestDumpApply:
    def test_apply_reproduces_the_source_registry(self):
        source = make_registry()
        target = MetricsRegistry()
        apply_dump(target, NATIVE_ROWS)
        assert to_prometheus(target) == to_prometheus(source)

    def test_extra_labels_split_series(self):
        target = MetricsRegistry()
        for node, jobs in (("node0", 1), ("node1", 2)):
            page = to_prometheus(make_registry(jobs=jobs))
            apply_dump(target, rows_from_prometheus(page), node=node)
        assert target.counter("jobs_total", node="node0").value == 1
        assert target.counter("jobs_total", node="node1").value == 2


class TestRowsFromPrometheus:
    def test_inverts_to_prometheus_textually(self):
        """Scrape -> rows -> registry -> render reproduces the page."""
        source = make_registry()
        page = to_prometheus(source)
        rebuilt = MetricsRegistry()
        apply_dump(rebuilt, rows_from_prometheus(page))
        assert to_prometheus(rebuilt) == page

    def test_matches_a_native_dump_semantically(self):
        """A scraped page parses back into exactly the rows the registry
        holds (numbers compared by value, not by type)."""
        rows = rows_from_prometheus(to_prometheus(make_registry()))
        assert sorted(rows, key=lambda row: row[1]) == sorted(
            NATIVE_ROWS, key=lambda row: row[1])

    def test_histogram_buckets_are_decumulated(self):
        rows = rows_from_prometheus(to_prometheus(make_registry()))
        hist = next(row for row in rows if row[0] == "histogram")
        kind, name, labels, help_text, bounds, counts, total, count = hist
        assert name == "latency_seconds"
        assert bounds == (0.1, 1.0)
        # One observation per bucket, incl. the +Inf overflow — per-bucket,
        # not cumulative.
        assert counts == (1, 1, 1)
        assert count == 3
        assert total == pytest.approx(5.55)

    def test_histogram_without_inf_series_uses_count(self):
        page = "\n".join((
            "# TYPE lat histogram",
            'lat_bucket{le="1"} 2',
            "lat_sum 1.5",
            "lat_count 5",
        ))
        rows = rows_from_prometheus(page)
        assert rows == [("histogram", "lat", (), "", (1.0,), (2, 3), 1.5, 5)]

    def test_counter_and_gauge_labels_survive(self):
        rows = rows_from_prometheus(to_prometheus(make_registry()))
        by_name = {(row[0], row[1]): row for row in rows}
        assert by_name[("counter", "errs_total")][2] == (("kind", "io"),)
        assert by_name[("gauge", "depth")][4] == 7


class TestAggregateFleet:
    def pages(self):
        return {
            "node0": to_prometheus(make_registry(jobs=3, depth=7)),
            "node1": to_prometheus(make_registry(jobs=5, depth=2)),
        }

    def test_counters_sum_fleet_wide_and_split_per_node(self):
        merged = aggregate_fleet(self.pages())
        assert merged.counter("jobs_total").value == 8
        assert merged.counter("jobs_total", node="node0").value == 3
        assert merged.counter("jobs_total", node="node1").value == 5

    def test_histograms_sum_per_bucket(self):
        merged = aggregate_fleet(self.pages())
        fleet = merged.histogram("latency_seconds", bounds=[0.1, 1.0])
        assert fleet.count == 6
        assert tuple(fleet.bucket_counts) == (2, 2, 2)
        per_node = merged.histogram("latency_seconds", bounds=[0.1, 1.0],
                                    node="node0")
        assert per_node.count == 3

    def test_gauges_stay_per_node_only(self):
        merged = aggregate_fleet(self.pages())
        assert merged.gauge("depth", node="node0").value == 7
        assert merged.gauge("depth", node="node1").value == 2
        # No unlabelled fleet-wide gauge series was created: summing
        # per-node gauges (queue depth, uptime) is not a fleet value.
        unlabelled = [m for m in merged.metrics()
                      if m.name == "depth" and not m.labels]
        assert unlabelled == []

    def test_merges_into_a_caller_registry(self):
        mine = MetricsRegistry()
        mine.counter("jobs_total", "Jobs processed").inc(100)
        out = aggregate_fleet(self.pages(), registry=mine)
        assert out is mine
        assert mine.counter("jobs_total").value == 108
