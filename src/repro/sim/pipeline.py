"""The experiment harness: run a filter over a labelled trace and score it.

One entry point, :func:`run_filter_on_trace`, accepts any filter speaking
the :class:`~repro.core.filter_api.PacketFilter` protocol — the
:class:`~repro.core.bitmap_filter.BitmapFilter`, the
:class:`~repro.spi.base.StatefulFilter` baselines, ablations — plus a
labelled :class:`~repro.traffic.trace.Trace`, and produces a
:class:`~repro.sim.metrics.FilterRunResult` with verdicts, confusion counts
(attack filter rate, penetration, false positives), and per-second series.

The harness is annotated with :class:`~repro.telemetry.profiling.Timer`
stages (``classify``/``filter``/``score``) so any run inside
:func:`~repro.telemetry.profiling.profile_run` contributes to the stage
breakdown, and publishes throughput metrics (packets filtered, packets/sec)
when a live telemetry registry is installed.
"""

from __future__ import annotations

import numpy as np

from repro.core.filter_api import PacketFilter
from repro.sim.metrics import FilterRunResult, score_run
from repro.telemetry.profiling import Timer
from repro.telemetry.registry import get_registry
from repro.traffic.trace import Trace


def run_filter_on_trace(
    filt: PacketFilter,
    trace: Trace,
    exact: bool = True,
) -> FilterRunResult:
    """Run ``filt`` over ``trace`` (time-sorted) and score the verdicts.

    ``exact`` selects the batch mode where the filter offers a choice: the
    bitmap filter's vectorized kernel gives the per-packet verdicts of
    ``process`` with ``True`` and the windowed approximation with
    ``False`` (see ``BitmapFilter.process_batch_windowed`` for its
    bound).  Filters without an approximate path ignore the flag.
    """
    if not isinstance(filt, PacketFilter):
        raise TypeError(
            f"unsupported filter type {type(filt).__name__}: does not "
            "implement the PacketFilter protocol")
    packets = trace.packets
    with Timer("classify"):
        directions = packets.directions(trace.protected)
        incoming_mask = directions == 1

    with Timer("filter") as timer:
        verdicts = filt.process_batch(packets, exact=exact)
    wall = timer.elapsed

    stats = getattr(filt, "stats", None)
    if stats is not None and hasattr(stats, "as_dict"):
        filter_stats = stats.as_dict()
    elif stats is not None:
        filter_stats = {"repr": repr(stats)}
    else:
        filter_stats = {}
    num_flows = getattr(filt, "num_flows", None)
    if num_flows is not None:
        filter_stats["flows_kept"] = num_flows

    registry = get_registry()
    if registry.enabled:
        n = len(packets)
        registry.counter(
            "repro_pipeline_packets_total",
            "Packets pushed through run_filter_on_trace",
        ).inc(n)
        registry.counter(
            "repro_pipeline_runs_total", "run_filter_on_trace invocations"
        ).inc()
        if wall > 0:
            registry.gauge(
                "repro_pipeline_packets_per_second",
                "Throughput of the most recent filter run (packets/sec)",
            ).set(n / wall)
        registry.histogram(
            "repro_pipeline_filter_seconds",
            "Wall-clock duration of the filter stage per run",
        ).observe(wall)

    with Timer("score"):
        confusion, series = score_run(packets, verdicts, incoming_mask,
                                      trace.duration)
    return FilterRunResult(
        verdicts=verdicts,
        incoming_mask=incoming_mask,
        confusion=confusion,
        series=series,
        filter_stats=filter_stats,
        wall_time=wall,
    )


def run_filter_with_reconfig(
    config,
    new_config,
    trace: Trace,
    rebuild_at: float,
    *,
    exact: bool = True,
) -> np.ndarray:
    """Offline twin of a live geometry reconfig: verdicts across a rebuild.

    Reproduces exactly what a ``FilterDaemon`` (and hence every node of a
    fleet under :meth:`FleetManager.rolling_reconfig`) does when geometry
    changes mid-stream: packets with ``ts < rebuild_at`` go through a
    filter built from ``config``; at the boundary a fresh filter is built
    from ``new_config`` — anchored at the boundary so its rotation
    schedule stays origin-aligned, with a warm-up grace window of the
    *old* expiry timer (marks in the old geometry are unreadable by the
    new one) — and the rest of the trace goes through it.

    Because the split point is a function of packet timestamps alone,
    this serial replay is byte-identical to a fleet whose every node
    rebuilds at the same shared ``rebuild_at`` — the invariant
    ``tests/differential/test_fleet_equivalence.py`` pins.
    """
    from repro.core.filter_api import build_filter

    packets = trace.packets
    old = build_filter(config, trace.protected)
    ts = np.asarray(packets.ts, dtype=np.float64)
    split = int(np.searchsorted(ts, float(rebuild_at), side="left"))
    if split >= len(packets):  # boundary never crossed: no rebuild happens
        return np.asarray(old.process_batch(packets, exact=exact),
                          dtype=bool)
    head = (np.asarray(old.process_batch(packets[:split], exact=exact),
                       dtype=bool)
            if split else np.zeros(0, dtype=bool))
    # Anchor where the daemon anchors: the shared boundary, unless the
    # old filter's clock already ran past it (never in packet mode).
    last_crossed = old.next_rotation - old.config.rotation_interval
    boundary = max(float(rebuild_at), last_crossed)
    new = build_filter(new_config, trace.protected,
                       start_time=boundary)
    new.begin_warmup(boundary + old.config.expiry_timer)
    tail = np.asarray(new.process_batch(packets[split:], exact=exact),
                      dtype=bool)
    return np.concatenate([head, tail])


def windowed_drop_rates(
    result: FilterRunResult, window: float = 10.0
) -> "tuple[np.ndarray, np.ndarray]":
    """Incoming drop rate per ``window``-second bucket (Fig. 4's points)."""
    seconds = result.series.seconds
    incoming = result.series.normal_incoming + result.series.attack_incoming
    dropped = result.series.dropped_incoming
    bins = int(np.ceil(len(seconds) / window))
    xs = np.zeros(bins)
    rates = np.zeros(bins)
    width = int(window)
    for b in range(bins):
        lo, hi = b * width, min((b + 1) * width, len(seconds))
        total = incoming[lo:hi].sum()
        xs[b] = seconds[lo]
        rates[b] = dropped[lo:hi].sum() / total if total else 0.0
    return xs, rates
