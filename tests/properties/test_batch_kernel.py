"""Adversarial equivalence of the exact batch kernel and the scalar path.

``BitmapFilter.process_batch(exact=True)`` resolves the order of marks and
tests inside each rotation window with vector operations.  The scalar
``process()`` loop is the reference.  These properties run tiny bitmaps
(order 4-6, 16-64 bits), where most incoming packets share bits with
outgoing packets of the same window, so most of them are order-ambiguous.
They check that the kernel matches the loop in verdicts, every stats
field, the bit vectors, the rotation state and the per-path telemetry,
wherever the batch is cut (rotation boundaries included), with a warm-up
window open and with rotations stalled.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.bitmap_filter import BitmapFilter, Decision, FilterConfig
from repro.net.packet import PacketArray
from repro.telemetry.registry import MetricsRegistry
from tests.strategies import (
    PROTECTED,
    mixed_direction_packets,
    rotation_straddling_arrays,
    script_to_packets,
    traffic_scripts,
)

#: Every traffic shape here assumes a 5 s rotation interval.
INTERVAL = 5.0

#: Counters the filter keeps per admission path.
PATH_COUNTERS = ("repro_filter_marks_total", "repro_filter_admits_total",
                 "repro_filter_drops_total")


class _TickRecorder:
    """Sampler: the path-summed counters at every rotation tick."""

    def __init__(self, path):
        self.path = path
        self.rows = []

    def on_tick(self, ts, registry):
        self.rows.append((ts,) + _path_counts(registry, self.path))


def _path_counts(registry, path):
    counts = []
    for name in PATH_COUNTERS:
        counter = registry.get(name, path=path)
        counts.append(0 if counter is None else counter.value)
    warmup = registry.get("repro_filter_warmup_admits_total")
    counts.append(0 if warmup is None else warmup.value)
    return tuple(counts)


@st.composite
def configs(draw):
    return FilterConfig(
        order=draw(st.integers(4, 6)),
        num_vectors=draw(st.integers(2, 4)),
        num_hashes=draw(st.integers(1, 3)),
        rotation_interval=INTERVAL,
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def adversarial_arrays(draw):
    """Time-sorted batches: many flows over few bits, all four direction
    classes, or timestamps packed around rotation boundaries."""
    shape = draw(st.sampled_from(["scripts", "mixed", "straddling"]))
    if shape == "scripts":
        events = draw(traffic_scripts(max_events=80, max_gap=2.5,
                                      num_flows=24))
        return PacketArray.from_packets(script_to_packets(events))
    if shape == "mixed":
        return PacketArray.from_packets(
            draw(mixed_direction_packets(max_events=80, max_gap=2.5)))
    return draw(rotation_straddling_arrays(rotation_interval=INTERVAL))


@st.composite
def cut_points(draw, packets):
    """Batch cut positions, some of them exactly where a rotation
    boundary falls between two packets."""
    n = len(packets)
    ts = packets.ts
    on_boundary = [i for i in range(1, n)
                   if np.floor(ts[i] / INTERVAL) > np.floor(ts[i - 1] / INTERVAL)]
    pool = st.integers(0, n)
    if on_boundary:
        pool = st.one_of(pool, st.sampled_from(on_boundary))
    return sorted(set(draw(st.lists(pool, max_size=6))))


def _build(config, registry, warmup_until, stalled):
    filt = BitmapFilter(config, PROTECTED, telemetry=registry)
    if warmup_until is not None:
        filt.begin_warmup(warmup_until)
    if stalled:
        filt.stall_rotations()
    return filt


def _state(filt):
    bitmap = filt.bitmap
    return {
        "stats": filt.stats.as_dict(),
        "vectors": [bytes(vec.as_numpy()) for vec in bitmap.vectors],
        "current_index": bitmap.current_index,
        "bitmap_rotations": bitmap.rotations,
        "next_rotation": filt.next_rotation,
        "peak_utilization": filt.peak_utilization,
    }


def _run_both(config, packets, cuts, warmup_until=None, stalled=False,
              resume_at=None, catch_up=True):
    """Scalar loop and cut batches over the same packets; returns
    (scalar verdicts, batch verdicts, scalar filter, batch filter,
    scalar registry, batch registry, scalar ticks, batch ticks).

    ``resume_at`` un-stalls both filters before that batch position.
    """
    scalar_reg, batch_reg = MetricsRegistry(), MetricsRegistry()
    scalar_ticks, batch_ticks = _TickRecorder("scalar"), _TickRecorder("exact_batch")
    scalar_reg.add_sampler(scalar_ticks)
    batch_reg.add_sampler(batch_ticks)
    scalar = _build(config, scalar_reg, warmup_until, stalled)
    batch = _build(config, batch_reg, warmup_until, stalled)

    n = len(packets)
    edges = sorted(set([0, n, *cuts] + ([resume_at] if resume_at else [])))
    expected, got = [], []
    for begin, end in zip(edges[:-1], edges[1:]):
        if begin == resume_at:
            now = float(packets.ts[begin - 1])
            scalar.resume_rotations(now, catch_up)
            batch.resume_rotations(now, catch_up)
        piece = packets[begin:end]
        expected += [scalar.process(pkt) is Decision.PASS for pkt in piece]
        got += batch.process_batch(piece, exact=True).tolist()
    return (expected, got, scalar, batch, scalar_reg, batch_reg,
            scalar_ticks, batch_ticks)


def _assert_equivalent(run):
    (expected, got, scalar, batch, scalar_reg, batch_reg,
     scalar_ticks, batch_ticks) = run
    assert got == expected
    assert _state(batch) == _state(scalar)
    assert _path_counts(batch_reg, "exact_batch") == _path_counts(scalar_reg, "scalar")
    for name in PATH_COUNTERS:
        for other in ("scalar", "windowed_batch"):
            counter = batch_reg.get(name, path=other)
            assert counter is None or counter.value == 0
    rotations = "repro_filter_rotations_total"
    assert batch_reg.get(rotations).value == scalar_reg.get(rotations).value
    # Counters are flushed before every rotation, so each Δt tick sees
    # the same per-window totals the per-packet path produced.
    assert [row[1:] for row in batch_ticks.rows] == [row[1:] for row in scalar_ticks.rows]
    assert [row[0] for row in batch_ticks.rows] == [row[0] for row in scalar_ticks.rows]


class TestExactKernelMatchesScalar:
    @given(data=st.data(), config=configs(), packets=adversarial_arrays())
    @settings(max_examples=200, deadline=None)
    def test_any_cut_matches_scalar(self, data, config, packets):
        cuts = data.draw(cut_points(packets))
        _assert_equivalent(_run_both(config, packets, cuts))

    @given(data=st.data(), config=configs(), packets=adversarial_arrays(),
           grace=st.floats(0.0, 25.0))
    @settings(max_examples=100, deadline=None)
    def test_open_warmup_window(self, data, config, packets, grace):
        cuts = data.draw(cut_points(packets))
        _assert_equivalent(_run_both(config, packets, cuts,
                                     warmup_until=grace))

    @given(data=st.data(), config=configs(), packets=adversarial_arrays(),
           catch_up=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_stalled_rotations(self, data, config, packets, catch_up):
        """Rotations stalled from the start; optionally resumed (with or
        without catch-up) at a drawn batch cut."""
        cuts = data.draw(cut_points(packets))
        resume_at = data.draw(st.one_of(st.none(),
                                        st.integers(1, len(packets))))
        _assert_equivalent(_run_both(config, packets, cuts, stalled=True,
                                     resume_at=resume_at, catch_up=catch_up))

    @given(data=st.data(), config=configs(), packets=adversarial_arrays())
    @settings(max_examples=100, deadline=None)
    def test_out_of_order_timestamps(self, data, config, packets):
        """A batch that is not time-sorted: the per-packet path rotates by
        the latest timestamp seen so far, and so must the kernel."""
        order = data.draw(st.permutations(range(len(packets))))
        shuffled = PacketArray(packets.data[np.array(order, dtype=np.int64)])
        cuts = data.draw(cut_points(shuffled))
        _assert_equivalent(_run_both(config, shuffled, cuts))

    @given(data=st.data(), config=configs(), packets=adversarial_arrays())
    @settings(max_examples=100, deadline=None)
    def test_scalar_then_batch_on_one_filter(self, data, config, packets):
        """One filter fed a scalar prefix and then the rest as a batch
        ends where the all-scalar filter ends."""
        split = data.draw(st.integers(0, len(packets)))
        scalar = BitmapFilter(config, PROTECTED)
        mixed = BitmapFilter(config, PROTECTED)
        expected = [scalar.process(pkt) is Decision.PASS for pkt in packets]
        got = [mixed.process(pkt) is Decision.PASS for pkt in packets[:split]]
        got += mixed.process_batch(packets[split:], exact=True).tolist()
        assert got == expected
        assert _state(mixed) == _state(scalar)


class TestWindowedKernel:
    @given(config=configs(),
           packets=rotation_straddling_arrays(rotation_interval=INTERVAL))
    @settings(max_examples=100, deadline=None)
    def test_rotation_boundary_clusters(self, config, packets):
        """Around rotation boundaries the windowed path marks exactly what
        the exact path marks, rotates identically, and only ever admits
        more."""
        exact = BitmapFilter(config, PROTECTED)
        windowed = BitmapFilter(config, PROTECTED)
        exact_verdicts = exact.process_batch(packets, exact=True)
        windowed_verdicts = windowed.process_batch(packets, exact=False)
        assert bool(np.all(windowed_verdicts >= exact_verdicts))
        exact_state, windowed_state = _state(exact), _state(windowed)
        exact_stats = exact_state.pop("stats")
        windowed_stats = windowed_state.pop("stats")
        assert windowed_state == exact_state
        extra = int(windowed_verdicts.sum() - exact_verdicts.sum())
        assert windowed_stats["incoming_passed"] == (
            exact_stats["incoming_passed"] + extra)
        for name in ("incoming_passed", "incoming_dropped"):
            exact_stats.pop(name)
            windowed_stats.pop(name)
        assert windowed_stats == exact_stats
