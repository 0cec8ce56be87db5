"""Tests for repro.faults.injectors — the fault catalogue itself."""

import numpy as np
import pytest

from repro.faults.injectors import (
    BitFlips,
    CrashRestart,
    PacketDuplication,
    PacketReorder,
    RotationStall,
    TraceGap,
    flip_random_bits,
)


class TestPacketReorder:
    def test_stream_stays_sorted_same_length(self, tiny_trace):
        faulted = PacketReorder(fraction=0.05, max_delay=1.0).transform_trace(
            tiny_trace
        )
        assert len(faulted.packets) == len(tiny_trace.packets)
        ts = faulted.packets.ts
        assert bool(np.all(np.diff(ts) >= 0))
        assert faulted.metadata["fault"].startswith("reorder")

    def test_delays_bounded(self, tiny_trace):
        max_delay = 0.5
        faulted = PacketReorder(fraction=0.05, max_delay=max_delay,
                                seed=7).transform_trace(tiny_trace)
        # Same multiset of flows, every timestamp moved by at most max_delay.
        before = np.sort(tiny_trace.packets.ts)
        after = np.sort(faulted.packets.ts)
        assert bool(np.all(after - before >= 0))
        assert bool(np.all(after - before <= max_delay + 1e-9))

    def test_deterministic_given_seed(self, tiny_trace):
        a = PacketReorder(0.05, 1.0, seed=3).transform_trace(tiny_trace)
        b = PacketReorder(0.05, 1.0, seed=3).transform_trace(tiny_trace)
        assert bool(np.array_equal(a.packets.ts, b.packets.ts))


class TestPacketDuplication:
    def test_copies_accounted(self, tiny_trace):
        faulted = PacketDuplication(fraction=0.01, delay=0.2).transform_trace(
            tiny_trace
        )
        added = faulted.metadata["duplicated_packets"]
        assert added > 0
        assert len(faulted.packets) == len(tiny_trace.packets) + added
        assert bool(np.all(np.diff(faulted.packets.ts) >= 0))


class TestTraceGap:
    def test_window_emptied(self, tiny_trace):
        gap = TraceGap(start=20.0, duration=5.0)
        faulted = gap.transform_trace(tiny_trace)
        ts = faulted.packets.ts
        assert not bool(np.any((ts >= 20.0) & (ts < 25.0)))
        lost = faulted.metadata["gap_lost_packets"]
        assert lost == len(tiny_trace.packets) - len(faulted.packets)
        assert lost > 0


class TestBitFlips:
    def test_zero_fraction_is_a_noop(self, bitmap_filter):
        rng = np.random.default_rng(0)
        assert flip_random_bits(bitmap_filter.bitmap, 0.0, rng) == 0
        for vec in bitmap_filter.bitmap.vectors:
            assert not bool(np.unpackbits(vec.as_numpy()).any())

    def test_flip_every_bit(self, bitmap_filter):
        bitmap = bitmap_filter.bitmap
        rng = np.random.default_rng(0)
        total = flip_random_bits(bitmap, 1.0, rng)
        num_bits = bitmap.vectors[0].num_bits
        assert total == len(bitmap.vectors) * num_bits
        for vec in bitmap.vectors:
            assert bool(np.all(vec.as_numpy() == 0xFF))

    def test_flip_count_matches_popcount(self, bitmap_filter):
        """On an empty bitmap, the reported count equals set bits."""
        bitmap = bitmap_filter.bitmap
        rng = np.random.default_rng(42)
        total = flip_random_bits(bitmap, 0.01, rng)
        popcount = sum(int(np.unpackbits(vec.as_numpy()).sum())
                       for vec in bitmap.vectors)
        assert total == popcount > 0

    def test_injector_records_flip_count(self, bitmap_filter):
        flips = BitFlips(at=5.0, fraction=0.01)
        (event,) = flips.events()
        assert event.ts == 5.0
        event.apply(bitmap_filter, 5.0)
        assert flips.flipped > 0


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            RotationStall(at=1.0, duration=0.0)
        with pytest.raises(ValueError):
            CrashRestart(crash_at=5.0, downtime=1.0, snapshot_age=10.0)
        with pytest.raises(ValueError):
            CrashRestart(crash_at=5.0, downtime=0.0)
        with pytest.raises(ValueError):
            BitFlips(at=0.0, fraction=1.5)
        with pytest.raises(ValueError):
            PacketReorder(fraction=0.0, max_delay=1.0)
        with pytest.raises(ValueError):
            PacketReorder(fraction=0.5, max_delay=0.0)
        with pytest.raises(ValueError):
            PacketDuplication(fraction=0.5, delay=-1.0)
        with pytest.raises(ValueError):
            TraceGap(start=0.0, duration=0.0)

    def test_crash_restart_event_order(self):
        crash = CrashRestart(crash_at=10.0, downtime=2.0, snapshot_age=3.0)
        times = [event.ts for event in crash.events()]
        assert times == [7.0, 10.0, 12.0]
