"""Tests for repro.sim.engine — the discrete-event timeline."""

import pytest

from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, Decision
from repro.net.packet import PacketArray
from repro.sim.engine import (
    OutOfOrderPacketError,
    SimulationEngine,
    merge_packet_streams,
)
from tests.conftest import make_request
from tests.strategies import PROTECTED, script_to_packets


class TestTimers:
    def test_one_shot_timer(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, fired.append)
        engine.run([], until=10.0)
        assert fired == [5.0]
        assert engine.timers_fired == 1

    def test_recurring_timer(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(2.0, fired.append, interval=2.0)
        engine.run([], until=9.0)
        assert fired == [2.0, 4.0, 6.0, 8.0]

    def test_timer_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(3.0, lambda ts: order.append("b"))
        engine.schedule(1.0, lambda ts: order.append("a"))
        engine.schedule(5.0, lambda ts: order.append("c"))
        engine.run([], until=10.0)
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda ts: order.append(1))
        engine.schedule(1.0, lambda ts: order.append(2))
        engine.run([], until=2.0)
        assert order == [1, 2]

    def test_interval_validation(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule(1.0, lambda ts: None, interval=0)

    def test_pending_timers(self):
        engine = SimulationEngine()
        engine.schedule(100.0, lambda ts: None)
        assert engine.pending_timers == 1


class TestPacketDelivery:
    def test_packets_delivered_in_order(self, client_addr, server_addr):
        engine = SimulationEngine()
        seen = []
        engine.on_packet(lambda pkt: seen.append(pkt.ts))
        packets = [make_request(float(t), client_addr, server_addr) for t in (1, 2, 3)]
        engine.run(packets)
        assert seen == [1.0, 2.0, 3.0]
        assert engine.packets_processed == 3

    def test_timers_interleave_with_packets(self, client_addr, server_addr):
        engine = SimulationEngine()
        events = []
        engine.on_packet(lambda pkt: events.append(("pkt", pkt.ts)))
        engine.schedule(1.5, lambda ts: events.append(("timer", ts)), interval=1.0)
        packets = [make_request(float(t), client_addr, server_addr) for t in (1, 2, 3)]
        engine.run(packets, until=3.5)
        assert events == [
            ("pkt", 1.0), ("timer", 1.5), ("pkt", 2.0),
            ("timer", 2.5), ("pkt", 3.0), ("timer", 3.5),
        ]

    def test_tie_timer_fires_before_packet(self, client_addr, server_addr):
        engine = SimulationEngine()
        events = []
        engine.on_packet(lambda pkt: events.append("pkt"))
        engine.schedule(2.0, lambda ts: events.append("timer"))
        engine.run([make_request(2.0, client_addr, server_addr)])
        assert events == ["timer", "pkt"]

    def test_run_array(self, client_addr, server_addr):
        engine = SimulationEngine()
        count = []
        engine.on_packet(lambda pkt: count.append(1))
        arr = PacketArray.from_packets(
            [make_request(1.0, client_addr, server_addr)] * 3
        )
        engine.run_array(arr)
        assert len(count) == 3

    def test_multiple_handlers(self, client_addr, server_addr):
        engine = SimulationEngine()
        a, b = [], []
        engine.on_packet(lambda pkt: a.append(pkt))
        engine.on_packet(lambda pkt: b.append(pkt))
        engine.run([make_request(1.0, client_addr, server_addr)])
        assert len(a) == len(b) == 1


class TestOutOfOrder:
    def test_reordered_packet_raises_by_default(self, client_addr, server_addr):
        engine = SimulationEngine()
        packets = [make_request(2.0, client_addr, server_addr),
                   make_request(1.0, client_addr, server_addr)]
        with pytest.raises(OutOfOrderPacketError):
            engine.run(packets)

    def test_tolerance_delivers_late_packet_at_current_clock(
        self, client_addr, server_addr
    ):
        engine = SimulationEngine(reorder_tolerance=2.0)
        seen = []
        engine.on_packet(lambda pkt: seen.append(pkt.ts))
        packets = [make_request(3.0, client_addr, server_addr),
                   make_request(1.5, client_addr, server_addr),
                   make_request(4.0, client_addr, server_addr)]
        engine.run(packets)
        assert seen == [3.0, 1.5, 4.0]
        assert engine.packets_reordered == 1
        assert engine.now == 4.0

    def test_tolerance_does_not_rewind_timers(self, client_addr, server_addr):
        engine = SimulationEngine(reorder_tolerance=5.0)
        fired = []
        engine.schedule(2.0, fired.append, interval=2.0)
        packets = [make_request(3.0, client_addr, server_addr),
                   make_request(1.0, client_addr, server_addr),
                   make_request(5.0, client_addr, server_addr)]
        engine.run(packets)
        # The late 1.0s packet must not re-fire the 2.0s timer.
        assert fired == [2.0, 4.0]

    def test_lateness_beyond_tolerance_raises(self, client_addr, server_addr):
        engine = SimulationEngine(reorder_tolerance=1.0)
        packets = [make_request(10.0, client_addr, server_addr),
                   make_request(2.0, client_addr, server_addr)]
        with pytest.raises(OutOfOrderPacketError):
            engine.run(packets)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine(reorder_tolerance=-1.0)


class TestCancel:
    def test_cancel_one_shot_before_it_fires(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(5.0, fired.append)
        engine.cancel(event)
        engine.run([], until=10.0)
        assert fired == []
        assert engine.pending_timers == 0

    def test_cancel_recurring_from_inside_its_handler(self):
        engine = SimulationEngine()
        fired = []

        def handler(ts):
            fired.append(ts)
            if len(fired) == 2:
                engine.cancel(event)

        event = engine.schedule(2.0, handler, interval=2.0)
        engine.run([], until=20.0)
        assert fired == [2.0, 4.0]

    def test_cancel_recurring_between_runs(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, fired.append, interval=1.0)
        engine.run([], until=3.0)
        assert fired == [1.0, 2.0, 3.0]
        engine.cancel(event)
        engine.run([], until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert engine.pending_timers == 0


class TestMerge:
    def test_merge_packet_streams(self, client_addr, server_addr):
        a = [make_request(float(t), client_addr, server_addr) for t in (1, 4)]
        b = [make_request(float(t), client_addr, server_addr) for t in (2, 3)]
        merged = list(merge_packet_streams(a, b))
        assert [p.ts for p in merged] == [1.0, 2.0, 3.0, 4.0]


class TestRunFilter:
    """``run_filter`` drives a filter in batches split at timer timestamps."""

    CONFIG = BitmapFilterConfig(order=10, num_vectors=4, num_hashes=3,
                                rotation_interval=5.0)

    @staticmethod
    def _batch():
        """A deterministic 26 s mixed script crossing several rotations."""
        events = [(0.16, i % 3 != 1, (i // 3) % 4) for i in range(160)]
        return PacketArray.from_packets(script_to_packets(events))

    def _run(self, batched, batch, timers):
        """Replay ``batch`` through a fresh filter with ``timers`` (each
        ``(ts, interval, action)``, action called with the filter), either
        through ``run_filter`` or the scalar ``run`` loop."""
        engine = SimulationEngine()
        filt = BitmapFilter(self.CONFIG, PROTECTED)
        fired = []
        for ts, interval, action in timers:
            def handler(now, action=action):
                fired.append(now)
                action(filt)
            engine.schedule(ts, handler, interval=interval)
        if batched:
            verdicts = engine.run_filter(filt, batch, until=30.0).tolist()
        else:
            verdicts = []
            engine.on_packet(lambda pkt: verdicts.append(
                filt.process(pkt) is Decision.PASS))
            engine.run(iter(batch), until=30.0)
        return verdicts, fired, engine, filt

    def test_matches_scalar_run_with_recurring_timer(self):
        batch = self._batch()
        timers = [(2.0, 3.0, lambda filt: None)]
        batched = self._run(True, batch, timers)
        scalar = self._run(False, batch, timers)
        assert batched[0] == scalar[0]
        assert batched[1] == scalar[1]
        engine = batched[2]
        assert engine.packets_processed == len(batch)
        assert engine.timers_fired == scalar[2].timers_fired == len(batched[1])
        assert engine.now == 30.0

    def test_timer_lands_between_the_same_two_packets(self):
        """A timer that takes the filter down mid-batch lands between the
        same two packets as in the scalar loop (ties: timer first)."""
        batch = self._batch()
        boundary = float(batch.ts[len(batch) // 2])
        timers = [(boundary, None, lambda filt: filt.fail())]
        batched = self._run(True, batch, timers)
        scalar = self._run(False, batch, timers)
        assert batched[0] == scalar[0]
        assert batched[3].stats.as_dict() == scalar[3].stats.as_dict()
        # The outage changed verdicts, so the split point is observable.
        assert batched[0] != self._run(True, batch, [])[0]
