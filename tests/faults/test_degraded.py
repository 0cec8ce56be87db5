"""Tests for degraded-mode operation: down state, warm-up, stalls, fail policy."""

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, Decision
from repro.core.resilience import FailPolicy
from repro.faults.harness import run_with_faults
from repro.faults.injectors import (
    CrashRestart,
    Outage,
    PacketReorder,
    RotationStall,
)
from repro.net.packet import PacketArray
from repro.sim.pipeline import run_filter_on_trace
from repro.sim.router import EdgeRouter
from repro.telemetry.registry import use_registry
from tests.conftest import make_reply, make_request


class TestDownState:
    def test_fail_closed_drops_inbound_passes_outbound(
        self, small_config, protected, client_addr, server_addr
    ):
        filt = BitmapFilter(small_config, protected)  # FAIL_CLOSED default
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)  # a live mark the outage must ignore
        filt.fail()
        assert filt.is_down
        out = make_request(2.0, client_addr, server_addr, sport=6000)
        assert filt.process(out) is Decision.PASS
        assert filt.stats.unmarked_outgoing == 1
        # Even the solicited reply drops: policy, not bitmap, judges it.
        assert filt.process(make_reply(request, 2.5)) is Decision.DROP
        assert filt.stats.degraded_dropped == 1

    def test_fail_open_admits_unsolicited_inbound(
        self, small_config, protected, client_addr, server_addr
    ):
        filt = BitmapFilter(small_config, protected,
                            fail_policy=FailPolicy.FAIL_OPEN)
        filt.fail()
        unsolicited = make_reply(
            make_request(1.0, client_addr, server_addr, sport=7777), 1.5
        )
        assert filt.process(unsolicited) is Decision.PASS
        assert filt.stats.degraded_admitted == 1

    def test_recover_catches_up_missed_rotations(self, bitmap_filter):
        bitmap_filter.fail()
        missed = bitmap_filter.recover(23.0)  # rotations due at 5,10,15,20
        assert missed == 4
        assert bitmap_filter.stats.rotations == 4
        assert not bitmap_filter.is_down
        te = bitmap_filter.config.expiry_timer
        assert bitmap_filter.in_warmup(23.0 + te - 0.1)
        assert not bitmap_filter.in_warmup(23.0 + te + 0.1)

    def test_recover_without_missed_rotations_skips_warmup(self, bitmap_filter):
        bitmap_filter.fail()
        assert bitmap_filter.recover(2.0) == 0
        assert not bitmap_filter.in_warmup(2.0)

    def test_batch_matches_scalar_while_down(
        self, small_config, protected, client_addr, server_addr
    ):
        packets = []
        for i in range(8):
            request = make_request(1.0 + i, client_addr, server_addr,
                                   sport=5000 + i)
            packets.append(request)
            packets.append(make_reply(request, 1.5 + i))
        packets.sort(key=lambda pkt: pkt.ts)
        for policy in (FailPolicy.FAIL_CLOSED, FailPolicy.FAIL_OPEN):
            scalar = BitmapFilter(small_config, protected, fail_policy=policy)
            batched = BitmapFilter(small_config, protected, fail_policy=policy)
            scalar.fail()
            batched.fail()
            expected = [scalar.process(pkt) is Decision.PASS for pkt in packets]
            verdicts = batched.process_batch(PacketArray.from_packets(packets))
            assert verdicts.tolist() == expected
            assert batched.stats.as_dict() == scalar.stats.as_dict()


class TestWarmup:
    def test_admits_bitmap_misses_until_deadline(
        self, bitmap_filter, client_addr, server_addr
    ):
        bitmap_filter.begin_warmup(30.0)
        never_sent = make_request(5.0, client_addr, server_addr, sport=8000)
        assert bitmap_filter.process(make_reply(never_sent, 10.0)) is Decision.PASS
        assert bitmap_filter.stats.warmup_admitted == 1
        assert bitmap_filter.process(make_reply(never_sent, 31.0)) is Decision.DROP

    @pytest.mark.parametrize("exact", [True, False])
    def test_batch_paths_honor_warmup(
        self, small_config, protected, client_addr, server_addr, exact
    ):
        filt = BitmapFilter(small_config, protected)
        filt.begin_warmup(30.0)
        replies = [
            make_reply(make_request(1.0, client_addr, server_addr,
                                    sport=8100 + i), float(ts))
            for i, ts in enumerate((10.0, 20.0, 29.0, 31.0, 40.0))
        ]
        verdicts = filt.process_batch(PacketArray.from_packets(replies),
                                      exact=exact)
        assert verdicts.tolist() == [True, True, True, False, False]
        assert filt.stats.warmup_admitted == 3


class TestRotationStall:
    def test_stall_blocks_then_catch_up(self, bitmap_filter):
        bitmap_filter.stall_rotations()
        assert bitmap_filter.rotations_stalled
        assert bitmap_filter.advance_to(17.0) == 0
        assert bitmap_filter.resume_rotations(17.0, catch_up=True) == 3
        assert bitmap_filter.stats.rotations == 3

    def test_resume_without_catch_up_stretches_schedule(self, bitmap_filter):
        bitmap_filter.stall_rotations()
        bitmap_filter.advance_to(17.0)
        assert bitmap_filter.resume_rotations(17.0, catch_up=False) == 1
        # The naive late timer rotated once and rescheduled from now.
        assert bitmap_filter.advance_to(21.9) == 0
        assert bitmap_filter.advance_to(22.0) == 1


class _RaisingFilter:
    def process(self, pkt):
        raise RuntimeError("filter wedged")


class TestEdgeRouterFailPolicy:
    def test_fail_closed_drops_inbound_on_filter_error(
        self, protected, client_addr, server_addr
    ):
        router = EdgeRouter("r", protected, _RaisingFilter(),
                            fail_policy=FailPolicy.FAIL_CLOSED)
        request = make_request(1.0, client_addr, server_addr)
        assert router.forward(request) is Decision.PASS  # outbound unaffected
        assert router.forward(make_reply(request, 1.5)) is Decision.DROP
        assert router.counters.filter_errors == 2
        assert router.counters.dropped_in == 1

    def test_fail_open_admits_inbound_on_filter_error(
        self, protected, client_addr, server_addr
    ):
        router = EdgeRouter("r", protected, _RaisingFilter(),
                            fail_policy=FailPolicy.FAIL_OPEN)
        reply = make_reply(make_request(1.0, client_addr, server_addr), 1.5)
        assert router.forward(reply) is Decision.PASS
        assert router.counters.filter_errors == 1
        assert router.counters.dropped_in == 0


class TestHarness:
    def test_no_injectors_matches_pipeline(self, small_config, tiny_trace):
        plain = run_filter_on_trace(
            BitmapFilter(small_config, tiny_trace.protected), tiny_trace
        )
        faulted = run_with_faults(
            BitmapFilter(small_config, tiny_trace.protected), tiny_trace, []
        )
        assert bool(np.array_equal(faulted.run.verdicts, plain.verdicts))
        assert faulted.filters_swapped == 0
        assert faulted.fault_log == []

    @pytest.mark.parametrize("policy,expected", [
        (FailPolicy.FAIL_CLOSED, 0.0),
        (FailPolicy.FAIL_OPEN, 1.0),
    ])
    def test_outage_pass_fraction(self, small_config, tiny_trace, policy,
                                  expected):
        outage = Outage(at=20.0, duration=5.0, warmup_grace=0.0)
        result = run_with_faults(
            BitmapFilter(small_config, tiny_trace.protected,
                         fail_policy=policy),
            tiny_trace, [outage],
        )
        assert result.incoming_pass_fraction(20.0, 25.0) == expected
        assert len(result.fault_log) == 2

    def test_crash_restart_swaps_the_filter(self, small_config, tiny_trace):
        original = BitmapFilter(small_config, tiny_trace.protected)
        crash = CrashRestart(crash_at=20.0, downtime=2.0, snapshot_age=5.0)
        result = run_with_faults(original, tiny_trace, [crash])
        assert result.filters_swapped == 1
        assert result.filter is not original
        assert not result.filter.is_down

    @pytest.mark.parametrize("snapshot_age", [None, 5.0],
                             ids=["cold-restart", "warm-restart"])
    def test_crash_restart_keeps_the_hybrid_stack(self, small_config,
                                                  tiny_trace, snapshot_age):
        """A restarted hybrid comes back as a hybrid, on both restart
        paths, and keeps confirming admits against its table."""
        from repro.core.hybrid import HybridVerifiedFilter, VerifySpec

        original = HybridVerifiedFilter(
            BitmapFilter(small_config, tiny_trace.protected),
            VerifySpec(initial_order=4))
        crash = CrashRestart(crash_at=20.0, downtime=2.0,
                             snapshot_age=snapshot_age)
        result = run_with_faults(original, tiny_trace, [crash])
        assert result.filters_swapped == 1
        assert isinstance(result.filter, HybridVerifiedFilter)
        assert result.filter is not original
        assert result.filter.layers == original.layers
        assert result.filter.confirmed > 0

    def test_stall_leaves_verdict_count_intact(self, small_config, tiny_trace):
        stall = RotationStall(at=20.0, duration=10.0)
        result = run_with_faults(
            BitmapFilter(small_config, tiny_trace.protected), tiny_trace,
            [stall],
        )
        assert len(result.run.verdicts) == len(tiny_trace.packets)
        assert not result.filter.rotations_stalled


@pytest.mark.telemetry
class TestFaultTelemetry:
    """Fault injections and degraded-mode transitions show up in metrics."""

    def _injected(self, registry, name):
        counter = registry.get("repro_faults_injected_total", fault=name)
        return 0 if counter is None else counter.value

    def test_event_injectors_increment_named_counters(
        self, small_config, tiny_trace
    ):
        outage = Outage(at=20.0, duration=5.0, warmup_grace=0.0)
        stall = RotationStall(at=30.0, duration=5.0)
        with use_registry() as registry:
            run_with_faults(
                BitmapFilter(small_config, tiny_trace.protected), tiny_trace,
                [outage, stall],
            )
        # Each injector fires two timed events (enter + leave).
        assert self._injected(registry, outage.name) == 2
        assert self._injected(registry, stall.name) == 2

    def test_trace_transform_counts_one_injection(self, small_config,
                                                  tiny_trace):
        reorder = PacketReorder(fraction=0.1, max_delay=0.5)
        with use_registry() as registry:
            run_with_faults(
                BitmapFilter(small_config, tiny_trace.protected), tiny_trace,
                [reorder],
            )
        assert self._injected(registry, reorder.name) == 1

    def test_no_faults_no_counter(self, small_config, tiny_trace):
        with use_registry() as registry:
            run_with_faults(
                BitmapFilter(small_config, tiny_trace.protected), tiny_trace,
                [],
            )
        assert registry.get("repro_faults_injected_total") is None

    def test_degraded_gauge_tracks_fail_and_recover(self, small_config,
                                                    protected):
        with use_registry() as registry:
            filt = BitmapFilter(small_config, protected)
            gauge = registry.get("repro_filter_degraded")
            assert gauge.value == 0
            filt.fail()
            assert gauge.value == 1
            filt.recover(12.0)
            assert gauge.value == 0

    def test_degraded_admission_counters(self, small_config, protected,
                                         client_addr, server_addr):
        with use_registry() as registry:
            filt = BitmapFilter(small_config, protected,
                                fail_policy=FailPolicy.FAIL_OPEN)
            filt.fail()
            request = make_request(1.0, client_addr, server_addr)
            filt.process(make_reply(request, 1.5))
            assert registry.get("repro_filter_degraded_admits_total").value == 1
            filt.recover(2.0)
            closed = BitmapFilter(small_config, protected)
            closed.fail()
            closed.process(make_reply(request, 3.0))
            assert registry.get("repro_filter_degraded_drops_total").value == 1

    def test_stalled_gauge_and_warmup_deadline(self, small_config, protected):
        with use_registry() as registry:
            filt = BitmapFilter(small_config, protected)
            filt.stall_rotations()
            assert registry.get("repro_filter_rotations_stalled").value == 1
            filt.resume_rotations(17.0, catch_up=True)
            assert registry.get("repro_filter_rotations_stalled").value == 0
            filt.begin_warmup(42.0)
            assert (registry.get("repro_filter_warmup_until_seconds").value
                    == 42.0)

    def test_outage_run_records_transition_pair(self, small_config,
                                                tiny_trace):
        outage = Outage(at=20.0, duration=5.0, warmup_grace=0.0)
        with use_registry() as registry:
            result = run_with_faults(
                BitmapFilter(small_config, tiny_trace.protected), tiny_trace,
                [outage],
            )
        # The filter went down and came back: gauge ends at 0, and the
        # degraded-mode drop counter saw the fail-closed window's traffic.
        assert registry.get("repro_filter_degraded").value == 0
        dropped = registry.get("repro_filter_degraded_drops_total").value
        assert dropped == result.run.filter_stats["degraded_dropped"] > 0
