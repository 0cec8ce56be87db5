"""Unit tests for the hybrid bitmap→cuckoo verification filter.

The composition semantics the differential suite relies on, stated
directly: outgoing traffic feeds the exact table, verified incoming
admits must be confirmed or flipped to DROP, warm-up and degraded mode
are pass-throughs, and the whole stack snapshots and restores with its
table intact.
"""

import io

import numpy as np

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.cuckoo import pack_flow
from repro.core.filter_api import Decision, PacketFilter
from repro.core.hybrid import (
    _MIX,
    HybridVerifiedFilter,
    VerifySpec,
    _key_groups,
)
from repro.core.persistence import load_filter, save_filter
from repro.net.packet import PacketArray
from repro.telemetry import MetricsRegistry, use_registry
from tests.conftest import make_reply, make_request

CONFIG = FilterConfig(order=12, num_vectors=4, num_hashes=3,
                      rotation_interval=5.0)


def make_hybrid(protected, spec=None, **config_fields):
    config = (FilterConfig(order=12, num_vectors=4, num_hashes=3,
                           rotation_interval=5.0, **config_fields)
              if config_fields else CONFIG)
    return HybridVerifiedFilter(BitmapFilter(config, protected),
                                spec or VerifySpec(initial_order=4))


def force_false_admit(filt, client, server, sport=7777):
    """Mark a never-sent flow in the *bitmap only*: the next reply is a
    bitmap PASS with no exact-table entry — a false admit by construction."""
    filt.inner.mark_key(6, client, sport, server)
    return make_reply(make_request(1.0, client, server, sport=sport), 2.0)


class TestSemantics:
    def test_satisfies_packet_filter_protocol(self, protected):
        assert isinstance(make_hybrid(protected), PacketFilter)

    def test_legitimate_flow_confirmed(self, protected, client_addr,
                                       server_addr):
        filt = make_hybrid(protected)
        request = make_request(1.0, client_addr, server_addr)
        assert filt.process(request) is Decision.PASS
        assert filt.table.occupancy == 1
        assert filt.process(make_reply(request, 1.5)) is Decision.PASS
        assert (filt.confirmed, filt.denied) == (1, 0)

    def test_false_admit_denied(self, protected, client_addr, server_addr):
        filt = make_hybrid(protected)
        reply = force_false_admit(filt, client_addr, server_addr)
        assert filt.inner.would_pass_incoming(reply)   # bitmap says PASS
        assert filt.process(reply) is Decision.DROP    # table says no
        assert (filt.confirmed, filt.denied) == (0, 1)

    def test_bitmap_drop_never_reaches_table(self, protected, client_addr,
                                             server_addr):
        filt = make_hybrid(protected)
        unsolicited = make_reply(
            make_request(1.0, client_addr, server_addr, sport=9321), 2.0)
        assert filt.process(unsolicited) is Decision.DROP
        assert filt.table.lookups == 0

    def test_warmup_admits_never_denied(self, protected, client_addr,
                                        server_addr):
        filt = make_hybrid(protected)
        filt.begin_warmup(10.0)
        reply = make_reply(
            make_request(1.0, client_addr, server_addr, sport=4242), 2.0)
        assert filt.process(reply) is Decision.PASS    # grace window
        assert (filt.confirmed, filt.denied) == (0, 0)

    def test_degraded_mode_is_transparent(self, protected, client_addr,
                                          server_addr):
        filt = make_hybrid(protected)
        filt.fail()
        request = make_request(1.0, client_addr, server_addr)
        assert filt.process(request) is Decision.PASS  # outgoing always
        assert filt.table.occupancy == 0               # but nothing learned
        reply = make_reply(request, 1.5)
        assert filt.process(reply) is Decision.DROP    # FAIL_CLOSED verbatim
        assert filt.table.lookups == 0

    def test_scope_limits_verification(self, protected, server_addr):
        scoped_net = protected.networks[0]
        spec = VerifySpec(initial_order=4, scope=(str(scoped_net),))
        filt = make_hybrid(protected, spec)
        in_scope = force_false_admit(filt, scoped_net.host(9), server_addr)
        out_scope = force_false_admit(filt, protected.networks[1].host(9),
                                      server_addr, sport=7778)
        assert filt.process(in_scope) is Decision.DROP
        assert filt.process(out_scope) is Decision.PASS  # not verified
        assert (filt.confirmed, filt.denied) == (0, 1)

    def test_mark_key_punches_both_tiers(self, protected, client_addr,
                                         server_addr):
        filt = make_hybrid(protected)
        filt.mark_key(6, client_addr, 5555, server_addr)
        reply = make_reply(
            make_request(1.0, client_addr, server_addr, sport=5555), 2.0)
        assert filt.process(reply) is Decision.PASS
        lo, hi = pack_flow(6, client_addr, 5555, server_addr)
        assert filt.table.contains(lo, hi, filt.next_rotation)

    def test_would_pass_incoming_consults_table(self, protected, client_addr,
                                                server_addr):
        filt = make_hybrid(protected)
        reply = force_false_admit(filt, client_addr, server_addr)
        assert filt.inner.would_pass_incoming(reply)
        assert not filt.would_pass_incoming(reply)
        assert (filt.confirmed, filt.denied) == (0, 0)  # probe, not verdict


class TestBatchPaths:
    def _mixed_packets(self, protected, server_addr, n=120):
        packets = []
        for i in range(n):
            client = protected.networks[i % 4].host(20 + i % 50)
            request = make_request(0.2 + i * 0.05, client, server_addr,
                                   sport=30_000 + i)
            packets.append(request)
            packets.append(make_reply(request, request.ts + 0.4))
        packets.sort(key=lambda pkt: pkt.ts)
        return PacketArray.from_packets(packets)

    def test_exact_batch_matches_scalar(self, protected, server_addr):
        batch = self._mixed_packets(protected, server_addr)
        scalar = make_hybrid(protected)
        exact = make_hybrid(protected)
        want = np.array([scalar.process(p) is Decision.PASS
                         for p in batch.to_packets()])
        got = exact.process_batch(batch, exact=True)
        assert np.array_equal(got, want)
        assert exact.table.state_digest() == scalar.table.state_digest()
        assert (exact.confirmed, exact.denied) == (scalar.confirmed,
                                                   scalar.denied)

    def test_windowed_is_superset_of_exact(self, protected, server_addr):
        batch = self._mixed_packets(protected, server_addr)
        exact = make_hybrid(protected).process_batch(batch, exact=True)
        windowed = make_hybrid(protected).process_batch(batch, exact=False)
        assert not (exact & ~windowed).any()

    def test_windowed_denies_a_flow_opened_later_in_the_window(
            self, protected, client_addr, server_addr):
        """The inner windowed mask marks a whole rotation window before
        testing it, so it admits an unsolicited packet whose flow the
        client opens later in the same window; the table is confirmed in
        packet order, so the hybrid still denies it."""
        request = make_request(3.0, client_addr, server_addr)
        early = make_reply(request, 1.0)
        batch = PacketArray.from_packets([early, request])
        bitmap = BitmapFilter(CONFIG, protected)
        assert bitmap.process_batch(batch, exact=False).tolist() == [True,
                                                                     True]
        filt = make_hybrid(protected)
        assert filt.process_batch(batch, exact=False).tolist() == [False,
                                                                   True]
        assert (filt.confirmed, filt.denied) == (0, 1)

    def test_stats_move_denials_to_dropped(self, protected, client_addr,
                                           server_addr):
        filt = make_hybrid(protected)
        reply = force_false_admit(filt, client_addr, server_addr)
        filt.process(reply)
        inner_stats = filt.inner.stats
        stats = filt.stats
        assert stats.incoming_dropped == inner_stats.incoming_dropped + 1
        assert stats.incoming_passed == inner_stats.incoming_passed - 1
        # Adjusted view is a copy; the inner record stays untouched.
        assert filt.inner.stats.incoming_passed == inner_stats.incoming_passed


class TestAdaptiveResize:
    def test_denials_never_grow_the_table(self, protected, client_addr,
                                          server_addr):
        """``resize_fpr``/``fpr_window`` are accepted but inert: windows
        of nothing but denied lookups leave the table's size alone."""
        spec = VerifySpec(initial_order=4, resize_fpr=0.05, fpr_window=8)
        filt = make_hybrid(protected, spec)
        for i in range(32):
            reply = force_false_admit(filt, client_addr, server_addr,
                                      sport=6000 + i)
            assert filt.process(reply) is Decision.DROP
        assert filt.denied == 32
        assert filt.table.grows == 0
        assert filt.table.order == 4

    def test_lifetime_defaults_to_expiry_timer(self, protected):
        filt = make_hybrid(protected)
        assert filt.table.lifetime == CONFIG.expiry_timer  # Te = k*dt
        custom = make_hybrid(protected, VerifySpec(initial_order=4,
                                                   lifetime=3.5))
        assert custom.table.lifetime == 3.5


class TestDelegation:
    def test_resume_rotations_catches_up_like_the_bitmap(self, protected):
        """A stalled stack resumed late runs every missed rotation, as the
        bare bitmap does, and keeps the origin-aligned schedule."""
        bare = BitmapFilter(CONFIG, protected)
        stack = make_hybrid(protected)
        for filt in (bare, stack):
            filt.stall_rotations()
            assert filt.advance_to(17.0) == 0
        assert stack.resume_rotations(17.0) == bare.resume_rotations(17.0) == 3
        assert stack.next_rotation == bare.next_rotation == 20.0


def mix_twin(lo, hi, other_hi):
    """A key (lo', other_hi) whose 64-bit mix equals that of (lo, hi)."""
    with np.errstate(over="ignore"):
        return np.uint64(lo) ^ (np.uint64(hi) * _MIX) ^ (np.uint64(other_hi)
                                                         * _MIX)


def assert_grouped(order, lo, hi):
    """``order`` lists every index once, each key's indices contiguous and
    ascending."""
    assert sorted(order.tolist()) == list(range(len(lo)))
    keys = list(zip(lo[order].tolist(), hi[order].tolist()))
    runs = [keys[0]] + [b for a, b in zip(keys, keys[1:]) if a != b]
    assert len(runs) == len(set(keys))
    for key in set(keys):
        at = [int(i) for i, k in zip(order, keys) if k == key]
        assert at == sorted(at)


class TestKeyGrouping:
    def test_groups_equal_keys_in_index_order(self):
        rng = np.random.default_rng(3)
        lo = rng.integers(0, 4, 200).astype(np.uint64)
        hi = rng.integers(0, 3, 200).astype(np.uint64)
        assert_grouped(_key_groups(lo, hi), lo, hi)

    def test_mix_collision_falls_back_to_exact_sort(self):
        """Two different keys with one mix value, interleaved: the stable
        argsort on the mix alone would put them in one group."""
        lo_a, hi_a, hi_b = 0xAC10000500500006, 0x08080808, 0x01020304
        lo_b = mix_twin(lo_a, hi_a, hi_b)
        lo = np.array([lo_a, lo_b, lo_a, lo_b], dtype=np.uint64)
        hi = np.array([hi_a, hi_b, hi_a, hi_b], dtype=np.uint64)
        with np.errstate(over="ignore"):
            mix = lo ^ (hi * _MIX)
        assert len(set(mix.tolist())) == 1
        assert_grouped(_key_groups(lo, hi), lo, hi)

    def test_lookup_between_colliding_keys_sees_its_own_insert(self,
                                                              protected):
        """Insert B, insert its mix twin A, look B up: the lookup must find
        B's insert even though A sorts between them by mix."""
        filt = make_hybrid(protected)
        lo_a, hi_a, hi_b = 0xAC10000500500006, 0x08080808, 0x01020304
        lo_b = mix_twin(lo_a, hi_a, hi_b)
        lo = np.array([lo_b, lo_a, lo_b], dtype=np.uint64)
        hi = np.array([hi_b, hi_a, hi_b], dtype=np.uint64)
        mask = np.ones(3, dtype=bool)
        done = filt._verify_exact_vec(
            lo, hi, np.array([1.0, 1.2, 1.5]), np.array([True, True, False]),
            np.arange(3), mask)
        assert done == 3
        assert (filt.confirmed, filt.denied) == (1, 0)
        assert mask.all()


class TestSnapshotAndTelemetry:
    def test_snapshot_round_trip_keeps_table(self, protected, client_addr,
                                             server_addr):
        filt = make_hybrid(protected)
        for i in range(30):
            request = make_request(1.0 + i * 0.1, client_addr, server_addr,
                                   sport=20_000 + i)
            filt.process(request)
            filt.process(make_reply(request, request.ts + 0.05))
        buffer = io.BytesIO()
        save_filter(filt, buffer)
        buffer.seek(0)
        restored = load_filter(buffer)
        assert isinstance(restored, HybridVerifiedFilter)
        assert restored.layers == filt.layers
        assert restored.table.state_digest() == filt.table.state_digest()
        request = make_request(4.2, client_addr, server_addr, sport=20_005)
        assert restored.process(make_reply(request, 4.3)) is Decision.PASS

    def test_hybrid_counters_published(self, protected, client_addr,
                                       server_addr):
        with use_registry(MetricsRegistry()) as registry:
            filt = make_hybrid(protected)
            request = make_request(1.0, client_addr, server_addr)
            filt.process(request)
            filt.process(make_reply(request, 1.5))
            filt.process(force_false_admit(filt, client_addr, server_addr))
        values = {metric.name: metric.value for metric in registry.metrics()
                  if hasattr(metric, "value")}
        assert values["repro_hybrid_confirmed_total"] == 1
        assert values["repro_hybrid_denied_total"] == 1
        assert values["repro_hybrid_inserts_total"] >= 1
        assert values["repro_hybrid_occupancy"] >= 1
