"""Exact batch verification with the measured-FPR resize trigger armed.

``HybridVerifiedFilter.process_batch(exact=True)`` cuts each batch right
after every lookup that closes an ``fpr_window`` and replays the pieces
vectorized, so the trigger's grow lands between the same two operations,
at the same timestamp, as in the scalar ``process()`` loop.  Tiny bitmaps
(many false admits) and short table lifetimes (many denials) make the
trigger fire often.  Wherever the trace is cut — exactly at a close,
between closes, or across several — the batch path must match the loop
in verdicts, counts, the open FPR window, the table bytes, its counters
and its grow causes.  With ``max_order`` one or two doublings away and
kicks that fail at low load, the table reaches its ceiling mid-batch
(through the FPR trigger, utilization or kick pressure), where an insert
may overwrite a live entry; the replay must switch to the scalar
interleave right there.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.filter_api import Decision
from repro.core.hybrid import HybridVerifiedFilter, VerifySpec
from repro.net.packet import PacketArray
from tests.strategies import PROTECTED, script_to_packets, traffic_scripts


@st.composite
def stacks(draw):
    """(bitmap config, verify spec) with a tiny bitmap and table."""
    config = FilterConfig(
        order=draw(st.integers(4, 6)), num_vectors=4,
        num_hashes=draw(st.integers(1, 2)), rotation_interval=5.0,
        seed=draw(st.integers(0, 2**16)))
    initial = draw(st.integers(2, 4))
    spec = VerifySpec(
        initial_order=initial,
        slots_per_bucket=draw(st.integers(1, 4)),
        max_order=initial + draw(st.sampled_from([1, 2, 6])),
        lifetime=draw(st.sampled_from([0.5, 2.0, 0.0])),
        grow_at=draw(st.sampled_from([0.5, 0.85, 1.0])),
        max_kick_nodes=draw(st.sampled_from([2, 4, 64])),
        resize_fpr=draw(st.sampled_from([0.01, 0.2, 0.5])),
        fpr_window=draw(st.integers(1, 16)),
    )
    return config, spec


def scalar_run(config, spec, packets):
    """The reference loop: verdicts, the filter, and the packet indices
    whose lookup closed an FPR window."""
    filt = HybridVerifiedFilter(BitmapFilter(config, PROTECTED), spec)
    verdicts, closes = [], []
    for i, pkt in enumerate(packets):
        lookups = filt.table.lookups
        verdicts.append(filt.process(pkt) is Decision.PASS)
        if filt.table.lookups > lookups and filt._window_lookups == 0:
            closes.append(i)
    return np.array(verdicts), filt, closes


@given(stack=stacks(),
       events=traffic_scripts(max_events=150, max_gap=1.5, num_flows=24),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_exact_batch_matches_scalar_with_fpr_resizing(stack, events, data):
    config, spec = stack
    packets = script_to_packets(events)
    want, scalar, closes = scalar_run(config, spec, packets)
    # Cut right after some closes and anywhere else; batches between the
    # cuts may span several closes.
    at_close = data.draw(st.lists(st.sampled_from(closes), unique=True)
                         if closes else st.just([]))
    anywhere = data.draw(st.lists(st.integers(1, len(packets)), max_size=6))
    cuts = sorted({0, len(packets)} | {i + 1 for i in at_close}
                  | set(anywhere))
    filt = HybridVerifiedFilter(BitmapFilter(config, PROTECTED), spec)
    got = np.concatenate([
        filt.process_batch(PacketArray.from_packets(packets[a:b]),
                           exact=True)
        for a, b in zip(cuts, cuts[1:])])
    assert np.array_equal(got, want)
    assert (filt.confirmed, filt.denied) == (scalar.confirmed, scalar.denied)
    assert ((filt._window_lookups, filt._window_denied)
            == (scalar._window_lookups, scalar._window_denied))
    assert filt.table.state_digest() == scalar.table.state_digest()
    assert filt.table.order == scalar.table.order
    assert filt.table.counters() == scalar.table.counters()
    assert filt.table.grow_causes == scalar.table.grow_causes


@st.composite
def jammed_stacks(draw):
    """One-slot buckets, two-node kicks and no utilization trigger below
    full: kicks fail at low load, so pressure grows reach the ceiling
    within a few lookups, and then inserts overwrite live entries."""
    config = FilterConfig(order=8, num_vectors=4, num_hashes=2,
                          rotation_interval=5.0)
    initial = draw(st.integers(2, 3))
    spec = VerifySpec(
        initial_order=initial, slots_per_bucket=1,
        max_order=initial + draw(st.integers(1, 2)),
        lifetime=draw(st.sampled_from([2.0, 50.0])), grow_at=1.0,
        max_kick_nodes=2, resize_fpr=draw(st.sampled_from([0.0, 0.2])),
        fpr_window=draw(st.integers(1, 16)))
    return config, spec


@given(stack=jammed_stacks(),
       events=traffic_scripts(max_events=300, max_gap=0.3, num_flows=60))
@settings(max_examples=100, deadline=None)
def test_exact_batch_matches_scalar_when_kicks_reach_the_ceiling(stack,
                                                                 events):
    config, spec = stack
    packets = script_to_packets(events)
    want, scalar, _ = scalar_run(config, spec, packets)
    filt = HybridVerifiedFilter(BitmapFilter(config, PROTECTED), spec)
    got = filt.process_batch(PacketArray.from_packets(packets), exact=True)
    assert np.array_equal(got, want)
    assert (filt.confirmed, filt.denied) == (scalar.confirmed, scalar.denied)
    assert filt.table.state_digest() == scalar.table.state_digest()
    assert filt.table.counters() == scalar.table.counters()
    assert filt.table.grow_causes == scalar.table.grow_causes


def test_fpr_grows_stay_vectorized_below_the_ceiling(monkeypatch):
    """A script whose FPR trigger fires several times: below the ceiling
    every piece is replayed vectorized; with the ceiling one doubling
    away, the replay falls back to the scalar interleave."""
    events = [(0.3, i % 3 != 2, i % 24) for i in range(120)]
    script = script_to_packets(events)
    packets = PacketArray.from_packets(script)
    config = FilterConfig(order=4, num_vectors=4, num_hashes=1,
                          rotation_interval=5.0)
    scalar_calls = []
    original = HybridVerifiedFilter._verify_exact_scalar

    def counting(self, *args):
        scalar_calls.append(len(args[-1]))
        return original(self, *args)

    monkeypatch.setattr(HybridVerifiedFilter, "_verify_exact_scalar",
                        counting)
    for max_order, fallback in ((12, False), (3, True)):
        spec = VerifySpec(initial_order=2, max_order=max_order, lifetime=0.5,
                          resize_fpr=0.2, fpr_window=2)
        want, scalar, closes = scalar_run(config, spec, script)
        assert scalar.table.grow_causes["fpr"] >= 1 and len(closes) >= 4
        scalar_calls.clear()
        filt = HybridVerifiedFilter(BitmapFilter(config, PROTECTED), spec)
        assert np.array_equal(filt.process_batch(packets, exact=True), want)
        assert filt.table.state_digest() == scalar.table.state_digest()
        assert filt.table.grow_causes == scalar.table.grow_causes
        assert bool(scalar_calls) is fallback
