"""Exact batch verification, cut into replay pieces, against the scalar loop.

``HybridVerifiedFilter.process_batch(exact=True)`` replays each batch's
active operations (inserts and lookups) vectorized in pieces of
``_PIECE_OPS``, each piece reading the table as the previous one left it.
The tests shrink the piece to 1-32 operations, so cuts land between every
kind of operation: two inserts, two lookups, an insert and a lookup, and
around the inserts that purge or grow the table.  Tiny bitmaps (many
false admits) and short table lifetimes (many denials) keep the lookups
busy.  Wherever the trace and the replay are cut, the batch path must
match the loop in verdicts, counts, the table bytes, its counters and its
grow causes.  With ``max_order`` one or two doublings away and kicks that
fail at low load, the table reaches its ceiling mid-batch (through
utilization or kick pressure), where an insert may overwrite a live
entry; the replay must switch to the scalar interleave right there.
"""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import hybrid
from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.filter_api import Decision
from repro.core.hybrid import HybridVerifiedFilter, VerifySpec
from repro.net.packet import PacketArray
from tests.strategies import PROTECTED, script_to_packets, traffic_scripts

pieces = st.integers(1, 32)


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
    )
    return config, spec


def scalar_run(config, spec, packets):
    """The reference loop: verdicts and the filter."""
    filt = HybridVerifiedFilter(BitmapFilter(config, PROTECTED), spec)
    verdicts = [filt.process(pkt) is Decision.PASS for pkt in packets]
    return np.array(verdicts), filt


def batch_run(config, spec, packets, cuts, piece):
    """The batch path over ``packets`` cut at ``cuts``, replayed in pieces
    of ``piece`` active operations."""
    filt = HybridVerifiedFilter(BitmapFilter(config, PROTECTED), spec)
    with mock.patch.object(hybrid, "_PIECE_OPS", piece):
        got = np.concatenate([
            filt.process_batch(PacketArray.from_packets(packets[a:b]),
                               exact=True)
            for a, b in zip(cuts, cuts[1:])])
    return got, filt


@given(stack=stacks(),
       events=traffic_scripts(max_events=150, max_gap=1.5, num_flows=24),
       piece=pieces, data=st.data())
@settings(max_examples=150, deadline=None)
def test_exact_batch_matches_scalar_across_replay_pieces(stack, events,
                                                         piece, data):
    config, spec = stack
    packets = script_to_packets(events)
    want, scalar = scalar_run(config, spec, packets)
    anywhere = data.draw(st.lists(st.integers(1, len(packets)), max_size=6))
    cuts = sorted({0, len(packets)} | set(anywhere))
    got, filt = batch_run(config, spec, packets, cuts, piece)
    assert np.array_equal(got, want)
    assert (filt.confirmed, filt.denied) == (scalar.confirmed, scalar.denied)
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
        max_kick_nodes=2)
    return config, spec


@given(stack=jammed_stacks(),
       events=traffic_scripts(max_events=300, max_gap=0.3, num_flows=60),
       piece=pieces)
@settings(max_examples=100, deadline=None)
def test_exact_batch_matches_scalar_when_kicks_reach_the_ceiling(stack,
                                                                 events,
                                                                 piece):
    config, spec = stack
    packets = script_to_packets(events)
    want, scalar = scalar_run(config, spec, packets)
    got, filt = batch_run(config, spec, packets, [0, len(packets)], piece)
    assert np.array_equal(got, want)
    assert (filt.confirmed, filt.denied) == (scalar.confirmed, scalar.denied)
    assert filt.table.state_digest() == scalar.table.state_digest()
    assert filt.table.counters() == scalar.table.counters()
    assert filt.table.grow_causes == scalar.table.grow_causes


def test_grows_stay_vectorized_below_the_ceiling(monkeypatch):
    """A script whose table grows while it is replayed in many pieces:
    below the ceiling every piece is replayed vectorized; with the ceiling
    one doubling away, the replay falls back to the scalar interleave."""
    events = [(0.3, i % 3 != 2, i % 24) for i in range(120)]
    script = script_to_packets(events)
    config = FilterConfig(order=4, num_vectors=4, num_hashes=1,
                          rotation_interval=5.0)
    vector_calls, scalar_calls = [], []
    vector, scalar_replay = (HybridVerifiedFilter._verify_exact_vec,
                             HybridVerifiedFilter._verify_exact_scalar)

    def counting_vector(self, *args):
        vector_calls.append(len(args[0]))
        return vector(self, *args)

    def counting_scalar(self, *args):
        scalar_calls.append(len(args[-1]))
        return scalar_replay(self, *args)

    monkeypatch.setattr(HybridVerifiedFilter, "_verify_exact_vec",
                        counting_vector)
    monkeypatch.setattr(HybridVerifiedFilter, "_verify_exact_scalar",
                        counting_scalar)
    for max_order, fallback in ((12, False), (3, True)):
        spec = VerifySpec(initial_order=2, max_order=max_order,
                          lifetime=50.0)
        want, scalar = scalar_run(config, spec, script)
        assert scalar.table.grows >= 1
        vector_calls.clear()
        scalar_calls.clear()
        got, filt = batch_run(config, spec, script, [0, len(script)], 8)
        assert np.array_equal(got, want)
        assert filt.table.state_digest() == scalar.table.state_digest()
        assert filt.table.grow_causes == scalar.table.grow_causes
        assert bool(scalar_calls) is fallback
        if not fallback:
            assert len(vector_calls) >= 4 and max(vector_calls) <= 8
