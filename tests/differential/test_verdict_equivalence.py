"""Differential proof, part 1: fault-free verdict and state agreement.

A filter's work spread over several instances must return the exact
verdict vector the single filter returns — same trace, same config — for
every spread, every instance count, on both the exact and the windowed
batch path, on the scalar path, and when the two entry points are mixed.
``backend`` arguments sweep automatically over every spread (see
conftest).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.bitmap_filter import FilterConfig
from repro.net.packet import Packet, PacketArray, TcpFlags
from repro.net.protocols import IPPROTO_TCP
from tests.differential.conftest import (
    WORKER_COUNTS,
    assert_same_filter_state,
    feed_batch,
    feed_scalar,
    make_serial,
    spread_replay,
)
from tests.strategies import (
    PROTECTED,
    mixed_direction_packets,
    rotation_straddling_arrays,
    script_to_packets,
    traffic_scripts,
)

pytestmark = pytest.mark.differential

#: Geometry matching the shared strategies' defaults (5 s rotations).
HYP_CONFIG = FilterConfig(order=10, num_vectors=4, num_hashes=3,
                          rotation_interval=5.0)


@pytest.mark.parametrize("num_workers", WORKER_COUNTS)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "windowed"])
def test_full_trace_verdicts_and_state(trace, backend, num_workers, exact):
    packets = trace.packets
    serial = make_serial(trace.protected, backend)
    expected = serial.process_batch(packets, exact=exact)
    spread = spread_replay(backend, trace.protected, num_workers, packets,
                           feed_batch(packets, exact=exact))
    assert np.array_equal(spread.verdicts, expected)
    assert_same_filter_state(serial, spread)


@pytest.mark.parametrize("num_workers", (2, 3))
def test_scalar_path_agrees(trace, backend, num_workers):
    packets = trace.packets[:400]
    serial = make_serial(trace.protected, backend)
    expected = feed_scalar(packets)(serial, np.arange(len(packets)))
    spread = spread_replay(backend, trace.protected, num_workers, packets,
                           feed_scalar(packets))
    assert np.array_equal(spread.verdicts, expected)
    assert_same_filter_state(serial, spread)


def test_batch_after_scalar_interleaving(trace, backend):
    """Mixing the scalar and batch entry points must not diverge."""
    packets = trace.packets[:900]
    split = 300
    scalar, batch = feed_scalar(packets), feed_batch(packets)

    def feed(filt, rows):
        head, tail = rows[rows < split], rows[rows >= split]
        return np.concatenate([scalar(filt, head), batch(filt, tail)])

    serial = make_serial(trace.protected, backend)
    expected = feed(serial, np.arange(len(packets)))
    spread = spread_replay(backend, trace.protected, 2, packets, feed)
    assert np.array_equal(spread.verdicts, expected)
    assert_same_filter_state(serial, spread)


def test_parallel_windowed_equals_serial_windowed(trace, backend):
    """exact=False is an approximation of exact, but the spread must make
    the *same* approximation as the single filter, verified on a batch
    where the approximation provably diverges (replies arriving just
    before their own outgoing mark inside one rotation window, which the
    windowed path admits and the exact path drops).  The verification
    tier confirms in packet order and denies those, so the batch also
    holds replies whose bitmap mark has expired but whose table entry
    has not, each just before its flow's next outgoing packet in the same
    window: only the windowed path admits them, with or without the
    tier."""
    protected = trace.protected
    packets = []
    for flow in range(24):
        client = protected.networks[flow % 2].host(30 + flow)
        server = 0x0A000100 + flow
        sport = 40_000 + flow
        t0 = 0.3 + 0.9 * flow  # spreads flows across rotation windows
        packets.append(Packet(t0, IPPROTO_TCP, server, 80, client, sport,
                              TcpFlags.ACK))          # reply before the mark
        packets.append(Packet(t0 + 0.05, IPPROTO_TCP, client, sport,
                              server, 80, TcpFlags.ACK))  # the mark
        packets.append(Packet(t0 + 0.10, IPPROTO_TCP, server, 80, client,
                              sport, TcpFlags.ACK))   # reply after the mark
    for flow in range(4):
        client = protected.networks[flow % 2].host(60 + flow)
        server = 0x0A000200 + flow
        sport = 41_000 + flow
        t0 = 1.9 + 2.0 * flow  # late in a rotation window
        packets.append(Packet(t0, IPPROTO_TCP, client, sport, server, 80,
                              TcpFlags.ACK))          # the first mark
        packets.append(Packet(t0 + 6.2, IPPROTO_TCP, server, 80, client,
                              sport, TcpFlags.ACK))   # bitmap mark expired
        packets.append(Packet(t0 + 6.25, IPPROTO_TCP, client, sport,
                              server, 80, TcpFlags.ACK))  # the next mark
    packets.sort(key=lambda pkt: pkt.ts)
    batch = PacketArray.from_packets(packets)

    serial = make_serial(protected, backend)
    serial_windowed = serial.process_batch(batch, exact=False)
    serial_exact = make_serial(protected, backend).process_batch(
        batch, exact=True)
    assert not np.array_equal(serial_windowed, serial_exact), \
        "batch too tame: windowed path never diverged, weak test"
    spread = spread_replay(backend, protected, 4, batch,
                           feed_batch(batch, exact=False))
    assert np.array_equal(spread.verdicts, serial_windowed)
    assert_same_filter_state(serial, spread)


@given(script=mixed_direction_packets())
@settings(max_examples=25, deadline=None)
def test_property_mixed_direction_batches(backend, script):
    batch = PacketArray.from_packets(script)
    serial = make_serial(PROTECTED, backend, config=HYP_CONFIG)
    expected = serial.process_batch(batch)
    spread = spread_replay(backend, PROTECTED, 2, batch, feed_batch(batch),
                           config=HYP_CONFIG)
    assert np.array_equal(spread.verdicts, expected)
    assert_same_filter_state(serial, spread)


@given(events=traffic_scripts())
@settings(max_examples=25, deadline=None)
def test_property_scalar_scripts(backend, events):
    packets = PacketArray.from_packets(script_to_packets(events))
    serial = make_serial(PROTECTED, backend, config=HYP_CONFIG)
    expected = feed_scalar(packets)(serial, np.arange(len(packets)))
    spread = spread_replay(backend, PROTECTED, 3, packets,
                           feed_scalar(packets), config=HYP_CONFIG)
    assert np.array_equal(spread.verdicts, expected)
    assert_same_filter_state(serial, spread)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "windowed"])
@given(batch=rotation_straddling_arrays(
    rotation_interval=HYP_CONFIG.rotation_interval))
@settings(max_examples=25, deadline=None)
def test_property_rotation_boundary_clusters(backend, exact, batch):
    """Timestamps landing just before / on / just after rotation
    boundaries: the adversarial shape for lockstep-rotation bugs."""
    serial = make_serial(PROTECTED, backend, config=HYP_CONFIG)
    expected = serial.process_batch(batch, exact=exact)
    spread = spread_replay(backend, PROTECTED, 2, batch,
                           feed_batch(batch, exact=exact), config=HYP_CONFIG)
    assert np.array_equal(spread.verdicts, expected)
    assert_same_filter_state(serial, spread)
