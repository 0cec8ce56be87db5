"""Algorithm 2's rotation timer and the filter's packet clock agree.

A router runs Algorithm 2 on a timer: every Δt the bitmap rotates, and a
timer due at a packet's own timestamp fires before that packet.  The
filter keeps no timer: ``process()`` and the batch kernel first run every
rotation the packet's timestamp has reached (``advance_to``).  These
properties fire the timer explicitly — ``advance_to(b)`` for every
boundary ``b <= ts`` before each ``process()`` — and check that it gives
the verdicts, stats and bitmap bytes of plain ``process()`` and of
``process_batch(exact=True)``.  The scripts land packets exactly on
boundaries, and the filter may go down between two packets (and come
back later).  The timer keeps firing while the filter is down, and a down
filter's ``advance_to`` runs nothing: its schedule is frozen, and
``recover()`` catches the missed boundaries up.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.bitmap_filter import BitmapFilter, Decision, FilterConfig
from repro.net.packet import PacketArray
from tests.strategies import (
    PROTECTED,
    rotation_straddling_arrays,
    script_to_packets,
    traffic_scripts,
)

#: Every traffic shape here assumes a 5 s rotation interval.
INTERVAL = 5.0


@st.composite
def configs(draw):
    return FilterConfig(
        order=draw(st.integers(4, 8)),
        num_vectors=draw(st.integers(2, 4)),
        num_hashes=draw(st.integers(1, 3)),
        rotation_interval=INTERVAL,
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def packet_arrays(draw):
    """Random scripts, or timestamps packed on rotation boundaries."""
    if draw(st.booleans()):
        events = draw(traffic_scripts(max_events=60, num_flows=12))
        return PacketArray.from_packets(script_to_packets(events))
    return draw(rotation_straddling_arrays(rotation_interval=INTERVAL))


@st.composite
def outages(draw, n):
    """``None``, or ``(down, up)``: the filter fails right after packet
    ``down - 1`` and recovers at packet ``up``'s timestamp, just before it
    (never, when ``up == n``)."""
    if n < 2 or draw(st.booleans()):
        return None
    down = draw(st.integers(1, n - 1))
    return down, draw(st.integers(down, n))


def _act(filt, packets, i, outage):
    """Apply the outage's action due before packet ``i``."""
    if outage is None:
        return
    down, up = outage
    if i == down:
        filt.fail()
    if i == up:
        filt.recover(float(packets.ts[i]))


def timer_driven(config, packets, outage):
    """Scalar loop with an explicit rotation timer, first on ties."""
    filt = BitmapFilter(config, PROTECTED)
    boundary = filt.next_rotation
    verdicts = []
    for i, pkt in enumerate(packets.to_packets()):
        _act(filt, packets, i, outage)
        while boundary <= pkt.ts:
            filt.advance_to(boundary)
            boundary += INTERVAL
        verdicts.append(filt.process(pkt) is Decision.PASS)
    return verdicts, filt


def packet_clocked(config, packets, outage):
    """Plain scalar loop: ``process()`` advances the clock itself."""
    filt = BitmapFilter(config, PROTECTED)
    verdicts = []
    for i, pkt in enumerate(packets.to_packets()):
        _act(filt, packets, i, outage)
        verdicts.append(filt.process(pkt) is Decision.PASS)
    return verdicts, filt


def batch_clocked(config, packets, outage):
    """The exact batch kernel, cut where the outage acts."""
    filt = BitmapFilter(config, PROTECTED)
    n = len(packets)
    cuts = sorted({0, n, *(outage or ())})
    verdicts = []
    for start, end in zip(cuts, cuts[1:]):
        _act(filt, packets, start, outage)
        verdicts += filt.process_batch(packets[start:end],
                                       exact=True).tolist()
    return verdicts, filt


def _state(filt):
    bitmap = filt.bitmap
    return {
        "stats": filt.stats.as_dict(),
        "vectors": [bytes(vec.as_numpy()) for vec in bitmap.vectors],
        "current_index": bitmap.current_index,
        "next_rotation": filt.next_rotation,
        "is_down": filt.is_down,
        "warmup_until": filt.warmup_until,
    }


@st.composite
def cases(draw):
    packets = draw(packet_arrays())
    return draw(configs()), packets, draw(outages(len(packets)))


@given(case=cases())
@settings(max_examples=200, deadline=None)
def test_timer_driven_rotation_equals_the_packet_clock(case):
    config, packets, outage = case
    want, reference = timer_driven(config, packets, outage)
    for run in (packet_clocked, batch_clocked):
        got, filt = run(config, packets, outage)
        assert got == want, run.__name__
        assert _state(filt) == _state(reference), run.__name__


def test_outage_lands_between_the_same_two_packets():
    """A fault that takes the filter down mid-trace lands between the same
    two packets on every path, and it changes verdicts, so the split point
    is observable."""
    config = FilterConfig(order=10, num_vectors=4, num_hashes=3,
                          rotation_interval=INTERVAL)
    events = [(0.16, i % 3 != 1, (i // 3) % 4) for i in range(160)]
    packets = PacketArray.from_packets(script_to_packets(events))
    outage = (len(packets) // 2, len(packets))
    want, reference = timer_driven(config, packets, outage)
    for run in (packet_clocked, batch_clocked):
        got, filt = run(config, packets, outage)
        assert got == want
        assert filt.stats.as_dict() == reference.stats.as_dict()
    assert reference.stats.rotations > 0
    assert not np.array_equal(want, timer_driven(config, packets, None)[0])
