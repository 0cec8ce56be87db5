"""Property tests of the bitmap/oracle agreement and batch-path equivalence.

The central soundness property (DESIGN.md section 6): every genuine reply
that the naive exact filter passes *inside the bitmap's guaranteed window*
must also pass the bitmap filter — the bitmap errs only on the permissive
side (false negatives), never by dropping fresh legitimate replies.
"""

import numpy as np
from hypothesis import given, settings

from repro.core.bitmap_filter import BitmapFilter, Decision, FilterConfig
from repro.net.packet import PacketArray
from tests.strategies import (
    PROTECTED,
    script_to_packets as _script_to_packets,
    traffic_scripts,
)

CONFIG = FilterConfig(order=10, num_vectors=4, num_hashes=3,
                      rotation_interval=5.0)


class TestGuaranteedWindowSoundness:
    @given(events=traffic_scripts())
    @settings(max_examples=200, deadline=None)
    def test_fresh_replies_never_dropped(self, events):
        """An incoming packet whose flow sent an outgoing packet within the
        guaranteed window (k-1)*dt is always passed."""
        filt = BitmapFilter(CONFIG, PROTECTED)
        window = CONFIG.guaranteed_window
        last_outgoing = {}
        for pkt in _script_to_packets(events):
            outgoing = PROTECTED.contains_int(pkt.src)
            verdict = filt.process(pkt)
            if outgoing:
                last_outgoing[(pkt.src, pkt.sport, pkt.dst)] = pkt.ts
            else:
                key = (pkt.dst, pkt.dport, pkt.src)
                t0 = last_outgoing.get(key)
                if t0 is not None and pkt.ts - t0 < window:
                    assert verdict is Decision.PASS


class TestBatchEquivalence:
    @given(events=traffic_scripts())
    @settings(max_examples=150, deadline=None)
    def test_exact_batch_equals_scalar(self, events):
        packets = _script_to_packets(events)
        scalar = BitmapFilter(CONFIG, PROTECTED)
        expected = [scalar.process(p) is Decision.PASS for p in packets]
        batch = BitmapFilter(CONFIG, PROTECTED)
        verdicts = batch.process_batch(PacketArray.from_packets(packets), exact=True)
        assert verdicts.tolist() == expected

    @given(events=traffic_scripts())
    @settings(max_examples=150, deadline=None)
    def test_windowed_is_superset_of_exact(self, events):
        """The windowed approximation only ever passes *more*."""
        packets = PacketArray.from_packets(_script_to_packets(events))
        exact = BitmapFilter(CONFIG, PROTECTED).process_batch(packets, exact=True)
        windowed = BitmapFilter(CONFIG, PROTECTED).process_batch(packets, exact=False)
        assert bool(np.all(windowed >= exact))


class TestOracleAgreement:
    @given(events=traffic_scripts())
    @settings(max_examples=100, deadline=None)
    def test_bitmap_superset_of_paper_naive_oracle(self, events):
        """Section 3.3's naive solution with T = the guaranteed window:
        whatever it passes, the bitmap passes too (the bitmap may add false
        negatives, never extra false positives inside the window).

        The paper's naive filter associates the timer with *outgoing*
        tuples only ("a timer ... is associated with the address tuple
        τ_out of each outgoing packet"), so the oracle here refreshes only
        on outgoing packets.
        """
        packets = _script_to_packets(events)
        bitmap = BitmapFilter(CONFIG, PROTECTED)
        window = CONFIG.guaranteed_window
        table = {}
        for pkt in packets:
            bitmap_verdict = bitmap.process(pkt)
            if PROTECTED.contains_int(pkt.src):
                table[(pkt.proto, pkt.src, pkt.sport, pkt.dst, pkt.dport)] = pkt.ts
            else:
                t0 = table.get((pkt.proto, pkt.dst, pkt.dport, pkt.src, pkt.sport))
                oracle_passes = t0 is not None and pkt.ts - t0 < window
                if oracle_passes:
                    assert bitmap_verdict is Decision.PASS
