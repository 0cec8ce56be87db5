"""Span arithmetic and wrapper install/restore of harness.tracer."""

import numpy as np

from harness import tracer as tracing
from harness.tracer import Span, Tracer, self_times


def span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_children():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0), span(2, 5.0, 9.0, 0),
             span(3, 6.0, 7.0, 2)]
    own = self_times(spans)
    assert own[0] == 10.0 - 2.0 - 4.0
    assert own[1] == 2.0
    assert own[2] == 4.0 - 1.0
    assert own[3] == 1.0


def test_tracer_nests_spans_and_totals_self_time():
    tracer = Tracer()
    tracer.batch = 7
    with tracer.span("outer", keys=5):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert outer.batch == inner.batch == 7
    assert tracer.keys("outer") == 5 and tracer.calls("inner") == 1
    assert abs(tracer.self_total("outer")
               - (outer.duration - inner.duration)) < 1e-12


def _targets():
    from repro.core import bitmap, bitmap_filter, cuckoo, hashing, hybrid
    from repro.net import packet
    from repro.serve import protocol
    from repro.sim import metrics, pipeline

    return [
        (packet.PacketArray, "directions"), (packet.PacketArray, "concatenate"),
        (hashing.HashFamily, "indices_vec"), (bitmap.Bitmap, "mark"),
        (bitmap.Bitmap, "test_current"), (bitmap.Bitmap, "mark_vec"),
        (bitmap.Bitmap, "test_current_vec"), (bitmap.Bitmap, "rotate"),
        (bitmap_filter.BitmapFilter, "process_batch"),
        (cuckoo.CuckooFlowTable, "insert"), (cuckoo.CuckooFlowTable, "contains"),
        (cuckoo.CuckooFlowTable, "insert_batch"),
        (cuckoo.CuckooFlowTable, "contains_batch"),
        (hybrid.HybridVerifiedFilter, "process_batch"),
        (pipeline, "score_run"), (metrics, "score_run"),
        (pipeline, "run_filter_on_trace"), (protocol, "encode_packets"),
        (protocol, "decode_verdicts"),
    ]


def _raw(owner, attr):
    return vars(owner).get(attr)


def test_install_wraps_and_restore_puts_originals_back():
    before = {(o, a): _raw(o, a) for o, a in _targets()}
    assert None not in before.values()
    handle = tracing.install(Tracer())
    try:
        for (owner, attr), original in before.items():
            assert _raw(owner, attr) is not original, attr
    finally:
        handle.restore()
    for (owner, attr), original in before.items():
        assert _raw(owner, attr) is original, attr


def test_wrapped_calls_record_spans_and_counts():
    from repro.core.bitmap import Bitmap
    from repro.net.packet import PacketArray

    tracer = Tracer()
    bitmap = Bitmap(4, 8)
    with tracing.install(tracer):
        bitmap.mark([1, 2, 3])
        assert bitmap.test_current([1, 2, 3])
        assert not bitmap.test_current([4])
        hits = bitmap.test_current_vec(np.array([[1, 4]], dtype=np.uint64))
        merged = PacketArray.concatenate([PacketArray.empty(2),
                                          PacketArray.empty(3)])
    assert len(merged) == 5 and list(hits) == [True, False]
    assert tracer.counts["bitmap.mark.calls"] == 1
    assert tracer.counts["bitmap.test_current.calls"] == 2
    assert tracer.counts["bitmap.admits"] == 2   # one scalar, one vector
    assert tracer.keys("bitmap.test_current_vec") == 2
    assert tracer.calls("net.concatenate") == 1
    # Restored: further calls are not recorded.
    bitmap.mark([5])
    assert tracer.counts["bitmap.mark.calls"] == 1


def test_restore_runs_when_the_traced_code_raises():
    from repro.core.bitmap import Bitmap

    original = Bitmap.__dict__["rotate"]
    try:
        with tracing.install(Tracer()):
            raise KeyError("boom")
    except KeyError:
        pass
    assert Bitmap.__dict__["rotate"] is original


def test_missing_target_is_skipped_and_named():
    class Target:
        def work(self):
            return 1

    tracer = Tracer()
    handle = tracing.Installed()
    handle.replace(Target, "work", lambda fn: tracing.counted(tracer, "w", fn))
    handle.replace(Target, "gone", lambda fn: fn)
    assert Target().work() == 1 and tracer.counts["w"] == 1
    assert handle.missing == ["Target.gone"]
    handle.restore()
    assert Target().work() == 1 and tracer.counts["w"] == 1
