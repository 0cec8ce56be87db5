"""Per-layer metrics derived from one traced run's spans and counters.

Every name here is listed, with its unit and the end-to-end metric it
should move, in ``perfbench/README.md``.  A layer a workload never reaches
reads 0 (the README's "predicts no change").
"""

from __future__ import annotations

from typing import Dict

#: Per-layer metrics every workload's traced run reaches, so each traced
#: result line carries all of them (BENCHMARK.json ``per_layer``).
COMMON = {
    "net.directions.s": "s",
    "hashing.indices_vec.s": "s",
    "hashing.indices_vec.keys": "count",
    "bitmap.mark.calls": "count",
    "bitmap.test_current.calls": "count",
    "bitmap.scalar_share": "ratio",
    "bitmap.rotate.count": "count",
    "bitmap.rotate.s": "s",
    "bitmap.admit_ratio": "ratio",
    "bitmap_filter.process_batch.s": "s",
    "bitmap_filter.process_batch.self_s": "s",
    "tracing.overhead": "ratio",
}

#: Per-layer metrics of layers only some workloads reach; written to the
#: traced run's report file and printed, but not part of the result line.
WORKLOAD_SPECIFIC = {
    "net.concatenate.s": "s",
    "bitmap.mark_vec.s": "s",
    "bitmap.test_current_vec.s": "s",
    "cuckoo.insert.calls": "count",
    "cuckoo.contains.calls": "count",
    "cuckoo.insert_batch.s": "s",
    "cuckoo.contains_batch.s": "s",
    "cuckoo.kicks": "count",
    "cuckoo.grows": "count",
    "cuckoo.hit_ratio": "ratio",
    "cuckoo.memory_bytes": "bytes",
    "hybrid.process_batch.self_s": "s",
    "hybrid.denied": "count",
    "metrics.score_run.s": "s",
    "pipeline.run_filter_on_trace.s": "s",
    "client.encode_packets.s": "s",
    "client.decode_verdicts.s": "s",
    "client.recv_wait.s": "s",
    "client.bytes_sent": "bytes",
    "daemon.batch_seconds.sum": "s",
    "daemon.batches": "count",
    "daemon.batch_packets.mean": "packets",
    "daemon.filter_share": "ratio",
    "daemon.shed_frames": "count",
    "replay.decode_packets.s": "s",
    "replay.concatenate.s": "s",
    "replay.process_batch.s": "s",
    "replay.encode_verdicts.s": "s",
    "serve.unattributed_s": "s",
}

UNITS = {**COMMON, **WORKLOAD_SPECIFIC}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def filter_layers(tracer, filt) -> Dict[str, float]:
    """Layer metrics of the filter stack (net, hashing, bitmap, cuckoo,
    hybrid) from one traced stretch of work."""
    counts = tracer.counts
    marks = counts.get("bitmap.mark.calls", 0)
    tests = counts.get("bitmap.test_current.calls", 0)
    packets = tracer.keys("bitmap_filter.process_batch")
    lookups = tests + tracer.keys("bitmap.test_current_vec")
    out = {
        "net.directions.s": tracer.total("net.directions"),
        "net.concatenate.s": tracer.total("net.concatenate"),
        "hashing.indices_vec.s": tracer.total("hashing.indices_vec"),
        "hashing.indices_vec.keys": tracer.keys("hashing.indices_vec"),
        "bitmap.mark.calls": marks,
        "bitmap.test_current.calls": tests,
        "bitmap.scalar_share": _ratio(marks + tests, packets),
        "bitmap.mark_vec.s": tracer.total("bitmap.mark_vec"),
        "bitmap.test_current_vec.s": tracer.total("bitmap.test_current_vec"),
        "bitmap.rotate.count": tracer.calls("bitmap.rotate"),
        "bitmap.rotate.s": tracer.total("bitmap.rotate"),
        "bitmap.admit_ratio": _ratio(counts.get("bitmap.admits", 0), lookups),
        "bitmap_filter.process_batch.s":
            tracer.total("bitmap_filter.process_batch"),
        "bitmap_filter.process_batch.self_s":
            tracer.self_total("bitmap_filter.process_batch"),
        "cuckoo.insert.calls": counts.get("cuckoo.insert.calls", 0),
        "cuckoo.contains.calls": counts.get("cuckoo.contains.calls", 0),
        "cuckoo.insert_batch.s": tracer.total("cuckoo.insert_batch"),
        "cuckoo.contains_batch.s": tracer.total("cuckoo.contains_batch"),
        "hybrid.process_batch.self_s":
            tracer.self_total("hybrid.process_batch"),
        "cuckoo.kicks": 0, "cuckoo.grows": 0, "cuckoo.hit_ratio": 0.0,
        "cuckoo.memory_bytes": 0, "hybrid.denied": 0,
    }
    table = getattr(filt, "table", None)
    if table is not None:
        c = table.counters()
        out.update({
            "cuckoo.kicks": c["kicks"],
            "cuckoo.grows": c["grows"],
            "cuckoo.hit_ratio": _ratio(c["hits"], c["lookups"]),
            "cuckoo.memory_bytes": table.memory_bytes,
            "hybrid.denied": filt.denied,
        })
    return out


def offline_layers(tracer, filt, *, traced_pps: float,
                   untraced_pps: float) -> Dict[str, float]:
    out = filter_layers(tracer, filt)
    out.update({
        "metrics.score_run.s": tracer.total("metrics.score_run"),
        "pipeline.run_filter_on_trace.s":
            tracer.total("pipeline.run_filter_on_trace"),
        "tracing.overhead": traced_pps / untraced_pps,
    })
    for name in UNITS:
        out.setdefault(name, 0)
    return out
