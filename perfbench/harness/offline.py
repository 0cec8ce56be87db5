"""The measured process of the offline workloads (one per run).

Loads the cached trace, builds the filter, prints ``READY`` (the parent
times spawn -> READY as set-up), then pushes the whole trace through
``run_filter_on_trace(exact=True)`` in passes until ``--seconds`` is used
up, checks the verdicts and prints one JSON line.  With ``--setup-only`` it
exits right after ``READY``.  With ``--trace 1`` it adds one traced pass
with the layer wrappers of :mod:`harness.tracer` installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time


def build(workload: str, scale, protected):
    """The filter stack a workload runs: serial bitmap, plus the exact
    verification tier for ``hybrid-insider``."""
    from repro.core.filter_api import build_filter
    from repro.core.hybrid import VerifySpec

    if workload == "hybrid-insider":
        return build_filter(
            scale.bitmap_config(), protected, backend="serial",
            layers=(VerifySpec(initial_order=10, resize_fpr=0.01),))
    return build_filter(scale.bitmap_config(), protected, backend="serial")


def peak_rss_mb(pid="self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def timed_passes(workload, scale, trace, first_filter, seconds):
    """Run passes until ``seconds`` is spent; a pass is never started when
    it would end more than 10% past the budget (the first always runs).

    Returns the pass times, the first pass's result and filter, the peak
    RSS after the first pass (so it does not depend on the pass count) and
    how many later passes disagreed with the first.
    """
    from repro.sim import pipeline

    times, filt, first, rss, mismatched = [], first_filter, None, 0.0, 0
    while True:
        began = time.perf_counter()
        result = pipeline.run_filter_on_trace(filt, trace, exact=True)
        times.append(time.perf_counter() - began)
        if first is None:
            first, first_filt, rss = result, filt, peak_rss_mb()
        else:
            mismatched += int((result.verdicts != first.verdicts).sum())
        spent = sum(times)
        if spent + spent / len(times) > seconds * 1.1:
            return times, first, first_filt, rss, mismatched
        filt = build(workload, scale, trace.protected)


def traced_pass(workload, scale, trace, spans_path):
    """One pass under the layer wrappers; returns (seconds, result, filter,
    tracer)."""
    from harness import tracer as tracing
    from repro.sim import pipeline

    filt = build(workload, scale, trace.protected)
    tracer = tracing.Tracer()
    tracer.batch = 0
    with tracing.install(tracer) as installed:
        began = time.perf_counter()
        result = pipeline.run_filter_on_trace(filt, trace, exact=True)
        elapsed = time.perf_counter() - began
    tracer.missing = installed.missing
    if spans_path:
        tracing.export(spans_path, layers=tracer)
    return elapsed, result, filt, tracer


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--scale", default="medium")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from harness import checks, inputs, layers

    scale = inputs.scale_for(args.scale, args.seed)
    trace = inputs.load(args.cache)
    filt = build(args.workload, scale, trace.protected)
    print("READY", flush=True)
    if args.setup_only:
        return

    gc.collect()
    gc.freeze()
    times, result, filt, rss, mismatched = timed_passes(
        args.workload, scale, trace, filt, args.seconds)
    n = len(trace)
    out = {
        "packets": n,
        "passes": times,
        "pps": n * len(times) / sum(times),
        "peak_rss_mb": rss,
    }
    failed, details = checks.check_offline(args.workload, scale, trace,
                                           result, filt)
    if mismatched:
        failed += mismatched
        details.append(f"{mismatched} verdicts differ between passes")
    if args.trace:
        elapsed, traced, traced_filt, tracer = traced_pass(
            args.workload, scale, trace, args.spans)
        mismatched = int((traced.verdicts != result.verdicts).sum())
        if mismatched:
            details.append(f"traced pass changed {mismatched} verdicts")
            failed += mismatched
        out["notes"] = [f"tracing: {name} is missing from the program"
                        for name in tracer.missing]
        out["layers"] = layers.offline_layers(
            tracer, traced_filt, traced_pps=n / elapsed,
            untraced_pps=out["pps"])
    out["failed"] = failed
    out["check"] = details
    out["verdict_sha256"] = checks.verdict_digest(result.verdicts)
    out["confusion"] = {k: v for k, v in result.confusion.as_dict().items()
                        if isinstance(v, int)}
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    sys.exit(main())
