"""Serve-path cost of the hybrid exact-verification tier.

Boots two real ``repro serve`` daemons — one plain bitmap, one
``--filter hybrid`` — replays the same generated
client trace through the framing protocol, and measures each daemon's
sustained packets/second from its own ``/metrics`` counters (the
``test_serve_throughput`` idiom).  The gate is relative, not absolute:
the verification tier touches the cuckoo table only for outgoing inserts
and confirmed admits, so the hybrid daemon must sustain at least
``MIN_RELATIVE_PPS`` of the plain daemon's throughput on the identical
workload.  The hybrid daemon must also prove the tier actually engaged —
``repro_hybrid_confirmed_total`` > 0 — so the floor can never pass by
silently serving a bare bitmap.

Run with ``pytest benchmarks/test_hybrid_overhead.py -s``.  Not part of
tier-1 (benchmarks/ is outside ``testpaths``).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.serve.client import FilterClient
from repro.telemetry.exporters import parse_prometheus
from repro.traffic.generator import generate_client_trace

#: The hybrid daemon must sustain at least this fraction of the plain
#: bitmap daemon's throughput on the same trace.
MIN_RELATIVE_PPS = 0.5
MIN_PACKETS = 100_000     # stream at least this many for a stable figure
FRAME_PACKETS = 2000
WINDOW = 16

REPO_ROOT = Path(__file__).resolve().parents[1]


def _scrape_counter(url: str, name: str) -> float:
    text = urllib.request.urlopen(url, timeout=10.0).read().decode()
    for sample in parse_prometheus(text):
        if sample.name == name and not sample.labels:
            return sample.value
    raise AssertionError(f"{name} not found in {url}")


def _boot_daemon(protected: str, extra_args: list):
    cmd = [sys.executable, "-m", "repro", "serve",
           "--protected", protected, "--port", "0", "--http-port", "0",
           "--clock", "wall", "--dt", "5.0", *extra_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=env, text=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    line = proc.stdout.readline()
    assert line.startswith("REPRO-SERVE READY "), line
    return proc, json.loads(line.split("READY ", 1)[1])


def _measure_daemon(protected, frames, repeats, extra_args):
    """Replay the frames; return (pps, confirmed_total or None)."""
    proc, info = _boot_daemon(protected, extra_args)
    confirmed = None
    try:
        host, port = info["data"]
        metrics_url = "http://{}:{}/metrics".format(*info["http"])
        client = FilterClient.connect(host, port)

        before = _scrape_counter(metrics_url, "repro_serve_packets_total")
        began = time.perf_counter()
        for _ in range(repeats):
            # Wall clock re-stamps arrival times, so replaying the same
            # trace repeatedly stays monotonic for the filter.
            for _mask in client.filter_stream(frames, window=WINDOW):
                pass
        elapsed = time.perf_counter() - began
        after = _scrape_counter(metrics_url, "repro_serve_packets_total")
        if "hybrid" in extra_args:
            confirmed = _scrape_counter(metrics_url,
                                        "repro_hybrid_confirmed_total")
        client.goodbye()
        client.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        proc.stdout.close()

    counted = int(after - before)
    streamed = repeats * sum(len(f) for f in frames)
    assert code == 0
    assert counted == streamed
    return counted / elapsed, confirmed


def test_hybrid_daemon_holds_relative_floor(capsys):
    trace = generate_client_trace(duration=30.0, target_pps=1500.0, seed=11)
    packets = trace.packets
    frames = [packets[i:i + FRAME_PACKETS]
              for i in range(0, len(packets), FRAME_PACKETS)]
    repeats = max(1, -(-MIN_PACKETS // len(packets)))  # ceil division
    protected = ",".join(str(net) for net in trace.protected.networks)

    bitmap_pps, _ = _measure_daemon(protected, frames, repeats, [])
    hybrid_pps, confirmed = _measure_daemon(
        protected, frames, repeats, ["--filter", "hybrid"])

    ratio = hybrid_pps / bitmap_pps
    with capsys.disabled():
        print("\nhybrid verification tier — serve-path overhead")
        print(f"  packets streamed   {repeats * len(packets):>12,}")
        print(f"  bitmap daemon      {bitmap_pps:>12,.0f} packets/s")
        print(f"  hybrid daemon      {hybrid_pps:>12,.0f} packets/s")
        print(f"  admits confirmed   {int(confirmed):>12,}")
        print(f"  relative           {ratio:>12.2f}x "
              f"(floor >= {MIN_RELATIVE_PPS:.2f}x)")

    assert confirmed > 0, "verification tier never engaged"
    assert ratio >= MIN_RELATIVE_PPS, (
        f"hybrid daemon sustained {hybrid_pps:,.0f} packets/s — only "
        f"{ratio:.2f}x of the bitmap daemon's {bitmap_pps:,.0f}")
