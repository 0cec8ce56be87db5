"""Wire throughput of the online serving daemon (``repro serve``).

Boots a real daemon subprocess (wall clock, HTTP metrics on), replays a
generated client trace through the framing protocol with windowed
pipelining, and measures sustained packets/second *from the daemon's own
``/metrics`` counters* — the difference in ``repro_serve_packets_total``
across the replay divided by the wall time.  That proves the counters are
trustworthy at load (they must equal the packets streamed) and that the
full online path — framing, micro-batching, filtering, verdict delivery —
sustains at least :data:`TARGET_PPS`.

Run with ``pytest benchmarks/test_serve_throughput.py -s`` to see the
table.  Not part of tier-1 (benchmarks/ is outside ``testpaths``).
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

#: Sustained-throughput floor (packets/second, measured end-to-end
#: through the framing protocol on one core — see EXPERIMENTS.md for the
#: measured values this floor is derated from).
TARGET_PPS = 100_000
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


def _boot_daemon(protected: str):
    cmd = [sys.executable, "-m", "repro", "serve",
           "--protected", protected, "--port", "0", "--http-port", "0",
           "--clock", "wall", "--dt", "5.0"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=env, text=True,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    line = proc.stdout.readline()
    assert line.startswith("REPRO-SERVE READY "), line
    return proc, json.loads(line.split("READY ", 1)[1])


def test_serve_sustains_target_throughput(capsys):
    trace = generate_client_trace(duration=30.0, target_pps=1500.0, seed=11)
    packets = trace.packets
    frames = [packets[i:i + FRAME_PACKETS]
              for i in range(0, len(packets), FRAME_PACKETS)]
    repeats = max(1, -(-MIN_PACKETS // len(packets)))  # ceil division
    protected = ",".join(str(net) for net in trace.protected.networks)

    proc, info = _boot_daemon(protected)
    try:
        host, port = info["data"]
        metrics_url = "http://{}:{}/metrics".format(*info["http"])
        client = FilterClient.connect(host, port)

        before = _scrape_counter(metrics_url, "repro_serve_packets_total")
        began = time.perf_counter()
        verdict_count = 0
        for _ in range(repeats):
            # Wall clock re-stamps arrival times, so replaying the same
            # trace repeatedly stays monotonic for the filter.
            for mask in client.filter_stream(frames, window=WINDOW):
                verdict_count += len(mask)
        elapsed = time.perf_counter() - began
        after = _scrape_counter(metrics_url, "repro_serve_packets_total")
        client.goodbye()
        client.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        proc.stdout.close()

    streamed = repeats * len(packets)
    counted = int(after - before)
    pps = counted / elapsed
    with capsys.disabled():
        print("\nonline serving throughput (live /metrics counters)")
        print(f"  packets streamed   {streamed:>12,}")
        print(f"  packets counted    {counted:>12,}")
        print(f"  verdicts received  {verdict_count:>12,}")
        print(f"  wall time          {elapsed:>12.3f} s")
        print(f"  throughput         {pps:>12,.0f} packets/s "
              f"(target >= {TARGET_PPS:,})")

    assert code == 0
    assert counted == streamed == verdict_count
    assert pps >= TARGET_PPS, (
        f"daemon sustained {pps:,.0f} packets/s < {TARGET_PPS:,}")
