#!/usr/bin/env python
"""End-to-end smoke test for the online serving daemon (CI: serve-smoke).

Boots ``repro serve`` on ephemeral ports (packet clock, so verdicts are
deterministic), replays a ~50k-packet generated trace through
``repro replay-to --verify`` (which asserts the daemon's verdicts are
byte-identical to an offline ``run_filter_on_trace``), scrapes
``/metrics`` to check the daemon counted every packet, then SIGTERMs and
requires a clean exit.  Exits non-zero with a diagnostic on any failure.

Usage: ``make serve-smoke`` or ``python scripts/serve_smoke.py``
(needs ``repro`` importable — installed or via ``PYTHONPATH=src``).
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path


def fail(message: str) -> "NoReturn":  # noqa: F821 - py<3.11 spelling
    print(f"serve-smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def scrape(url: str) -> str:
    return urllib.request.urlopen(url, timeout=10.0).read().decode()


def counter(text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    if match is None:
        fail(f"{name} missing from /metrics")
    return float(match.group(1))


def main() -> None:
    from repro.traffic.generator import generate_client_trace

    workdir = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    trace = generate_client_trace(duration=60.0, target_pps=800.0, seed=7)
    trace_path = workdir / "trace.npz"
    trace.save_npz(trace_path)
    protected = ",".join(str(net) for net in trace.protected.networks)
    print(f"serve-smoke: generated {len(trace.packets):,}-packet trace")

    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--protected", protected,
         "--port", "0", "--http-port", "0", "--clock", "packet"],
        text=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        ready = serve.stdout.readline()
        if not ready.startswith("REPRO-SERVE READY "):
            fail(f"daemon did not come up: {ready!r}{serve.stdout.read()}")
        info = json.loads(ready.split("READY ", 1)[1])
        host, port = info["data"]
        metrics_url = "http://{}:{}/metrics".format(*info["http"])
        print(f"serve-smoke: daemon ready on {host}:{port} "
              f"(clock={info['clock']})")

        replay = subprocess.run(
            [sys.executable, "-m", "repro", "replay-to", str(trace_path),
             "--host", host, "--port", str(port), "--verify"],
            text=True, capture_output=True)
        sys.stdout.write(replay.stdout)
        if replay.returncode != 0:
            fail(f"replay-to exited {replay.returncode}: {replay.stderr}")
        if "verify: OK" not in replay.stdout:
            fail("replay-to did not report online==offline verdict parity")

        metrics = scrape(metrics_url)
        counted = counter(metrics, "repro_serve_packets_total")
        if counted != len(trace.packets):
            fail(f"/metrics counted {counted:.0f} packets, "
                 f"streamed {len(trace.packets)}")
        health = json.loads(scrape(metrics_url.replace("/metrics",
                                                       "/healthz")))
        if health["status"] != "serving":
            fail(f"unexpected /healthz status {health['status']!r}")
        print(f"serve-smoke: /metrics counted {counted:,.0f} packets, "
              f"/healthz {health['status']}")
    finally:
        serve.send_signal(signal.SIGTERM)
        try:
            code = serve.wait(timeout=60)
        except subprocess.TimeoutExpired:
            serve.kill()
            fail("daemon did not exit within 60s of SIGTERM")
        serve.stdout.close()
    if code != 0:
        fail(f"daemon exited {code} after SIGTERM")
    print("serve-smoke: PASS — verdict parity, live metrics, clean exit")


if __name__ == "__main__":
    main()
