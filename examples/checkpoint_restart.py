#!/usr/bin/env python3
"""Router restart without a warm-up gap — filter checkpointing.

A freshly started bitmap filter knows nothing: every inbound packet of
every in-flight connection is dropped until its client re-sends something
(up to Te seconds of breakage per flow).  Snapshotting the filter before a
restart and restoring afterwards makes the maintenance window invisible.

This example measures both restart strategies against the same traffic.

Run:  python examples/checkpoint_restart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.persistence import load_filter, save_filter
from repro.traffic.generator import generate_client_trace


def drop_rate_after(filt, packets, protected, start_ts, window=20.0):
    """Incoming drop rate inside the first Te-long window after start_ts —
    the period a cold filter spends re-learning the flow population."""
    tail = packets[(packets.ts >= start_ts) & (packets.ts < start_ts + window)]
    verdicts = filt.process_batch(tail, exact=True)
    incoming = tail.directions(protected) == 1
    return float((~verdicts[incoming]).mean())


def main() -> None:
    print("generating 90s of client traffic...")
    trace = generate_client_trace(duration=90.0, target_pps=400.0, seed=12)
    packets = trace.packets
    restart_at = 45.0
    first_half = packets[packets.ts < restart_at]

    config = FilterConfig(order=15, num_vectors=4, num_hashes=3,
                          rotation_interval=5.0)

    # Warm a filter on the first half of the day.
    filt = BitmapFilter(config, trace.protected)
    filt.process_batch(first_half, exact=True)
    print(f"filter warmed: utilization {filt.utilization():.4f}, "
          f"{filt.stats.outgoing} outgoing packets seen")

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "edge-router.bitmap.npz"
        save_filter(filt, snapshot)
        print(f"snapshot saved ({snapshot.stat().st_size} bytes compressed)")

        # Strategy A: restore from the snapshot.
        restored = load_filter(snapshot)
        warm_rate = drop_rate_after(restored, packets, trace.protected,
                                    restart_at)

        # Strategy B: cold restart at the same instant.
        cold = BitmapFilter(config, trace.protected, start_time=restart_at)
        cold_rate = drop_rate_after(cold, packets, trace.protected, restart_at)

    print("\nincoming drop rate in the first Te=20s after the restart:")
    print(f"  restored from snapshot: {warm_rate * 100:6.2f}%")
    print(f"  cold restart:           {cold_rate * 100:6.2f}%")
    print("\nThe cold filter drops every in-flight flow's replies until "
          "clients resend;\nthe restored filter continues as if nothing "
          "happened.")


if __name__ == "__main__":
    main()
