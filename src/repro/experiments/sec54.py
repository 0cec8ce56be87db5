"""Section 5.4: colluding with attackers — sniffed-tuple replay.

The paper argues that an insider sniffer reporting live connection tuples
to an outside attacker is a poor strategy: "short connections will be
deleted quickly from a bitmap filter with a short expiry timer Te.  In such
a situation, the sniffer has to report new states to attackers frequently,
which increases the risk of ... being identified."

This experiment measures that claim.  A sniffer snapshots the client
network's active outgoing tuples every ``report_interval`` seconds; the
attacker forges incoming packets matching the reported tuples after a
``collusion latency`` L (report transport + attack turnaround).  The forged
packets' penetration rate is measured as a function of L:

- near-zero latency: most replayed tuples are still marked → penetration
  high (collusion "works", at maximal sniffer exposure);
- latency beyond Te: every replayed tuple has expired → penetration
  collapses to the random-guess floor;
- a shorter Te shifts the collapse left, shrinking the viable window
  exactly as Section 5.4 argues.

The penetration floor at large latencies is *not* a filter weakness: it is
the share of sniffed tuples belonging to connections still active at replay
time, whose refreshed marks any symmetry-based filter (including an exact
SPI filter) necessarily admits.  The paper's claim concerns the short
connections, whose replay value decays with Te.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.analysis.report import render_table
from repro.core.bitmap_filter import Decision, FilterConfig
from repro.core.filter_api import build_filter
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.net.packet import Packet, TcpFlags
from repro.traffic.trace import Trace


@dataclass
class CollusionPoint:
    latency: float        # seconds between sniffing a tuple and replaying it
    expiry_timer: float   # the filter's Te
    replayed: int
    penetrated: int

    @property
    def penetration_rate(self) -> float:
        return self.penetrated / self.replayed if self.replayed else 0.0


@dataclass
class Sec54Result:
    points: List[CollusionPoint]

    def rate_at(self, latency: float, expiry_timer: float) -> float:
        for point in self.points:
            if point.latency == latency and point.expiry_timer == expiry_timer:
                return point.penetration_rate
        raise KeyError((latency, expiry_timer))

    def report(self) -> str:
        rows = [
            [f"{p.latency:g}", f"{p.expiry_timer:g}", p.replayed,
             f"{p.penetration_rate * 100:.1f}%"]
            for p in self.points
        ]
        return render_table(
            ["collusion latency (s)", "Te (s)", "replayed pkts", "penetration"],
            rows,
            title="Section 5.4 — sniffed-tuple replay vs collusion latency:",
        )


def _run_collusion(
    scale: ExperimentScale,
    trace: Trace,
    latency: float,
    rotation_interval: float,
    report_interval: float = 2.0,
    seed: int = 0,
) -> CollusionPoint:
    """Stream the trace through a filter; replay sniffed tuples at +latency."""
    rng = random.Random(seed)
    config = FilterConfig(
        order=scale.bitmap_order, num_vectors=scale.num_vectors,
        num_hashes=scale.num_hashes, rotation_interval=rotation_interval,
        seed=scale.seed,
    )
    filt = build_filter(config, trace.protected)

    # Pass 1 bookkeeping: the sniffer's reports.  Each report at time t is
    # the set of outgoing tuples seen in the preceding report interval; the
    # attacker replays a sample of them at t + latency.
    packets = list(trace.packets)
    replay_queue: List[Packet] = []
    current_report: Set[Tuple[int, int, int, int, int]] = set()
    next_report = report_interval
    directions = trace.packets.directions(trace.protected)

    for pkt, direction in zip(packets, directions.tolist()):
        if pkt.ts >= next_report:
            sample = rng.sample(sorted(current_report),
                                min(40, len(current_report)))
            for proto, saddr, sport, daddr, dport in sample:
                replay_queue.append(Packet(
                    ts=next_report + latency, proto=proto, src=daddr,
                    sport=dport, dst=saddr, dport=sport,
                    flags=TcpFlags.PSH | TcpFlags.ACK, size=512,
                ))
            current_report.clear()
            next_report += report_interval
        if direction == 0:
            current_report.add((pkt.proto, pkt.src, pkt.sport, pkt.dst,
                                pkt.dport))

    # Pass 2: run normal traffic + replays through the filter in time order.
    merged = sorted(packets + replay_queue, key=lambda p: p.ts)
    replay_ids = {id(p) for p in replay_queue}
    replayed = penetrated = 0
    for pkt in merged:
        verdict = filt.process(pkt)
        if id(pkt) in replay_ids:
            replayed += 1
            if verdict is Decision.PASS:
                penetrated += 1
    return CollusionPoint(latency=latency, expiry_timer=config.expiry_timer,
                          replayed=replayed, penetrated=penetrated)


def run_sec54(scale: ExperimentScale = SMALL, trace: Trace = None) -> Sec54Result:
    if trace is None:
        trace = generate_trace(scale)
    points: List[CollusionPoint] = []
    # Latency sweep at the paper's Te = 20 s (dt = 5 s).
    for latency in (1.0, 8.0, 16.0, 25.0, 40.0):
        points.append(_run_collusion(scale, trace, latency,
                                     rotation_interval=5.0, seed=int(latency)))
    # The Section 5.4 mitigation: a short Te (5 s) at the same latencies.
    for latency in (1.0, 8.0, 16.0):
        points.append(_run_collusion(scale, trace, latency,
                                     rotation_interval=1.25, seed=100 + int(latency)))
    return Sec54Result(points=points)


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_sec54(scale)
