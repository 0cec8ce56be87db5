"""Section 5.3: adaptive packet dropping (APD) experiments.

Three sub-experiments:

1. **Bandwidth indicator** — unmatched packets are admitted while the
   downlink is idle and dropped with probability ~U_b as a UDP flood loads
   the link.
2. **Packet-ratio indicator** — same shape with the in/out packet ratio and
   (l, h) thresholds as the signal.
3. **Signal-policy ablation** — a SYN scan elicits SYN+ACK/RST replies from
   live victims; *without* the Section 5.3 marking policy those outgoing
   replies punch bitmap holes the scanner can immediately exploit; *with*
   the policy they do not mark and the follow-up packets are dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.attacks.ddos import udp_flood
from repro.core.apd import (
    AdaptiveDroppingPolicy,
    BandwidthIndicator,
    PacketRatioIndicator,
)
from repro.core.bitmap_filter import Decision
from repro.core.filter_api import build_filter
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.net.packet import Packet, PacketArray, PacketLabel, TcpFlags
from repro.net.protocols import IPPROTO_TCP
from repro.traffic.trace import Trace


@dataclass
class ApdPhase:
    """Admission behaviour of bitmap-rejected packets during one phase."""

    label: str
    rejected: int
    admitted: int

    @property
    def admission_rate(self) -> float:
        total = self.rejected + self.admitted
        return self.admitted / total if total else 0.0


@dataclass
class Sec53Result:
    bandwidth_phases: List[ApdPhase]
    ratio_phases: List[ApdPhase]
    ablation: Dict[str, float]   # policy on/off -> follow-up penetration rate

    def report(self) -> str:
        lines = ["Section 5.3 — adaptive packet dropping"]
        for name, phases in (("bandwidth indicator", self.bandwidth_phases),
                             ("packet-ratio indicator", self.ratio_phases)):
            rows = [
                [p.label, p.rejected + p.admitted, f"{p.admission_rate * 100:.1f}%"]
                for p in phases
            ]
            lines.append(render_table(
                ["phase", "bitmap-rejected pkts", "admitted by APD"],
                rows, title=f"\n{name}:"))
        lines.append("\nsignal-policy ablation (SYN-scan follow-up penetration):")
        rows = [[k, f"{v * 100:.1f}%"] for k, v in self.ablation.items()]
        lines.append(render_table(["marking policy", "follow-up penetration"], rows))
        return "\n".join(lines)


def _run_apd_phases(
    scale: ExperimentScale,
    policy_factory,
    flood_start: float,
    flood_duration: float,
) -> List[ApdPhase]:
    """Clean trace + a mid-run UDP flood through an APD-enabled filter."""
    trace = generate_trace(scale)
    victim = trace.protected.networks[0].host(20)
    flood = udp_flood(
        target_addr=victim,
        rate_pps=scale.normal_pps * 12.0,
        start=flood_start,
        duration=flood_duration,
        seed=scale.seed ^ 0xF100D,
    )
    mixed = trace.merged_with(Trace(flood, trace.protected, {"duration": trace.duration}))

    apd = policy_factory()
    # APD decisions follow global arrival order, so packets go through the
    # scalar process() path one at a time (the batch paths refuse APD).
    filt = build_filter(scale.bitmap_config(), trace.protected, apd=apd)

    phases = {
        "before flood": ApdPhase("before flood", 0, 0),
        "during flood": ApdPhase("during flood", 0, 0),
        "after flood": ApdPhase("after flood", 0, 0),
    }

    def phase_of(ts: float) -> ApdPhase:
        if ts < flood_start:
            return phases["before flood"]
        if ts < flood_start + flood_duration:
            return phases["during flood"]
        return phases["after flood"]

    for pkt in mixed.packets:
        before = apd.stats.admitted + apd.stats.dropped
        decision = filt.process(pkt)
        after_admitted = apd.stats.admitted + apd.stats.dropped
        if after_admitted != before:
            # This packet was bitmap-rejected and went through APD.
            phase = phase_of(pkt.ts)
            if decision is Decision.PASS:
                phase.admitted += 1
            else:
                phase.rejected += 1
    return [phases["before flood"], phases["during flood"], phases["after flood"]]


def _syn_scan_with_replies(
    trace: Trace,
    scale: ExperimentScale,
    live_fraction: float = 0.3,
    scan_count: int = 2000,
    seed: int = 77,
) -> Tuple[PacketArray, np.ndarray]:
    """A SYN scan, victim replies, and attacker follow-ups.

    Returns the packet batch (sorted) and a mask marking follow-up packets.
    """
    rng = random.Random(seed)
    rows: List[Packet] = []
    followup_flags: List[bool] = []
    networks = trace.protected.networks
    t = scale.duration * 0.2
    for _ in range(scan_count):
        t += rng.expovariate(scan_count / (scale.duration * 0.4))
        net = networks[rng.randrange(len(networks))]
        victim = net.host(rng.randint(1, net.num_addresses - 2))
        attacker = rng.randint(0x01000000, 0xDFFFFFFF)
        if trace.protected.contains_int(attacker):
            continue
        sport = rng.randint(1024, 65535)
        dport = rng.choice((80, 443, 445, 22))
        probe = Packet(t, IPPROTO_TCP, attacker, sport, victim, dport,
                       TcpFlags.SYN, 48, PacketLabel.ATTACK)
        rows.append(probe)
        followup_flags.append(False)
        if rng.random() < live_fraction:
            # The victim answers: SYN+ACK for open ports, RST otherwise.
            reply_flags = TcpFlags.SYN | TcpFlags.ACK if rng.random() < 0.3 else (
                TcpFlags.RST | TcpFlags.ACK)
            rows.append(Packet(t + 0.005, IPPROTO_TCP, victim, dport,
                               attacker, sport, reply_flags, 40, PacketLabel.NORMAL))
            followup_flags.append(False)
            # The attacker pounces on the (possibly) punched hole.
            rows.append(Packet(t + 0.050, IPPROTO_TCP, attacker, sport,
                               victim, dport, TcpFlags.ACK, 512, PacketLabel.ATTACK))
            followup_flags.append(True)
    order = np.argsort([p.ts for p in rows], kind="stable")
    packets = PacketArray.from_packets([rows[i] for i in order])
    mask = np.array([followup_flags[i] for i in order], dtype=bool)
    return packets, mask


def _ablation_penetration(
    scale: ExperimentScale, signal_policy: bool
) -> float:
    trace = generate_trace(scale)
    scan, followup_mask = _syn_scan_with_replies(trace, scale)
    apd = AdaptiveDroppingPolicy(
        # A saturated ratio indicator: every bitmap-rejected packet drops,
        # isolating the marking policy as the only variable.
        PacketRatioIndicator(low=0.0001, high=0.0002),
        seed=scale.seed,
        signal_policy=signal_policy,
    )
    # APD decisions follow global arrival order, so packets go through the
    # scalar process() path one at a time (the batch paths refuse APD).
    filt = build_filter(scale.bitmap_config(), trace.protected, apd=apd)
    passed = np.zeros(len(scan), dtype=bool)
    for i, pkt in enumerate(scan):
        passed[i] = filt.process(pkt) is Decision.PASS
    followups = int(followup_mask.sum())
    if not followups:
        return 0.0
    return float(passed[followup_mask].sum()) / followups


def run_sec53(scale: ExperimentScale = SMALL) -> Sec53Result:
    flood_start = scale.duration * 0.4
    flood_duration = scale.duration * 0.3

    bandwidth_phases = _run_apd_phases(
        scale,
        lambda: AdaptiveDroppingPolicy(
            BandwidthIndicator(link_capacity_bps=scale.normal_pps * 12.0 * 1400 * 8),
            seed=scale.seed,
        ),
        flood_start,
        flood_duration,
    )
    ratio_phases = _run_apd_phases(
        scale,
        lambda: AdaptiveDroppingPolicy(
            PacketRatioIndicator(low=2.0, high=6.0), seed=scale.seed
        ),
        flood_start,
        flood_duration,
    )
    ablation = {
        "with signal policy": _ablation_penetration(scale, signal_policy=True),
        "without signal policy": _ablation_penetration(scale, signal_policy=False),
    }
    return Sec53Result(
        bandwidth_phases=bandwidth_phases,
        ratio_phases=ratio_phases,
        ablation=ablation,
    )


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_sec53(scale)
