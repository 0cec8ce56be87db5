#!/usr/bin/env python3
"""Quickstart: protect a client network with a bitmap filter.

Builds the paper's {4 x 20}-bitmap filter (512 KB, m=3, dt=5 s) in front of
six class-C client networks, then walks through the canonical situations:
a client-initiated connection (reply passes), an unsolicited probe
(dropped), and expiry after the Te = 20 s window.

Run:  python examples/quickstart.py
"""

from repro import (
    AddressSpace,
    BitmapFilter,
    Decision,
    FilterConfig,
    IPv4Address,
    Packet,
    TcpFlags,
)
from repro.net.protocols import IPPROTO_TCP


def main() -> None:
    # The protected client address space: six class-C networks, as in the
    # paper's campus trace.
    protected = AddressSpace.class_c_block("172.16.0.0", 6)

    # The paper's evaluation configuration: n=20, k=4, m=3, dt=5s.
    config = FilterConfig.paper_default()
    filt = BitmapFilter(config, protected)
    print(f"filter: {filt}")
    print(f"memory: {config.memory_bytes // 1024} KiB, Te = {config.expiry_timer:g}s\n")

    client = int(IPv4Address.parse("172.16.2.10"))
    web_server = int(IPv4Address.parse("93.184.216.34"))
    attacker = int(IPv4Address.parse("198.51.100.7"))

    # 1. The client opens a connection: outgoing packets always pass and
    #    mark the bitmap.
    syn = Packet(ts=1.00, proto=IPPROTO_TCP, src=client, sport=40001,
                 dst=web_server, dport=80, flags=TcpFlags.SYN)
    print(f"outgoing SYN        -> {filt.process(syn).value}")

    # 2. The server's reply matches the marked key: passes.
    syn_ack = syn.reply(ts=1.04, flags=TcpFlags.SYN | TcpFlags.ACK)
    print(f"incoming SYN+ACK    -> {filt.process(syn_ack).value}")

    # 3. An attacker probing the client cold: dropped.
    probe = Packet(ts=2.00, proto=IPPROTO_TCP, src=attacker, sport=31337,
                   dst=client, dport=445, flags=TcpFlags.SYN)
    print(f"unsolicited probe   -> {filt.process(probe).value}")

    # 4. A very late packet on the old connection: the mark has rotated out.
    late = syn.reply(ts=1.0 + config.expiry_timer + 6.0, flags=TcpFlags.ACK)
    print(f"reply after Te+6s   -> {filt.process(late).value}")

    print(f"\nstats: {filt.stats.as_dict()}")
    assert filt.process(syn_ack.with_ts(1.05)) is Decision.DROP  # also expired


if __name__ == "__main__":
    main()
