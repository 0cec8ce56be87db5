#!/usr/bin/env python3
"""Active-mode FTP through the bitmap filter — the paper's Section 5.1.

Active FTP inverts the usual direction: after the client issues ``PORT p``,
the *server* connects from its port 20 to the client's port ``p``.  A plain
bitmap filter drops that inbound SYN.  The hole-punching fix has the client
first send any packet from ``(client, p)`` to the server; because the bitmap
key omits the remote port, that one packet opens the door for the server's
data connection from *any* source port.

Run:  python examples/ftp_hole_punching.py
"""

from repro import AddressSpace, BitmapFilter, FilterConfig, Packet, TcpFlags
from repro.core.hole_punch import HolePuncher
from repro.net.address import IPv4Address
from repro.net.protocols import IPPROTO_TCP, PORT_FTP, PORT_FTP_DATA


def main() -> None:
    protected = AddressSpace.class_c_block("172.16.0.0", 6)
    filt = BitmapFilter(FilterConfig.paper_default(), protected)

    client = int(IPv4Address.parse("172.16.1.50"))
    ftp_server = int(IPv4Address.parse("203.0.113.21"))
    data_port = 5001  # the port the client announces via PORT

    print("1) control channel: client connects to the server's port 21")
    ctrl_syn = Packet(1.0, IPPROTO_TCP, client, 41000, ftp_server, PORT_FTP,
                      TcpFlags.SYN)
    print(f"   out SYN           -> {filt.process(ctrl_syn).value}")
    print(f"   in  SYN+ACK       -> "
          f"{filt.process(ctrl_syn.reply(1.05, TcpFlags.SYN | TcpFlags.ACK)).value}")

    print("\n2) WITHOUT hole punching, the server's data connection dies:")
    data_syn = Packet(2.0, IPPROTO_TCP, ftp_server, PORT_FTP_DATA, client,
                      data_port, TcpFlags.SYN)
    print(f"   in SYN to client:{data_port}  -> {filt.process(data_syn).value}")

    print("\n3) the client punches a hole for its data port:")
    puncher = HolePuncher(client, seed=3)
    punch = puncher.punch(ts=3.0, local_port=data_port, server_addr=ftp_server)
    print(f"   out punch packet ({punch.sport} -> random port {punch.dport})"
          f" -> {filt.process(punch).value}")

    print("\n4) now the server's active data connection succeeds:")
    retry = Packet(3.5, IPPROTO_TCP, ftp_server, PORT_FTP_DATA, client,
                   data_port, TcpFlags.SYN)
    print(f"   in SYN to client:{data_port}  -> {filt.process(retry).value}")

    transfer = Packet(3.6, IPPROTO_TCP, ftp_server, PORT_FTP_DATA, client,
                      data_port, TcpFlags.PSH | TcpFlags.ACK, size=1460)
    print(f"   in DATA            -> {filt.process(transfer).value}")

    print("\nNote: the hole is specific to (client, port, server) and expires "
          f"after Te = {filt.config.expiry_timer:g}s unless refreshed.")


if __name__ == "__main__":
    main()
