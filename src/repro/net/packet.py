"""Packet representations: an object form and a columnar NumPy form.

:class:`Packet` is the readable per-packet object used by the reference
implementations and tests.  :class:`PacketArray` stores the same fields as
parallel NumPy arrays so the vectorized bitmap-filter path can process
millions of packets without per-object overhead.  The two forms round-trip
exactly (see ``tests/net/test_packet.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.net.address import format_ipv4
from repro.net.protocols import IPPROTO_TCP, IPPROTO_UDP, protocol_name

if TYPE_CHECKING:
    from repro.net.address import AddressSpace


class TcpFlags(enum.IntFlag):
    """TCP header flags (subset used by the simulation)."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20

    @property
    def is_pure_syn(self) -> bool:
        """SYN without ACK — a connection-open request."""
        return bool(self & TcpFlags.SYN) and not bool(self & TcpFlags.ACK)

    @property
    def is_pure_fin(self) -> bool:
        """FIN without ACK (rare on the wire, but Section 5.3 treats a
        lone FIN as a signal that still marks the bitmap)."""
        return bool(self & TcpFlags.FIN) and not bool(self & TcpFlags.ACK)

    @property
    def closes_connection(self) -> bool:
        return bool(self & (TcpFlags.FIN | TcpFlags.RST))


class Direction(enum.Enum):
    """Packet direction relative to a protected client network."""

    OUTGOING = "outgoing"  # sent from the client network
    INCOMING = "incoming"  # received by the client network
    TRANSIT = "transit"    # neither endpoint inside (not filtered)
    INTERNAL = "internal"  # both endpoints inside (not filtered)


class PacketLabel(enum.IntEnum):
    """Ground-truth provenance label for evaluation accounting.

    NORMAL is legitimate client traffic; ATTACK is generated attack traffic
    (the Fig. 5 scanner, floods, worms); BACKGROUND is the ever-present
    unsolicited Internet radiation a real capture contains — not counted as
    legitimate when scoring false positives, but not part of a simulated
    attack either.
    """

    NORMAL = 0
    ATTACK = 1
    BACKGROUND = 2


@dataclass(frozen=True)
class Packet:
    """A single simulated packet.

    ``label`` carries ground truth (normal vs. attack) so the evaluation
    pipeline can count false positives/negatives; real filters never read it.
    """

    ts: float
    proto: int
    src: int
    sport: int
    dst: int
    dport: int
    flags: TcpFlags = TcpFlags.NONE
    size: int = 720  # the paper's observed average packet size
    label: PacketLabel = PacketLabel.NORMAL

    @property
    def is_tcp(self) -> bool:
        return self.proto == IPPROTO_TCP

    @property
    def is_udp(self) -> bool:
        return self.proto == IPPROTO_UDP

    @property
    def is_attack(self) -> bool:
        return self.label is PacketLabel.ATTACK

    def direction(self, protected: "AddressSpace") -> Direction:
        """Classify this packet relative to a protected address space."""
        src_in = protected.contains_int(self.src)
        dst_in = protected.contains_int(self.dst)
        if src_in and dst_in:
            return Direction.INTERNAL
        if src_in:
            return Direction.OUTGOING
        if dst_in:
            return Direction.INCOMING
        return Direction.TRANSIT

    def reply(self, ts: float, flags: TcpFlags = TcpFlags.ACK, size: int = 720) -> "Packet":
        """Construct the reverse-direction packet of this one."""
        return Packet(
            ts=ts,
            proto=self.proto,
            src=self.dst,
            sport=self.dport,
            dst=self.src,
            dport=self.sport,
            flags=flags,
            size=size,
            label=self.label,
        )

    def with_ts(self, ts: float) -> "Packet":
        return replace(self, ts=ts)

    def __str__(self) -> str:
        flag_text = ""
        if self.is_tcp and self.flags:
            names = [f.name for f in TcpFlags if f and f in self.flags and f.name]
            flag_text = " [" + "+".join(names) + "]"
        return (
            f"{self.ts:.6f} {protocol_name(self.proto)} "
            f"{format_ipv4(self.src)}:{self.sport} > "
            f"{format_ipv4(self.dst)}:{self.dport}{flag_text} len={self.size}"
        )


#: dtype of the columnar packet representation.
PACKET_DTYPE = np.dtype(
    [
        ("ts", np.float64),
        ("proto", np.uint8),
        ("src", np.uint32),
        ("sport", np.uint16),
        ("dst", np.uint32),
        ("dport", np.uint16),
        ("flags", np.uint8),
        ("size", np.uint16),
        ("label", np.uint8),
    ]
)


class PacketArray:
    """Columnar (structured NumPy) packet storage.

    Exposes each field as an array attribute (``ts``, ``src``, ...) and
    supports slicing, concatenation, time-sorting, and conversion to/from
    :class:`Packet` lists.
    """

    def __init__(self, data: np.ndarray):
        if data.dtype != PACKET_DTYPE:
            raise TypeError(f"expected dtype {PACKET_DTYPE}, got {data.dtype}")
        self._data = data

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls, length: int = 0) -> "PacketArray":
        return cls(np.zeros(length, dtype=PACKET_DTYPE))

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "PacketArray":
        packets = list(packets)
        data = np.zeros(len(packets), dtype=PACKET_DTYPE)
        for i, pkt in enumerate(packets):
            data[i] = (
                pkt.ts,
                pkt.proto,
                pkt.src,
                pkt.sport,
                pkt.dst,
                pkt.dport,
                int(pkt.flags),
                pkt.size,
                int(pkt.label),
            )
        return cls(data)

    @classmethod
    def from_fields(
        cls,
        ts: np.ndarray,
        proto: np.ndarray,
        src: np.ndarray,
        sport: np.ndarray,
        dst: np.ndarray,
        dport: np.ndarray,
        flags: Optional[np.ndarray] = None,
        size: Optional[np.ndarray] = None,
        label: Optional[np.ndarray] = None,
    ) -> "PacketArray":
        n = len(ts)
        data = np.zeros(n, dtype=PACKET_DTYPE)
        data["ts"] = ts
        data["proto"] = proto
        data["src"] = src
        data["sport"] = sport
        data["dst"] = dst
        data["dport"] = dport
        data["flags"] = flags if flags is not None else 0
        data["size"] = size if size is not None else 720
        data["label"] = label if label is not None else 0
        return cls(data)

    @classmethod
    def concatenate(cls, arrays: Sequence["PacketArray"]) -> "PacketArray":
        if not arrays:
            return cls.empty()
        return cls(np.concatenate([arr._data for arr in arrays]))

    # -- field views ------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def ts(self) -> np.ndarray:
        return self._data["ts"]

    @property
    def proto(self) -> np.ndarray:
        return self._data["proto"]

    @property
    def src(self) -> np.ndarray:
        return self._data["src"]

    @property
    def sport(self) -> np.ndarray:
        return self._data["sport"]

    @property
    def dst(self) -> np.ndarray:
        return self._data["dst"]

    @property
    def dport(self) -> np.ndarray:
        return self._data["dport"]

    @property
    def flags(self) -> np.ndarray:
        return self._data["flags"]

    @property
    def size(self) -> np.ndarray:
        return self._data["size"]

    @property
    def label(self) -> np.ndarray:
        return self._data["label"]

    # -- container protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index) -> "PacketArray":
        if isinstance(index, (int, np.integer)):
            return self.packet(int(index))  # type: ignore[return-value]
        return PacketArray(self._data[index])

    def __iter__(self) -> Iterator[Packet]:
        for i in range(len(self)):
            yield self.packet(i)

    def packet(self, index: int) -> Packet:
        row = self._data[index]
        return Packet(
            ts=float(row["ts"]),
            proto=int(row["proto"]),
            src=int(row["src"]),
            sport=int(row["sport"]),
            dst=int(row["dst"]),
            dport=int(row["dport"]),
            flags=TcpFlags(int(row["flags"])),
            size=int(row["size"]),
            label=PacketLabel(int(row["label"])),
        )

    def to_packets(self) -> List[Packet]:
        return list(self)

    # -- operations --------------------------------------------------------

    def sorted_by_time(self) -> "PacketArray":
        """Return a copy sorted by timestamp (stable)."""
        order = np.argsort(self.ts, kind="stable")
        return PacketArray(self._data[order])

    def time_slice(self, start: float, end: float) -> "PacketArray":
        """Packets with ``start <= ts < end`` (assumes nothing about order)."""
        mask = (self.ts >= start) & (self.ts < end)
        return PacketArray(self._data[mask])

    def directions(self, protected: "AddressSpace") -> np.ndarray:
        """Vectorized direction classification.

        Returns an int8 array: 0=outgoing, 1=incoming, 2=transit, 3=internal.
        """
        # Contiguous copies: the fields are strided views of the packet
        # records, and every per-network mask below would pay for that.
        src = np.ascontiguousarray(self.src)
        dst = np.ascontiguousarray(self.dst)
        src_in = np.zeros(len(self), dtype=bool)
        dst_in = np.zeros(len(self), dtype=bool)
        for net in protected.networks:
            mask = np.uint32(net.netmask)
            prefix = np.uint32(net.prefix)
            src_in |= (src & mask) == prefix
            dst_in |= (dst & mask) == prefix
        # 2 * src_in + dst_in indexes the direction code.
        return _DIRECTION_BY_SIDES[(src_in.view(np.int8) << 1) | dst_in.view(np.int8)]

    def copy(self) -> "PacketArray":
        return PacketArray(self._data.copy())

    def __repr__(self) -> str:
        span = ""
        if len(self):
            span = f", t=[{self.ts[0]:.3f}, {self.ts[-1]:.3f}]"
        return f"PacketArray(n={len(self)}{span})"


# Integer direction codes used by PacketArray.directions and the vectorized
# filter paths.  Kept in sync with the Direction enum ordering.
DIRECTION_OUTGOING = 0
DIRECTION_INCOMING = 1
DIRECTION_TRANSIT = 2
DIRECTION_INTERNAL = 3

#: Direction code by ``2 * src_inside + dst_inside``.
_DIRECTION_BY_SIDES = np.array(
    [DIRECTION_TRANSIT, DIRECTION_INCOMING, DIRECTION_OUTGOING,
     DIRECTION_INTERNAL], dtype=np.int8)

DIRECTION_CODES = {
    Direction.OUTGOING: DIRECTION_OUTGOING,
    Direction.INCOMING: DIRECTION_INCOMING,
    Direction.TRANSIT: DIRECTION_TRANSIT,
    Direction.INTERNAL: DIRECTION_INTERNAL,
}

DIRECTION_FROM_CODE = {code: direction for direction, code in DIRECTION_CODES.items()}
