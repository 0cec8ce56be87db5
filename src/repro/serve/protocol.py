"""The serve wire protocol: length-prefixed binary frames over a stream.

One frame is a 4-byte big-endian payload length followed by the payload,
whose first byte is the frame type::

    +----------------+--------+------------------------+
    | length (u32 BE)| type u8| body (length - 1 bytes)|
    +----------------+--------+------------------------+

Client -> server frames:

- ``FT_PACKETS`` — body is N packed packet rows (:data:`WIRE_DTYPE`, the
  little-endian form of :data:`~repro.net.packet.PACKET_DTYPE`).  The
  daemon answers each with exactly one ``FT_VERDICTS`` frame, in order.
- ``FT_PING`` — body is an opaque token echoed back in ``FT_PONG``.
  Because replies are delivered strictly in submission order, a ping
  doubles as a barrier: its pong arrives only after the verdicts of every
  previously sent packet frame.
- ``FT_CONFIG_REQ`` — asks for the daemon's ``FT_CONFIG`` description.
- ``FT_GOODBYE`` — orderly close; the daemon flushes pending verdicts,
  answers ``FT_BYE``, and closes the connection.

Server -> client frames:

- ``FT_VERDICTS`` — one byte per packet of the paired ``FT_PACKETS`` frame
  (``0x01`` pass, ``0x00`` drop).
- ``FT_PONG`` / ``FT_CONFIG`` / ``FT_BYE`` — responses as above;
  ``FT_CONFIG`` carries a UTF-8 JSON object (filter geometry, protected
  networks, clock mode, batch mode) so a client can build the offline twin
  of the daemon's filter.
- ``FT_ERROR`` — UTF-8 diagnostic; the daemon closes the connection after
  sending it.

Framing errors — an oversized length prefix, an unknown frame type, a
packet body that is not a whole number of rows, non-finite timestamps, or
a stream that ends mid-frame — raise :class:`ProtocolError` and never
crash the decoder.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.net.packet import PACKET_DTYPE, PacketArray

__all__ = [
    "DEFAULT_MAX_FRAME",
    "FRAME_TYPES",
    "FT_BYE",
    "FT_CONFIG",
    "FT_CONFIG_REQ",
    "FT_ERROR",
    "FT_GOODBYE",
    "FT_PACKETS",
    "FT_PING",
    "FT_PONG",
    "FT_VERDICTS",
    "FrameDecoder",
    "ProtocolError",
    "decode_packets",
    "decode_verdicts",
    "encode_frame",
    "encode_packets",
    "encode_verdicts",
]

#: Wire form of the packet row: PACKET_DTYPE with every field little-endian,
#: so captures exchange identically between hosts regardless of native order.
WIRE_DTYPE = np.dtype([(name, PACKET_DTYPE[name].newbyteorder("<"))
                       for name in PACKET_DTYPE.names])

FT_PACKETS = 0x01
FT_PING = 0x02
FT_GOODBYE = 0x03
FT_CONFIG_REQ = 0x04
FT_VERDICTS = 0x81
FT_PONG = 0x82
FT_CONFIG = 0x83
FT_BYE = 0x84
FT_ERROR = 0xEE

FRAME_TYPES = frozenset({
    FT_PACKETS, FT_PING, FT_GOODBYE, FT_CONFIG_REQ,
    FT_VERDICTS, FT_PONG, FT_CONFIG, FT_BYE, FT_ERROR,
})

#: Default ceiling on one frame's payload (type byte + body).
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

_LENGTH = struct.Struct("!I")


class ProtocolError(ValueError):
    """The byte stream violates the serve framing protocol."""


def encode_frame(frame_type: int, body: bytes = b"") -> bytes:
    """One wire frame: length prefix + type byte + body."""
    if frame_type not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {frame_type:#x}")
    return _LENGTH.pack(1 + len(body)) + bytes([frame_type]) + body


def encode_packets(packets: PacketArray) -> bytes:
    """A ``FT_PACKETS`` frame holding every row of ``packets``."""
    wire = np.ascontiguousarray(packets.data.astype(WIRE_DTYPE, copy=False))
    return encode_frame(FT_PACKETS, wire.tobytes())


def decode_packets(body: bytes) -> PacketArray:
    """Parse a ``FT_PACKETS`` body back into a :class:`PacketArray`.

    Rejects bodies that are not a whole number of packet rows and rows
    with non-finite timestamps (they would wedge the rotation schedule).
    """
    itemsize = WIRE_DTYPE.itemsize
    if len(body) % itemsize:
        raise ProtocolError(
            f"packet frame body of {len(body)} bytes is not a multiple of "
            f"the {itemsize}-byte row size")
    rows = np.frombuffer(body, dtype=WIRE_DTYPE).astype(PACKET_DTYPE)
    if len(rows) and not np.isfinite(rows["ts"]).all():
        raise ProtocolError("packet frame carries non-finite timestamps")
    return PacketArray(rows)


def encode_verdicts(verdicts: np.ndarray) -> bytes:
    """A ``FT_VERDICTS`` frame: one byte per verdict (1 pass, 0 drop)."""
    return encode_frame(FT_VERDICTS,
                        np.asarray(verdicts, dtype=bool)
                        .astype(np.uint8).tobytes())


def decode_verdicts(body: bytes) -> np.ndarray:
    """Parse a ``FT_VERDICTS`` body into a boolean PASS mask."""
    raw = np.frombuffer(body, dtype=np.uint8)
    if len(raw) and raw.max() > 1:
        raise ProtocolError("verdict frame carries bytes other than 0/1")
    return raw.astype(bool)


class FrameDecoder:
    """Incremental frame parser over an arbitrarily chunked byte stream.

    Feed it chunks as they arrive; iterate :meth:`frames` for every
    complete ``(frame_type, body)`` pair.  Call :meth:`finish` at EOF —
    a partial frame left in the buffer is a protocol error (the peer died
    mid-frame), not something to ignore silently.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        if max_frame < 1:
            raise ValueError("max_frame must be positive")
        self.max_frame = max_frame
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed as complete frames."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Tuple[int, bytes]]:
        """Add a chunk and return every frame it completed."""
        self._buffer.extend(chunk)
        return list(self.frames())

    def frames(self) -> Iterator[Tuple[int, bytes]]:
        """Pop complete ``(type, body)`` frames from the buffer."""
        while True:
            frame = self._next_frame()
            if frame is None:
                return
            yield frame

    def _next_frame(self) -> Optional[Tuple[int, bytes]]:
        buf = self._buffer
        if len(buf) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(buf, 0)
        if length < 1:
            raise ProtocolError("zero-length frame (missing type byte)")
        if length > self.max_frame:
            raise ProtocolError(
                f"frame of {length} bytes exceeds the {self.max_frame}-byte "
                "limit")
        if len(buf) < _LENGTH.size + length:
            return None
        frame_type = buf[_LENGTH.size]
        if frame_type not in FRAME_TYPES:
            raise ProtocolError(f"unknown frame type {frame_type:#x}")
        body = bytes(buf[_LENGTH.size + 1:_LENGTH.size + length])
        del buf[:_LENGTH.size + length]
        return frame_type, body

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise ProtocolError(
                f"stream ended mid-frame with {len(self._buffer)} "
                "unconsumed bytes")
