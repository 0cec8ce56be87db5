"""Client bindings for the serve protocol: sync and asyncio.

:class:`FilterClient` is the blocking client — a plain socket plus the
shared :class:`~repro.serve.protocol.FrameDecoder` — for scripts, tests,
and the CLI.  :class:`AsyncFilterClient` is the asyncio twin with the
same surface for use inside an event loop.  Both speak strictly
request/response-in-order, matching the daemon's ordered delivery:

- :meth:`~FilterClient.filter` — send one packet frame, wait for its
  verdict mask.
- :meth:`~FilterClient.filter_stream` — windowed pipelining: keep up to
  ``window`` packet frames in flight and yield verdict masks in order;
  this is what the replay driver uses to reach daemon-bound throughput
  instead of round-trip-bound throughput.
- :meth:`~FilterClient.ping` — opaque-token echo that doubles as a
  barrier (its pong arrives only after all earlier verdicts).
- :meth:`~FilterClient.config` — the daemon's self-description (filter
  geometry, protected networks, clock mode, batch mode) as a dict.
- :meth:`~FilterClient.goodbye` — orderly close.

Failure semantics are typed (:mod:`repro.serve.errors`): a server
``FT_ERROR`` frame raises :class:`ServerError` (fatal), a dead transport
raises :class:`~repro.serve.errors.ServeConnectionError` (transient,
carrying the endpoint and in-flight frame count), and every blocking wait
— connect, per-request receive, and the goodbye drain — is bounded by a
deadline that raises :class:`~repro.serve.errors.ServeTimeoutError`
instead of hanging on a wedged daemon.  ``connect`` optionally takes a
:class:`~repro.serve.retry.RetryPolicy` to retry refused/transient
connects with jittered exponential backoff; the fleet router leans on
this for failover-safe reconnects.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.net.packet import PacketArray
from repro.serve import protocol
from repro.serve.errors import (
    ServeConnectionError,
    ServeTimeoutError,
    ServerError,
)
from repro.serve.protocol import FrameDecoder, ProtocolError
from repro.serve.retry import (
    Deadline,
    RetryPolicy,
    async_call_with_retry,
    call_with_retry,
)

__all__ = ["AsyncFilterClient", "FilterClient", "ServerError"]

#: Default bound on any single blocking wait (connect, one response,
#: the whole goodbye drain).  Generous for a live daemon, finite for a
#: wedged one.
DEFAULT_TIMEOUT = 30.0

#: Response frame types that settle one outstanding request frame.
_RESPONSE_TYPES = frozenset({protocol.FT_VERDICTS, protocol.FT_PONG,
                             protocol.FT_CONFIG, protocol.FT_BYE})


def _expect(frame_type: int, expected: int) -> None:
    if frame_type == protocol.FT_ERROR:
        return  # caller raises with the body text
    if frame_type != expected:
        raise ProtocolError(
            f"expected frame type {expected:#x}, got {frame_type:#x}")


class FilterClient:
    """Blocking client for one daemon connection.

    Connect with ``FilterClient.connect(host, port)`` or
    ``FilterClient.connect_unix(path)``; use as a context manager for an
    orderly goodbye on exit.  ``request_timeout`` bounds each wait for a
    response frame (and the goodbye drain as a whole).
    """

    def __init__(self, sock: socket.socket,
                 max_frame: int = protocol.DEFAULT_MAX_FRAME,
                 *,
                 endpoint: Optional[str] = None,
                 request_timeout: Optional[float] = DEFAULT_TIMEOUT):
        self._sock = sock
        self._decoder = FrameDecoder(max_frame)
        self._frames: Deque[Tuple[int, bytes]] = deque()
        self._closed = False
        self.endpoint = endpoint
        self.request_timeout = request_timeout
        self._in_flight = 0
        sock.settimeout(request_timeout)

    @classmethod
    def connect(cls, host: str, port: int, *,
                timeout: Optional[float] = DEFAULT_TIMEOUT,
                request_timeout: Optional[float] = DEFAULT_TIMEOUT,
                retry: Optional[RetryPolicy] = None,
                max_frame: int = protocol.DEFAULT_MAX_FRAME) -> "FilterClient":
        endpoint = f"{host}:{port}"

        def attempt() -> socket.socket:
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
            except socket.timeout as exc:
                raise ServeTimeoutError(
                    "connect timed out", endpoint=endpoint) from exc
            except OSError as exc:
                raise ServeConnectionError(
                    f"connect failed: {exc}", endpoint=endpoint) from exc
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError as exc:  # reset raced the handshake
                sock.close()
                raise ServeConnectionError(
                    f"connection died during setup: {exc}",
                    endpoint=endpoint) from exc
            return sock

        sock = attempt() if retry is None else \
            call_with_retry(attempt, policy=retry)
        return cls(sock, max_frame, endpoint=endpoint,
                   request_timeout=request_timeout)

    @classmethod
    def connect_unix(cls, path: str, *,
                     timeout: Optional[float] = DEFAULT_TIMEOUT,
                     request_timeout: Optional[float] = DEFAULT_TIMEOUT,
                     retry: Optional[RetryPolicy] = None,
                     max_frame: int = protocol.DEFAULT_MAX_FRAME,
                     ) -> "FilterClient":
        endpoint = f"unix:{path}"

        def attempt() -> socket.socket:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(path)
            except socket.timeout as exc:
                sock.close()
                raise ServeTimeoutError(
                    "connect timed out", endpoint=endpoint) from exc
            except OSError as exc:
                sock.close()
                raise ServeConnectionError(
                    f"connect failed: {exc}", endpoint=endpoint) from exc
            return sock

        sock = attempt() if retry is None else \
            call_with_retry(attempt, policy=retry)
        return cls(sock, max_frame, endpoint=endpoint,
                   request_timeout=request_timeout)

    def __enter__(self) -> "FilterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if not self._closed and exc_info[0] is None:
                self.goodbye()
        finally:
            self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()

    # -- frame plumbing -------------------------------------------------------

    def _send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except socket.timeout as exc:
            raise self._timeout("send timed out") from exc
        except ConnectionError as exc:
            raise self._dead(f"send failed: {exc}") from exc

    def _dead(self, message: str) -> ServeConnectionError:
        return ServeConnectionError(
            message, endpoint=self.endpoint,
            frames_in_flight=self._in_flight,
            bytes_buffered=self._decoder.pending_bytes)

    def _timeout(self, message: str) -> ServeTimeoutError:
        return ServeTimeoutError(
            message, endpoint=self.endpoint,
            frames_in_flight=self._in_flight,
            bytes_buffered=self._decoder.pending_bytes)

    def _recv_frame(self) -> Tuple[int, bytes]:
        while not self._frames:
            try:
                chunk = self._sock.recv(1 << 16)
            except socket.timeout as exc:
                raise self._timeout("timed out waiting for a response "
                                    "frame") from exc
            except ConnectionError as exc:
                raise self._dead(f"connection failed: {exc}") from exc
            if not chunk:
                self._decoder.finish()
                raise self._dead("daemon closed the connection")
            self._frames.extend(self._decoder.feed(chunk))
        frame_type, body = self._frames.popleft()
        if frame_type in _RESPONSE_TYPES and self._in_flight > 0:
            self._in_flight -= 1
        return frame_type, body

    def _recv_expect(self, expected: int) -> bytes:
        frame_type, body = self._recv_frame()
        if frame_type == protocol.FT_ERROR:
            raise ServerError(body.decode("utf-8", "replace"))
        _expect(frame_type, expected)
        return body

    # -- protocol surface -----------------------------------------------------

    def filter(self, packets: PacketArray) -> np.ndarray:
        """One packet frame in, its boolean PASS mask out."""
        self._in_flight += 1
        self._send(protocol.encode_packets(packets))
        return protocol.decode_verdicts(
            self._recv_expect(protocol.FT_VERDICTS))

    def filter_stream(self, batches: Iterable[PacketArray], *,
                      window: int = 8) -> Iterator[np.ndarray]:
        """Pipeline ``batches`` with up to ``window`` frames in flight.

        Yields one verdict mask per input batch, in input order.  The
        daemon's ordered delivery guarantees response *i* pairs with
        request *i*, so no sequence numbers are needed on the wire.
        """
        if window < 1:
            raise ValueError("window must be at least 1")
        in_flight = 0
        iterator = iter(batches)
        exhausted = False
        while not exhausted or in_flight:
            while not exhausted and in_flight < window:
                try:
                    batch = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                self._in_flight += 1
                self._send(protocol.encode_packets(batch))
                in_flight += 1
            if in_flight:
                yield protocol.decode_verdicts(
                    self._recv_expect(protocol.FT_VERDICTS))
                in_flight -= 1

    def ping(self, token: bytes = b"") -> bytes:
        """Echo ``token`` — and barrier on all previously sent frames."""
        self._in_flight += 1
        self._send(protocol.encode_frame(protocol.FT_PING, token))
        return self._recv_expect(protocol.FT_PONG)

    def config(self) -> dict:
        """The daemon's FT_CONFIG self-description."""
        self._in_flight += 1
        self._send(protocol.encode_frame(protocol.FT_CONFIG_REQ))
        return json.loads(self._recv_expect(protocol.FT_CONFIG))

    def goodbye(self, timeout: Optional[float] = None) -> None:
        """Orderly close: drain pending responses through FT_BYE.

        The whole drain — however many verdicts are still in flight — must
        finish within ``timeout`` (default: ``request_timeout``), so a
        daemon that wedges mid-goodbye raises instead of hanging forever.
        """
        if timeout is None:
            timeout = self.request_timeout
        deadline = Deadline(timeout, clock=time.monotonic)
        self._in_flight += 1
        self._send(protocol.encode_frame(protocol.FT_GOODBYE))
        while True:
            if deadline.expired:
                raise self._timeout("goodbye drain deadline expired")
            self._sock.settimeout(deadline.clamp(self.request_timeout))
            frame_type, body = self._recv_frame()
            if frame_type == protocol.FT_BYE:
                return
            if frame_type == protocol.FT_ERROR:
                raise ServerError(body.decode("utf-8", "replace"))


class AsyncFilterClient:
    """Asyncio client with the same surface as :class:`FilterClient`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame: int = protocol.DEFAULT_MAX_FRAME,
                 *,
                 endpoint: Optional[str] = None,
                 request_timeout: Optional[float] = DEFAULT_TIMEOUT):
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame)
        self._frames: Deque[Tuple[int, bytes]] = deque()
        self.endpoint = endpoint
        self.request_timeout = request_timeout
        self._in_flight = 0

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      timeout: Optional[float] = DEFAULT_TIMEOUT,
                      request_timeout: Optional[float] = DEFAULT_TIMEOUT,
                      retry: Optional[RetryPolicy] = None,
                      max_frame: int = protocol.DEFAULT_MAX_FRAME,
                      ) -> "AsyncFilterClient":
        endpoint = f"{host}:{port}"

        async def attempt():
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), timeout)
            except asyncio.TimeoutError as exc:
                raise ServeTimeoutError(
                    "connect timed out", endpoint=endpoint) from exc
            except OSError as exc:
                raise ServeConnectionError(
                    f"connect failed: {exc}", endpoint=endpoint) from exc
            sock = writer.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError as exc:  # reset raced the handshake
                    writer.close()
                    raise ServeConnectionError(
                        f"connection died during setup: {exc}",
                        endpoint=endpoint) from exc
            return reader, writer

        reader, writer = await attempt() if retry is None else \
            await async_call_with_retry(attempt, policy=retry)
        return cls(reader, writer, max_frame, endpoint=endpoint,
                   request_timeout=request_timeout)

    @classmethod
    async def connect_unix(cls, path: str, *,
                           timeout: Optional[float] = DEFAULT_TIMEOUT,
                           request_timeout: Optional[float] = DEFAULT_TIMEOUT,
                           retry: Optional[RetryPolicy] = None,
                           max_frame: int = protocol.DEFAULT_MAX_FRAME,
                           ) -> "AsyncFilterClient":
        endpoint = f"unix:{path}"

        async def attempt():
            try:
                return await asyncio.wait_for(
                    asyncio.open_unix_connection(path), timeout)
            except asyncio.TimeoutError as exc:
                raise ServeTimeoutError(
                    "connect timed out", endpoint=endpoint) from exc
            except OSError as exc:
                raise ServeConnectionError(
                    f"connect failed: {exc}", endpoint=endpoint) from exc

        reader, writer = await attempt() if retry is None else \
            await async_call_with_retry(attempt, policy=retry)
        return cls(reader, writer, max_frame, endpoint=endpoint,
                   request_timeout=request_timeout)

    async def __aenter__(self) -> "AsyncFilterClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        try:
            if exc_info[0] is None:
                await self.goodbye()
        finally:
            await self.close()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- frame plumbing -------------------------------------------------------

    def _dead(self, message: str) -> ServeConnectionError:
        return ServeConnectionError(
            message, endpoint=self.endpoint,
            frames_in_flight=self._in_flight,
            bytes_buffered=self._decoder.pending_bytes)

    def _timeout(self, message: str) -> ServeTimeoutError:
        return ServeTimeoutError(
            message, endpoint=self.endpoint,
            frames_in_flight=self._in_flight,
            bytes_buffered=self._decoder.pending_bytes)

    async def _recv_frame(self,
                          timeout: Optional[float] = None,
                          ) -> Tuple[int, bytes]:
        if timeout is None:
            timeout = self.request_timeout
        while not self._frames:
            try:
                chunk = await asyncio.wait_for(
                    self._reader.read(1 << 16), timeout)
            except asyncio.TimeoutError as exc:
                raise self._timeout("timed out waiting for a response "
                                    "frame") from exc
            except ConnectionError as exc:
                raise self._dead(f"connection failed: {exc}") from exc
            if not chunk:
                self._decoder.finish()
                raise self._dead("daemon closed the connection")
            self._frames.extend(self._decoder.feed(chunk))
        frame_type, body = self._frames.popleft()
        if frame_type in _RESPONSE_TYPES and self._in_flight > 0:
            self._in_flight -= 1
        return frame_type, body

    async def _recv_expect(self, expected: int,
                           timeout: Optional[float] = None) -> bytes:
        frame_type, body = await self._recv_frame(timeout)
        if frame_type == protocol.FT_ERROR:
            raise ServerError(body.decode("utf-8", "replace"))
        _expect(frame_type, expected)
        return body

    async def _drain(self) -> None:
        try:
            await self._writer.drain()
        except ConnectionError as exc:
            raise self._dead(f"send failed: {exc}") from exc

    # -- protocol surface -----------------------------------------------------

    async def filter(self, packets: PacketArray) -> np.ndarray:
        self._in_flight += 1
        self._writer.write(protocol.encode_packets(packets))
        await self._drain()
        return protocol.decode_verdicts(
            await self._recv_expect(protocol.FT_VERDICTS))

    async def filter_stream(self, batches: List[PacketArray], *,
                            window: int = 8) -> List[np.ndarray]:
        """Pipeline ``batches`` with up to ``window`` in flight; all masks."""
        if window < 1:
            raise ValueError("window must be at least 1")
        verdicts: List[np.ndarray] = []
        in_flight = 0
        index = 0
        while index < len(batches) or in_flight:
            while index < len(batches) and in_flight < window:
                self._in_flight += 1
                self._writer.write(protocol.encode_packets(batches[index]))
                index += 1
                in_flight += 1
            await self._drain()
            if in_flight:
                verdicts.append(protocol.decode_verdicts(
                    await self._recv_expect(protocol.FT_VERDICTS)))
                in_flight -= 1
        return verdicts

    async def ping(self, token: bytes = b"") -> bytes:
        self._in_flight += 1
        self._writer.write(protocol.encode_frame(protocol.FT_PING, token))
        await self._drain()
        return await self._recv_expect(protocol.FT_PONG)

    async def config(self) -> dict:
        self._in_flight += 1
        self._writer.write(protocol.encode_frame(protocol.FT_CONFIG_REQ))
        await self._drain()
        return json.loads(await self._recv_expect(protocol.FT_CONFIG))

    async def goodbye(self, timeout: Optional[float] = None) -> None:
        """Orderly close with a deadline over the whole response drain."""
        if timeout is None:
            timeout = self.request_timeout
        deadline = Deadline(timeout, clock=time.monotonic)
        self._in_flight += 1
        self._writer.write(protocol.encode_frame(protocol.FT_GOODBYE))
        await self._drain()
        while True:
            if deadline.expired:
                raise self._timeout("goodbye drain deadline expired")
            frame_type, body = await self._recv_frame(
                deadline.clamp(self.request_timeout))
            if frame_type == protocol.FT_BYE:
                return
            if frame_type == protocol.FT_ERROR:
                raise ServerError(body.decode("utf-8", "replace"))
