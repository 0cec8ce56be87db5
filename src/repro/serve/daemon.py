"""The online filtering daemon: packets stream in, verdicts stream out.

:class:`FilterDaemon` wraps one packet filter — a
:class:`~repro.core.bitmap_filter.BitmapFilter`, optionally under the
hybrid verification layer — behind the framing protocol of
:mod:`repro.serve.protocol` on a TCP and/or Unix-domain listener, plus an
embedded HTTP endpoint (:mod:`repro.serve.http`) for ``/metrics``,
``/healthz``, and ``/snapshot``.

Ingest pipeline
---------------
Each connection gets a reader task (decode frames, enqueue work) and a
writer task (deliver responses *strictly in submission order* — every
request frame is paired with a future queued at decode time, so verdicts
can resolve out of band without ever reordering a client's stream).
Packet frames funnel into one bounded ingest queue consumed by a single
loop that micro-batches: consecutive frames from the same connection are
coalesced (up to ``batch_max_packets``) into one ``process_batch`` call,
whose verdict mask is split back per frame.  Coalescing is restricted to
one connection so each client's timestamp order is preserved.

Backpressure is explicit and configurable.  ``block`` (default) stops
reading from a connection while the queue is full — TCP flow control
pushes back on the sender, and verdicts stay exact.  ``shed`` answers
overflow frames immediately from the fail policy (fail-open admits,
fail-closed drops inbound) without touching the filter — the daemon stays
responsive under overload at the cost of policy-judged verdicts, mirroring
what the degraded-mode layer does during an outage.

Time
----
``clock="packet"`` (replay mode) drives rotations from packet timestamps,
exactly like offline replay — byte-identical verdicts to
:func:`repro.sim.pipeline.run_filter_on_trace`, which the differential
suite asserts.  ``clock="wall"`` (live mode) stamps packets with arrival
time and runs a :class:`~repro.serve.scheduler.RotationScheduler` so
rotations fire every Δt of real time even when traffic pauses.

Lifecycle
---------
SIGTERM (or :meth:`request_shutdown`) drains: listeners close, in-flight
frames are processed, verdicts flush, a final snapshot is written when
``snapshot_path`` is set, and every connection closes cleanly.  SIGHUP
(or :meth:`apply_config`) hot-reloads the filter configuration: fail
policy swaps immediately; geometry changes (k, n, m, Δt, seed) rebuild
the filter at the next rotation boundary with a warm-up grace window
covering the lost marks.  ``restore_path`` warm-starts the filter from a
checksummed snapshot-v2 file.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.filter_api import build_filter
from repro.core.resilience import FailPolicy
from repro.net.address import AddressSpace
from repro.net.packet import DIRECTION_INCOMING, PacketArray
from repro.serve import protocol
from repro.serve.http import HttpEndpoint
from repro.serve.protocol import FrameDecoder, ProtocolError
from repro.serve.scheduler import RotationScheduler
from repro.serve.state import snapshot_to_bytes, write_snapshot
from repro.telemetry.registry import MetricsRegistry, log_buckets

__all__ = ["FilterDaemon", "ServeConfig"]

CLOCK_MODES = ("packet", "wall")
BACKPRESSURE_MODES = ("block", "shed")

#: Batch-size histogram bounds: 1 packet to ~1M packets.
_BATCH_BUCKETS = tuple(log_buckets(1.0, 1e6, per_decade=2))

_EOF = object()


@dataclass
class ServeConfig:
    """Everything a :class:`FilterDaemon` needs to run."""

    filter: FilterConfig
    protected: AddressSpace
    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral
    unix_path: Optional[str] = None  # additionally/instead serve a UDS
    http_host: str = "127.0.0.1"
    http_port: int = 0
    http: bool = True
    clock: str = "packet"            # "packet" replay | "wall" live
    exact: bool = True               # batch mode fed to process_batch
    backpressure: str = "block"      # "block" | "shed"
    queue_frames: int = 64           # ingest queue bound (frames)
    batch_max_packets: int = 65536   # micro-batch coalescing ceiling
    max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME
    snapshot_path: Optional[str] = None   # final snapshot target (SIGTERM)
    restore_path: Optional[str] = None    # warm-start source
    reload_path: Optional[str] = None     # SIGHUP re-reads this JSON file

    def __post_init__(self) -> None:
        if self.clock not in CLOCK_MODES:
            raise ValueError(f"clock must be one of {CLOCK_MODES}")
        if self.backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_MODES}")
        if self.queue_frames < 1:
            raise ValueError("queue_frames must be at least 1")
        if self.batch_max_packets < 1:
            raise ValueError("batch_max_packets must be at least 1")


class _Connection:
    """One client: its streams, its ordered response queue, its tasks."""

    _ids = 0

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        _Connection._ids += 1
        self.id = _Connection._ids
        self.reader = reader
        self.writer = writer
        self.responses: "asyncio.Queue" = asyncio.Queue()
        self.reader_task: Optional[asyncio.Task] = None
        self.writer_task: Optional[asyncio.Task] = None
        self.closing = False

    def respond_now(self, frame_type: int, body: bytes) -> None:
        """Queue an already-resolved response (still delivered in order)."""
        fut = asyncio.get_running_loop().create_future()
        fut.set_result((frame_type, body))
        self.responses.put_nowait(fut)

    def make_response(self) -> "asyncio.Future":
        """Reserve the next in-order response slot; resolve it later."""
        fut = asyncio.get_running_loop().create_future()
        self.responses.put_nowait(fut)
        return fut


class _Instruments:
    """The daemon's own metrics (the filter adds its own to the registry)."""

    def __init__(self, registry: MetricsRegistry):
        self.connections_total = registry.counter(
            "repro_serve_connections_total", "Client connections accepted")
        self.connections_open = registry.gauge(
            "repro_serve_connections_open", "Client connections currently open")
        self.packets_total = registry.counter(
            "repro_serve_packets_total",
            "Packets filtered through the daemon (excludes shed packets)")
        self.batches_total = registry.counter(
            "repro_serve_batches_total",
            "Micro-batches executed by the ingest loop")
        self.frames = {
            name: registry.counter(
                "repro_serve_frames_total",
                "Frames received from clients, by type", type=name)
            for name in ("packets", "ping", "config", "goodbye")
        }
        self.batch_packets = registry.histogram(
            "repro_serve_batch_packets",
            "Coalesced micro-batch sizes (packets per process_batch call)",
            bounds=_BATCH_BUCKETS)
        self.batch_seconds = registry.histogram(
            "repro_serve_batch_seconds",
            "Wall-clock duration of each micro-batch filter call")
        self.queue_depth = registry.gauge(
            "repro_serve_queue_depth", "Packet frames waiting in the ingest queue")
        self.shed_frames = registry.counter(
            "repro_serve_shed_frames_total",
            "Packet frames answered by the fail policy under backpressure")
        self.shed_packets = registry.counter(
            "repro_serve_shed_packets_total",
            "Packets answered by the fail policy under backpressure")
        self.protocol_errors = registry.counter(
            "repro_serve_errors_total",
            "Connections terminated on an error, by kind", kind="protocol")
        self.filter_errors = registry.counter(
            "repro_serve_errors_total",
            "Connections terminated on an error, by kind", kind="filter")
        self.snapshots_total = registry.counter(
            "repro_serve_snapshots_total",
            "Snapshots served over HTTP or written at shutdown")
        self.reloads = {
            kind: registry.counter(
                "repro_serve_reloads_total",
                "Configuration reloads applied, by kind", kind=kind)
            for kind in ("immediate", "rebuild")
        }
        self.uptime = registry.gauge(
            "repro_serve_uptime_seconds", "Seconds since the daemon started")


class FilterDaemon:
    """A long-running online bitmap filter service (see module docstring)."""

    def __init__(self, config: ServeConfig, *,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m = _Instruments(self.registry)
        self._filter_config = config.filter
        self._filt = None
        self._scheduler: Optional[RotationScheduler] = None
        self._pending_config: Optional[FilterConfig] = None
        self._rebuild_at = float("inf")   # boundary the rebuild waits for
        self._restored_arrivals = 0       # arrivals carried by a warm start

        self._queue: Deque[Tuple[_Connection, PacketArray, asyncio.Future]] = \
            deque()
        self._queue_event = asyncio.Event()
        self._space_event = asyncio.Event()
        self._space_event.set()
        self._draining = False
        self._drained = False

        self._conns: Dict[int, _Connection] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._ingest_task: Optional[asyncio.Task] = None
        self._shutdown_event = asyncio.Event()
        self._started = False
        self._start_wall = monotonic()

        self.data_address: Optional[Tuple[str, int]] = None
        self.unix_address: Optional[str] = None
        self.http_address: Optional[Tuple[str, int]] = None

    # -- construction ---------------------------------------------------------

    def _build_filter(self, cfg: FilterConfig, start_time: float):
        # The config's layers (e.g. the hybrid verification tier) are
        # wrapped by the factory itself.
        return build_filter(cfg, self.config.protected, start_time=start_time,
                            telemetry=self.registry)

    def _init_filter(self) -> None:
        if self.config.restore_path:
            self._filt = build_filter(snapshot=self.config.restore_path,
                                      telemetry=self.registry)
            self._filter_config = FilterConfig.from_bitmap_config(
                self._filt.config, fail_policy=self._filt.fail_policy,
                layers=getattr(self._filt, "layers", ()))
            # How much state the warm start actually carried: a fleet
            # supervisor reads this off /healthz to prove a scale-out
            # served warm instead of cold.
            self._restored_arrivals = int(self._filt.stats.total)
        else:
            self._filt = self._build_filter(self._filter_config, 0.0)

    @property
    def filter(self):
        """The live filter instance (swapped by rebuilds — don't cache)."""
        return self._filt

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind listeners, start the ingest loop (and scheduler in wall mode)."""
        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        self._start_wall = monotonic()
        self._init_filter()

        if self.config.clock == "wall":
            # Filter time resumes at the last rotation boundary, so a
            # restored schedule stays aligned; a fresh filter starts at 0.
            resume_at = (self._filt.next_rotation
                         - self._filt.config.rotation_interval)
            self._scheduler = RotationScheduler(
                self._filt,
                epoch=monotonic() - resume_at,
                registry=self.registry,
                on_boundary=self._on_rotation_boundary,
            )

        server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port)
        self._servers.append(server)
        sockname = server.sockets[0].getsockname()
        self.data_address = (sockname[0], sockname[1])

        if self.config.unix_path:
            unix_server = await asyncio.start_unix_server(
                self._on_connection, path=self.config.unix_path)
            self._servers.append(unix_server)
            self.unix_address = self.config.unix_path

        if self.config.http:
            endpoint = HttpEndpoint(self)
            self._http_server = await asyncio.start_server(
                endpoint.handle, host=self.config.http_host,
                port=self.config.http_port)
            http_name = self._http_server.sockets[0].getsockname()
            self.http_address = (http_name[0], http_name[1])

        self._ingest_task = asyncio.get_running_loop().create_task(
            self._ingest_loop(), name="repro-serve-ingest")
        if self._scheduler is not None:
            self._scheduler.start()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain; SIGHUP -> config hot-reload."""
        import signal

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.request_shutdown)
        loop.add_signal_handler(signal.SIGHUP, self.request_reload)

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent; safe from signal handlers)."""
        self._shutdown_event.set()

    async def serve_forever(self) -> None:
        """Run until a shutdown is requested, then drain and exit."""
        if not self._started:
            await self.start()
        await self._shutdown_event.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful stop: flush in-flight work, snapshot, close everything."""
        if self._drained:
            return
        self._drained = True
        # 1. Stop accepting connections and reading new frames.
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        readers = [conn.reader_task for conn in self._conns.values()
                   if conn.reader_task is not None]
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        # 2. Drain the ingest queue (everything received gets a verdict).
        self._draining = True
        self._queue_event.set()
        if self._ingest_task is not None:
            await self._ingest_task
        # 3. Flush and close every connection's writer.
        writers = [conn.writer_task for conn in self._conns.values()
                   if conn.writer_task is not None]
        await asyncio.gather(*writers, return_exceptions=True)
        # 4. Stop the rotation scheduler.
        if self._scheduler is not None:
            self._scheduler.stop()
            await self._scheduler.join()
        # 5. Final snapshot, then close the HTTP endpoint.
        if self.config.snapshot_path:
            write_snapshot(self._filt, self.config.snapshot_path)
            self._m.snapshots_total.inc()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        if self.config.unix_path:
            try:
                Path(self.config.unix_path).unlink()
            except OSError:
                pass

    # -- connection handling --------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family in (socket.AF_INET,
                                                socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(reader, writer)
        self._conns[conn.id] = conn
        self._m.connections_total.inc()
        self._m.connections_open.inc()
        loop = asyncio.get_running_loop()
        conn.writer_task = loop.create_task(
            self._write_loop(conn), name=f"repro-serve-write-{conn.id}")
        conn.reader_task = loop.create_task(
            self._read_loop(conn), name=f"repro-serve-read-{conn.id}")

    async def _read_loop(self, conn: _Connection) -> None:
        decoder = FrameDecoder(self.config.max_frame_bytes)
        try:
            while not conn.closing:
                chunk = await conn.reader.read(1 << 16)
                if not chunk:
                    decoder.finish()
                    break
                for frame_type, body in decoder.feed(chunk):
                    await self._on_frame(conn, frame_type, body)
                    if conn.closing:
                        break
        except ProtocolError as exc:
            self._m.protocol_errors.inc()
            conn.respond_now(protocol.FT_ERROR, str(exc).encode())
        except (ConnectionError, OSError):
            pass
        finally:
            conn.responses.put_nowait(_EOF)

    async def _write_loop(self, conn: _Connection) -> None:
        try:
            while True:
                item = await conn.responses.get()
                if item is _EOF:
                    break
                frame_type, body = await item
                conn.writer.write(protocol.encode_frame(frame_type, body))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                conn.writer.close()
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conns.pop(conn.id, None)
            self._m.connections_open.dec()

    async def _on_frame(self, conn: _Connection, frame_type: int,
                        body: bytes) -> None:
        if frame_type == protocol.FT_PACKETS:
            self._m.frames["packets"].inc()
            packets = protocol.decode_packets(body)
            if self._scheduler is not None:
                # Live mode: the daemon is the clock; stamp arrival time.
                packets.data["ts"][:] = self._scheduler.filter_now()
            fut = conn.make_response()
            await self._enqueue(conn, packets, fut)
        elif frame_type == protocol.FT_PING:
            self._m.frames["ping"].inc()
            conn.respond_now(protocol.FT_PONG, body)
        elif frame_type == protocol.FT_CONFIG_REQ:
            self._m.frames["config"].inc()
            conn.respond_now(
                protocol.FT_CONFIG,
                json.dumps(self.describe(), sort_keys=True).encode())
        elif frame_type == protocol.FT_GOODBYE:
            self._m.frames["goodbye"].inc()
            conn.respond_now(protocol.FT_BYE, b"")
            conn.closing = True
        else:
            raise ProtocolError(
                f"client sent server-only frame type {frame_type:#x}")

    async def _enqueue(self, conn: _Connection, packets: PacketArray,
                       fut: asyncio.Future) -> None:
        if len(self._queue) >= self.config.queue_frames:
            if self.config.backpressure == "shed":
                self._shed(packets, fut)
                return
            try:
                while len(self._queue) >= self.config.queue_frames:
                    self._space_event.clear()
                    await self._space_event.wait()
            except asyncio.CancelledError:
                # Drain in progress: the frame was already received, so it
                # still gets a verdict — queue it past the bound.
                self._push(conn, packets, fut)
                raise
        self._push(conn, packets, fut)

    def _push(self, conn: _Connection, packets: PacketArray,
              fut: asyncio.Future) -> None:
        self._queue.append((conn, packets, fut))
        self._m.queue_depth.set(len(self._queue))
        self._queue_event.set()

    def _shed(self, packets: PacketArray, fut: asyncio.Future) -> None:
        """Answer an overflow frame from the fail policy, filter untouched."""
        verdicts = np.ones(len(packets), dtype=bool)
        if self._filt.fail_policy is FailPolicy.FAIL_CLOSED:
            directions = packets.directions(self.config.protected)
            verdicts[directions == DIRECTION_INCOMING] = False
        self._m.shed_frames.inc()
        self._m.shed_packets.inc(len(packets))
        fut.set_result(
            (protocol.FT_VERDICTS,
             verdicts.astype(np.uint8).tobytes()))

    # -- the ingest loop ------------------------------------------------------

    async def _ingest_loop(self) -> None:
        queue = self._queue
        while True:
            if not queue:
                if self._draining:
                    return
                self._queue_event.clear()
                await self._queue_event.wait()
                continue
            conn, packets, fut = queue.popleft()
            frames = [(packets, fut)]
            total = len(packets)
            # Micro-batch: coalesce this client's consecutive frames.
            while (queue and queue[0][0] is conn
                   and total < self.config.batch_max_packets):
                _, more, more_fut = queue.popleft()
                frames.append((more, more_fut))
                total += len(more)
            self._m.queue_depth.set(len(queue))
            self._space_event.set()
            self._run_batch(frames)
            # Yield so readers/writers/HTTP interleave between batches.
            await asyncio.sleep(0)

    def _run_batch(self,
                   frames: List[Tuple[PacketArray, asyncio.Future]]) -> None:
        arrays = [packets for packets, _ in frames]
        batch = arrays[0] if len(arrays) == 1 else \
            PacketArray.concatenate(arrays)
        began = perf_counter()
        try:
            verdicts = self._filter_batch(batch)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            self._m.filter_errors.inc()
            message = f"filter failure: {exc}".encode()
            for _, fut in frames:
                if not fut.done():
                    fut.set_result((protocol.FT_ERROR, message))
            print(f"repro-serve: batch failed: {exc!r}", file=sys.stderr)
            return
        elapsed = perf_counter() - began
        self._m.batches_total.inc()
        self._m.packets_total.inc(len(batch))
        self._m.batch_packets.observe(len(batch))
        self._m.batch_seconds.observe(elapsed)
        raw = verdicts.astype(np.uint8).tobytes()
        offset = 0
        for packets, fut in frames:
            end = offset + len(packets)
            fut.set_result((protocol.FT_VERDICTS, raw[offset:end]))
            offset = end

    def _filter_batch(self, batch: PacketArray) -> np.ndarray:
        """``process_batch`` with a packet-deterministic deferred rebuild.

        When a pending geometry's rebuild boundary falls *inside* this
        micro-batch, the batch is split at the boundary: packets with
        ``ts < rebuild_at`` go through the old filter, the rebuild runs,
        and the remainder goes through the new one.  The split makes the
        rebuild point a function of packet timestamps alone — not of how
        frames happened to coalesce into batches — which is what lets a
        whole fleet rebuild at one shared boundary and stay byte-identical
        to an offline twin that rebuilds at the same boundary.
        """
        if self._pending_config is None or not len(batch):
            return self._filt.process_batch(batch, exact=self.config.exact)
        ts = np.asarray(batch.ts, dtype=np.float64)
        split = int(np.searchsorted(ts, self._rebuild_at, side="left"))
        if split >= len(batch):  # boundary still ahead of all of this batch
            return self._filt.process_batch(batch, exact=self.config.exact)
        if split == 0:
            self._rebuild_now()
            return self._filt.process_batch(batch, exact=self.config.exact)
        head = self._filt.process_batch(batch[:split],
                                        exact=self.config.exact)
        self._rebuild_now()
        tail = self._filt.process_batch(batch[split:],
                                        exact=self.config.exact)
        return np.concatenate([head, tail])

    # -- hot reload -----------------------------------------------------------

    def request_reload(self) -> None:
        """SIGHUP entry point: re-read ``reload_path`` and apply it."""
        if not self.config.reload_path:
            print("repro-serve: SIGHUP ignored (no --reload-config file)",
                  file=sys.stderr)
            return
        try:
            text = Path(self.config.reload_path).read_text()
            data = json.loads(text)
            rebuild_at = None
            if isinstance(data, dict) and "rebuild_at" in data:
                rebuild_at = float(data.pop("rebuild_at"))
            new_config = _parse_filter_config(data)
        except (OSError, ValueError, TypeError) as exc:
            print(f"repro-serve: reload failed: {exc}", file=sys.stderr)
            return
        self.apply_config(new_config, rebuild_at=rebuild_at)

    def apply_config(self, new_config: FilterConfig, *,
                     rebuild_at: Optional[float] = None) -> str:
        """Apply a new :class:`FilterConfig`; returns what happened.

        Fail-policy changes apply immediately ("immediate").  Geometry or
        timing changes (n, k, m, Δt, seed, layers) cannot be translated
        onto live bit state, so they are deferred and rebuild the filter
        at the next rotation boundary ("deferred-rebuild"); "unchanged"
        means the new config matches the running one.

        ``rebuild_at`` overrides the boundary the rebuild waits for — a
        fleet supervisor passes one *shared* boundary to every node so
        the whole fleet swaps geometry at the same filter-time instant
        (and an offline twin rebuilding at that boundary stays
        byte-identical).  It should be a rotation boundary; the default
        is this filter's own next rotation.
        """
        current = self._filter_config
        geometry_changed = any(
            getattr(new_config, name) != getattr(current, name)
            for name in ("order", "num_vectors", "num_hashes",
                         "rotation_interval", "seed", "layers"))
        if not geometry_changed:
            if new_config.fail_policy is not self._filt.fail_policy:
                self._filt.set_fail_policy(new_config.fail_policy)
                self._filter_config = new_config
                self._m.reloads["immediate"].inc()
                return "immediate"
            return "unchanged"
        # Capture the boundary to rebuild at *now*: the filter's own
        # next_rotation keeps moving ahead of the traffic as batches are
        # processed, so comparing against it later would defer forever.
        self._pending_config = new_config
        self._rebuild_at = (float(rebuild_at) if rebuild_at is not None
                            else self._filt.next_rotation)
        return "deferred-rebuild"

    async def _on_rotation_boundary(self, now_ft: float) -> None:
        if self._pending_config is not None:
            self._maybe_rebuild(now_ft)

    def _maybe_rebuild(self, now_ft: float) -> None:
        """Rebuild onto the pending config once a rotation boundary passes."""
        if now_ft < self._rebuild_at:
            return
        self._rebuild_now()

    def _rebuild_now(self) -> None:
        """Swap the filter onto the pending config, anchored at the boundary.

        The new filter starts at the captured rebuild boundary — or, if
        the old filter's clock already ran past it (wall mode catching
        up), at the last boundary the old filter crossed — so its
        rotation schedule stays origin-anchored and packets in flight
        remain monotonic for it.
        """
        new_config = self._pending_config
        target = self._rebuild_at
        self._pending_config = None
        self._rebuild_at = float("inf")
        last_crossed = (self._filt.next_rotation
                        - self._filt.config.rotation_interval)
        boundary = max(target, last_crossed) if target != float("inf") \
            else last_crossed
        old_grace = self._filt.config.expiry_timer
        self._filt = self._build_filter(new_config, boundary)
        # Marks in the old geometry are unreadable by the new one; open a
        # warm-up grace window as a restart would, so established flows'
        # inbound packets are not mass-dropped.
        self._filt.begin_warmup(boundary + old_grace)
        self._filter_config = new_config
        self._m.reloads["rebuild"].inc()
        if self._scheduler is not None:
            self._scheduler._filt = self._filt

    # -- introspection --------------------------------------------------------

    def describe(self) -> dict:
        """The FT_CONFIG payload: enough to build this filter's offline twin."""
        cfg = self._filter_config
        return {
            "filter": {
                "order": cfg.order,
                "num_vectors": cfg.num_vectors,
                "num_hashes": cfg.num_hashes,
                "rotation_interval": cfg.rotation_interval,
                "seed": cfg.seed,
                "fail_policy": self._filt.fail_policy.value,
                "layers": cfg.layer_dicts(),
            },
            "protected": [str(net) for net in self.config.protected.networks],
            "clock": self.config.clock,
            "exact": self.config.exact,
            "backpressure": self.config.backpressure,
        }

    def health(self) -> dict:
        """The /healthz payload.

        Beyond liveness, this reports what a fleet health checker needs
        to make a failover decision: the fail policy that will judge this
        node's flows if it goes dark, whether the filter is degraded
        (down, verdicts from policy) or still in a warm-up grace window,
        how far the rotation schedule is lagging the clock (wall mode
        only — a stalled rotation loop shows up here before it shows up
        as bad verdicts), and the ingest queue's depth against its bound
        (backpressure imminence).
        """
        self._m.uptime.set(self.uptime())
        interval = self._filt.config.rotation_interval
        last_boundary = self._filt.next_rotation - interval
        if self._scheduler is not None:
            now_ft = self._scheduler.filter_now()
            rotation_lag = max(0.0, now_ft - self._filt.next_rotation)
            warming_up = self._filt.in_warmup(now_ft)
        else:
            # Packet clock: stream position is the last crossed boundary;
            # lag is meaningless when time only advances with traffic.
            rotation_lag = 0.0
            warming_up = self._filt.warmup_until > last_boundary
        pending = self._pending_config
        return {
            "status": "draining" if self._drained or self._draining
            else "serving",
            "uptime_seconds": self.uptime(),
            "connections_open": len(self._conns),
            "queue_frames": len(self._queue),
            "packets_total": self._m.packets_total.value,
            "rotations": self._filt.stats.rotations,
            "next_rotation": self._filt.next_rotation,
            "pending_rebuild": pending is not None,
            # Echo of an accepted-but-deferred geometry: a rolling
            # reconfig driver polls these to confirm a node took the new
            # config (and at which shared boundary) before moving on.
            "pending_geometry": _geometry_dict(pending) if pending else None,
            "pending_rebuild_at": (self._rebuild_at
                                   if pending is not None else None),
            "restored": bool(self.config.restore_path),
            "restored_arrivals": self._restored_arrivals,
            "fail_policy": self._filt.fail_policy.value,
            "degraded": self._filt.is_down,
            "warming_up": warming_up,
            "warmup_until": self._filt.warmup_until,
            "rotation_lag_seconds": rotation_lag,
            "ingest_queue_depth": len(self._queue),
            "ingest_queue_capacity": self.config.queue_frames,
            **self.describe(),
        }

    def uptime(self) -> float:
        return monotonic() - self._start_wall

    def snapshot_bytes(self) -> bytes:
        """The /snapshot payload (raises if the filter cannot snapshot)."""
        data = snapshot_to_bytes(self._filt)
        self._m.snapshots_total.inc()
        return data


def _geometry_dict(cfg: FilterConfig) -> dict:
    """The geometry half of a config (the fields a rebuild is keyed on)."""
    return {
        "order": cfg.order,
        "num_vectors": cfg.num_vectors,
        "num_hashes": cfg.num_hashes,
        "rotation_interval": cfg.rotation_interval,
        "seed": cfg.seed,
        "layers": cfg.layer_dicts(),
    }


def _parse_filter_config(data: dict) -> FilterConfig:
    """A :class:`FilterConfig` from the reload file's JSON object."""
    if not isinstance(data, dict):
        raise ValueError("reload config must be a JSON object")
    fields = dict(data)
    policy = fields.pop("fail_policy", None)
    known = {"order", "num_vectors", "num_hashes", "rotation_interval",
             "seed", "warmup_grace", "layers"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown filter config fields: {sorted(unknown)}")
    if policy is not None:
        fields["fail_policy"] = FailPolicy(policy)
    return FilterConfig(**fields)
