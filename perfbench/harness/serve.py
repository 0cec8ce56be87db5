"""The ``serve-clean`` workload: a ``repro serve`` daemon fed over loopback.

This process is the one client, with one TCP connection.  The input is the
clean trace repeated in laps; each lap is shifted in time by a whole number
of rotation intervals and by more than the expiry timer past the previous
lap's last packet, so every lap meets an empty bitmap and gets the same
verdicts.  The stream is cut into fixed-size frames, and the phases run on
it back to back:

1. set-up, several times: spawn the daemon, wait for ``REPRO-SERVE READY``,
   connect (the first start-up is untimed; the last daemon stays up);
2. an untimed closed-loop warm-up;
3. closed loop, window :data:`WINDOW`, for ``seconds`` (``pps``);
4. open loop at :data:`OPEN_RATE_PPS` for :data:`OPEN_FRAMES` frames,
   each timed from its due time to its verdict (the latency pair);
   with ``trace`` a traced closed-loop phase replaces it;
5. set-up again, several times, each daemon stopped at once.

``setup_s`` is the median of the timed start-ups of steps 1 and 5, so the
samples span the whole run.

Every verdict of every phase is compared with an offline
``run_filter_on_trace`` (serial, exact) of the same lapped input.
"""

from __future__ import annotations

import gc
import json
import math
import os
import select
import socket
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional

import numpy as np

from harness import inputs, layers
from harness.procs import reap, spawn

FRAME_PACKETS = 500
WINDOW = 8
OPEN_RATE_PPS = 100_000.0
OPEN_FRAMES = 2000
#: Frames in the traced phase and in the in-process replays: a fixed
#: amount of work, so per-layer totals compare between runs.
TRACED_FRAMES = 3000
#: The open loop counts as backlogged when fewer packets per second than
#: this share of the offered rate got their verdicts.
BACKLOG_SHARE = 0.97
#: Longest wait for any single response before the run fails.
IO_TIMEOUT = 30.0


class LapStream:
    """The clean trace repeated in time-shifted laps, cut into frames."""

    def __init__(self, packets, shift: float, frame_packets: int):
        self._data = packets.data
        self.lap_packets = len(packets)
        self.shift = shift
        self.frame_packets = frame_packets

    @staticmethod
    def lap_shift(packets, rotation_interval: float, num_vectors: int):
        """Whole rotation intervals that clear every vector between laps."""
        last = float(packets.ts.max())
        return rotation_interval * (math.ceil(last / rotation_interval)
                                    + num_vectors + 1)

    def laps(self, count: int):
        """The first ``count`` laps as one :class:`PacketArray`."""
        return self.rows(0, count * self.lap_packets)

    def rows(self, start: int, stop: int):
        from repro.net.packet import PacketArray

        index = np.arange(start, stop)
        rows = self._data[index % self.lap_packets]
        rows["ts"] += (index // self.lap_packets) * self.shift
        return PacketArray(rows)

    def frame(self, j: int):
        return self.rows(j * self.frame_packets, (j + 1) * self.frame_packets)


def filter_config(scale):
    """The daemon's filter: the scale's geometry and hash seed."""
    from repro.core.bitmap_filter import FilterConfig

    return FilterConfig.from_bitmap_config(scale.bitmap_config())


def lap_reference(stream: LapStream, scale, protected):
    """Verdicts of one lap from an offline serial exact run over two laps,
    plus whether the second lap repeated the first (the premise of
    tiling the reference over the whole stream)."""
    from repro.core.filter_api import build_filter
    from repro.sim.pipeline import run_filter_on_trace
    from repro.traffic.trace import Trace

    two = Trace(stream.laps(2), protected)
    filt = build_filter(filter_config(scale), protected, backend="serial")
    verdicts = run_filter_on_trace(filt, two, exact=True).verdicts
    n = stream.lap_packets
    return verdicts[:n], bool((verdicts[:n] == verdicts[n:]).all())


def scrape(url: str) -> Dict[str, float]:
    """Unlabelled samples of the daemon's ``/metrics`` page."""
    from repro.telemetry.exporters import parse_prometheus

    with urllib.request.urlopen(url, timeout=IO_TIMEOUT) as response:
        text = response.read().decode()
    return {s.name: s.value for s in parse_prometheus(text) if not s.labels}


class Daemon:
    """One ``repro serve`` subprocess, pinned, reaped on :meth:`stop`."""

    def __init__(self, scale, protected, cpu: int):
        cfg = scale.bitmap_config()
        cmd = [sys.executable, "-m", "repro", "serve",
               "--protected", ",".join(str(n) for n in protected.networks),
               "--host", "127.0.0.1", "--port", "0",
               "--http-host", "127.0.0.1", "--http-port", "0",
               "--backend", "serial", "--clock", "packet",
               "--order", str(cfg.order), "--k", str(cfg.num_vectors),
               "--m", str(cfg.num_hashes), "--dt", str(cfg.rotation_interval),
               "--hash-seed", str(cfg.seed)]
        self.proc = spawn(cmd, stdout=subprocess.PIPE)
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.proc.stdout.readline()
            if not line.startswith("REPRO-SERVE READY "):
                raise RuntimeError(f"daemon did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        info = json.loads(line.split("READY ", 1)[1])
        self.address = tuple(info["data"])
        self.metrics_url = "http://{}:{}/metrics".format(*info["http"])

    def peak_rss_mb(self) -> float:
        from harness.offline import peak_rss_mb

        return peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        return reap(self.proc)


def connect(address):
    from repro.serve.client import FilterClient

    sock = socket.create_connection(address, timeout=IO_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return FilterClient(sock, endpoint="{}:{}".format(*address),
                        request_timeout=IO_TIMEOUT), sock


def start(scale, protected, cpu: int):
    """Spawn a daemon and connect to it; returns the daemon, the client,
    its socket and the seconds that took (one ``setup_s`` sample)."""
    began = time.perf_counter()
    daemon = Daemon(scale, protected, cpu)
    try:
        client, sock = connect(daemon.address)
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, sock, time.perf_counter() - began


def close(daemon: Daemon, client) -> None:
    try:
        client.goodbye()
        client.close()
    finally:
        daemon.stop()


class Session:
    """The client side of one run: frames sent so far and their verdicts."""

    def __init__(self, stream: LapStream, client, sock):
        self.stream = stream
        self.client = client
        self.sock = sock
        self.next_frame = 0
        self.verdicts: List[np.ndarray] = []

    def closed_loop(self, seconds: float = math.inf,
                    frames: Optional[int] = None, tracer=None) -> dict:
        """Window-``WINDOW`` closed loop for ``seconds`` or for ``frames``
        frames, whichever ends first; returns its rate and the time each
        verdict arrived (from the phase start)."""
        first = self.next_frame
        last = first + frames if frames is not None else None
        deadline = time.perf_counter() + seconds

        def source():
            while time.perf_counter() < deadline and self.next_frame != last:
                j = self.next_frame
                self.next_frame += 1
                if tracer is not None:
                    tracer.batch = j
                yield self.stream.frame(j)

        stream = self.client.filter_stream(source(), window=WINDOW)
        arrivals = []
        began = time.perf_counter()
        while True:
            if tracer is None:
                verdict = next(stream, None)
            else:
                with tracer.span("client.stream_next"):
                    verdict = next(stream, None)
            if verdict is None:
                break
            arrivals.append(time.perf_counter() - began)
            self.verdicts.append(verdict)
        elapsed = time.perf_counter() - began
        done = self.next_frame - first
        return {"frames": done, "seconds": elapsed, "first_frame": first,
                "arrivals": arrivals,
                "pps": done * self.stream.frame_packets / elapsed}

    def open_loop(self, rate_pps: float, count: int) -> dict:
        """Send ``count`` frames on a fixed schedule, reading verdicts as
        they come; each frame's latency runs from its due time."""
        from repro.serve import protocol

        first = self.next_frame
        payloads = [protocol.encode_packets(self.stream.frame(first + i))
                    for i in range(count)]
        self.next_frame += count
        period = self.stream.frame_packets / rate_pps
        decoder = protocol.FrameDecoder()
        sock = self.sock
        gc.collect()
        start = time.perf_counter() + 0.01
        due = start + np.arange(count) * period
        sent_at = np.zeros(count)
        done_at = np.zeros(count)
        sent = received = 0
        limit = start + count * period + IO_TIMEOUT
        while received < count:
            now = time.perf_counter()
            if sent < count and now >= due[sent]:
                sock.sendall(payloads[sent])
                sent_at[sent] = now
                sent += 1
                continue
            if now > limit:
                raise TimeoutError(f"open loop stalled with {sent - received}"
                                   " frames unanswered")
            wait = due[sent] - now if sent < count else IO_TIMEOUT
            ready, _, _ = select.select([sock], [], [], max(0.0, wait))
            if not ready:
                continue
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            arrived = time.perf_counter()
            for frame_type, body in decoder.feed(chunk):
                if frame_type != protocol.FT_VERDICTS:
                    raise RuntimeError(f"unexpected frame {frame_type:#x}")
                self.verdicts.append(protocol.decode_verdicts(body))
                done_at[received] = arrived
                received += 1
        latency_ms = (done_at - due) * 1e3
        late_ms = (sent_at - due) * 1e3
        span = done_at[-1] - start
        delivered = count * self.stream.frame_packets / span
        return {
            "frames": count, "first_frame": first,
            "offered_pps": rate_pps, "delivered_pps": delivered,
            "backlogged": bool(delivered < BACKLOG_SHARE * rate_pps),
            "p50_ms": float(np.percentile(latency_ms, 50)),
            "p99_ms": float(np.percentile(latency_ms, 99)),
            "beyond_p99": int((latency_ms > np.percentile(latency_ms, 99))
                              .sum()),
            "late_p50_ms": float(np.percentile(late_ms, 50)),
            "late_p99_ms": float(np.percentile(late_ms, 99)),
        }


def daemon_layers(before: Dict[str, float], after: Dict[str, float],
                  wall: float) -> Dict[str, float]:
    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    batches = delta("repro_serve_batch_packets_count")
    return {
        "daemon.batch_seconds.sum": delta("repro_serve_batch_seconds_sum"),
        "daemon.batches": delta("repro_serve_batches_total"),
        "daemon.batch_packets.mean":
            delta("repro_serve_batch_packets_sum") / batches if batches else 0.0,
        "daemon.filter_share": delta("repro_serve_batch_seconds_sum") / wall,
        "daemon.shed_frames": delta("repro_serve_shed_frames_total"),
    }


def replay(bodies: List[bytes], filt, group: int, tracer) -> float:
    """Push encoded frame bodies through the daemon's stages in-process:
    decode -> concatenate -> process_batch -> encode, ``group`` frames per
    batch; returns the summed stage time."""
    from repro.net.packet import PacketArray
    from repro.serve import protocol

    names = ("replay.decode_packets", "replay.concatenate",
             "replay.process_batch", "replay.encode_verdicts")
    for i in range(0, len(bodies), group):
        tracer.batch = i
        with tracer.span(names[0]):
            arrays = [protocol.decode_packets(b) for b in bodies[i:i + group]]
        with tracer.span(names[1]):
            batch = arrays[0] if len(arrays) == 1 else \
                PacketArray.concatenate(arrays)
        with tracer.span(names[2]):
            verdicts = filt.process_batch(batch, exact=True)
        with tracer.span(names[3]):
            protocol.encode_verdicts(verdicts)
    return sum(tracer.total(name) for name in names)


def serve_layers(stream: LapStream, scale, protected, phases: dict,
                 client_tracer):
    """Per-layer metrics of a traced serve run, and the replay's tracer.

    The first :data:`TRACED_FRAMES` frames of the (untraced) closed phase
    are replayed in-process twice, each time on a filter that
    starts empty at their first rotation boundary (the daemon's was warm,
    which changes verdicts, not the per-packet work): once bare, for the
    stage times, and once under the layer wrappers, for the filter-stack
    layers.  The bare replay's time over the traced one is the tracing
    overhead.
    """
    from harness import tracer as tracing
    from repro.core.filter_api import build_filter
    from repro.serve import protocol

    closed = phases["closed"]
    count = min(TRACED_FRAMES, closed["frames"])
    first = closed["first_frame"]
    header = len(protocol.encode_frame(protocol.FT_PACKETS))
    bodies = [protocol.encode_packets(stream.frame(j))[header:]
              for j in range(first, first + count)]
    group = max(1, round(closed["daemon"]["daemon.batch_packets.mean"]
                         / FRAME_PACKETS))
    cfg = filter_config(scale)
    start_ts = float(stream.frame(first).ts[0])
    anchor = cfg.rotation_interval * math.floor(start_ts
                                                / cfg.rotation_interval)

    def fresh_filter():
        return build_filter(cfg, protected, start_time=anchor,
                            backend="serial")

    stages = tracing.Tracer()
    replayed = replay(bodies, fresh_filter(), group, stages)
    # The daemon's own filter time for these frames: its batch seconds,
    # prorated from the whole closed phase.
    daemon_filter_s = (closed["daemon"]["daemon.batch_seconds.sum"]
                       * count / closed["frames"])
    layer_tracer = tracing.Tracer()
    filt = fresh_filter()
    with tracing.install(layer_tracer) as installed:
        traced = replay(bodies, filt, group, layer_tracer)
    layer_tracer.missing = installed.missing

    out = layers.filter_layers(layer_tracer, filt)
    out.update(closed["daemon"])
    out.update({
        "client.encode_packets.s":
            client_tracer.total("client.encode_packets"),
        "client.decode_verdicts.s":
            client_tracer.total("client.decode_verdicts"),
        "client.recv_wait.s": client_tracer.self_total("client.stream_next"),
        "client.bytes_sent": client_tracer.counts.get("client.bytes_sent", 0),
        "replay.decode_packets.s": stages.total("replay.decode_packets"),
        "replay.concatenate.s": stages.total("replay.concatenate"),
        "replay.process_batch.s": stages.total("replay.process_batch"),
        "replay.encode_verdicts.s": stages.total("replay.encode_verdicts"),
        # Wall time the daemon took for the same frames in the closed
        # phase, minus its own filter time and the replayed decode,
        # concatenate and encode stages: the asyncio and socket share.
        "serve.unattributed_s": (closed["arrivals"][count - 1]
                                 - daemon_filter_s - replayed
                                 + stages.total("replay.process_batch")),
        # The same frames through the same stages, bare and traced.
        "tracing.overhead": replayed / traced,
    })
    for name in layers.UNITS:
        out.setdefault(name, 0)
    return out, layer_tracer


def run(*, cache, scale_name: str, seed: int, seconds: float, trace: bool,
        daemon_cpu: int, client_cpu: int, setup_before: int,
        setup_after: int, spans_path) -> dict:
    os.sched_setaffinity(0, {client_cpu})
    scale = inputs.scale_for(scale_name, seed)
    clean = inputs.load(cache)
    protected = clean.protected
    cfg = scale.bitmap_config()
    stream = LapStream(clean.packets,
                       LapStream.lap_shift(clean.packets,
                                           cfg.rotation_interval,
                                           cfg.num_vectors),
                       FRAME_PACKETS)
    reference, laps_repeat = lap_reference(stream, scale, protected)

    setups: List[float] = []
    daemon: Optional[Daemon] = None
    phases: Dict[str, dict] = {}
    try:
        for i in range(1 + setup_before):
            daemon, client, sock, took = start(scale, protected, daemon_cpu)
            if i:
                setups.append(took)
            if i < setup_before:
                close(daemon, client)
        session = Session(stream, client, sock)
        gc.collect()
        gc.freeze()

        phases["warmup"] = session.closed_loop(max(0.5, seconds / 10))
        before = scrape(daemon.metrics_url)
        phases["closed"] = session.closed_loop(seconds)
        after = scrape(daemon.metrics_url)
        phases["closed"]["daemon"] = daemon_layers(
            before, after, phases["closed"]["seconds"])
        if trace:
            from harness import tracer as tracing

            client_tracer = tracing.Tracer()
            with tracing.install(client_tracer):
                phases["traced"] = session.closed_loop(frames=TRACED_FRAMES,
                                                       tracer=client_tracer)
        else:
            phases["open"] = session.open_loop(OPEN_RATE_PPS, OPEN_FRAMES)
        final = scrape(daemon.metrics_url)
        rss = daemon.peak_rss_mb()
        close(daemon, client)
        for _ in range(setup_after):
            daemon, client, _, took = start(scale, protected, daemon_cpu)
            setups.append(took)
            close(daemon, client)
    finally:
        if daemon is not None:
            daemon.stop()

    # -- verdicts against the offline reference -------------------------------
    served = np.concatenate(session.verdicts)
    sent = session.next_frame * FRAME_PACKETS
    expected = reference[np.arange(sent) % stream.lap_packets]
    check: List[str] = []
    failed = 0
    if len(served) != sent:
        failed += abs(sent - len(served))
        check.append(f"{len(served)} verdicts for {sent} packets")
    n = min(len(served), sent)
    mismatched = int((served[:n] != expected[:n]).sum())
    if mismatched:
        failed += mismatched
        check.append(f"{mismatched} served verdicts differ from offline")
    if not laps_repeat:
        failed += stream.lap_packets
        check.append("offline reference: second lap did not repeat the first")
    counted = final.get("repro_serve_packets_total", 0.0)
    shed = final.get("repro_serve_shed_packets_total", 0.0)
    if counted != sent or shed:
        failed += int(abs(sent - counted) + shed)
        check.append(f"daemon counted {counted:.0f} packets, shed {shed:.0f}"
                     f", client sent {sent}")

    metrics = {"pps": phases["closed"]["pps"],
               "setup_s": float(np.median(setups)),
               "peak_rss_mb": rss}
    notes = []
    if not trace:
        open_loop = phases["open"]
        if not open_loop["backlogged"]:
            metrics["verdict_p50_ms"] = open_loop["p50_ms"]
            metrics["verdict_p99_ms"] = open_loop["p99_ms"]
        notes.append(
            "open loop: offered {offered_pps:.0f} pps, delivered "
            "{delivered_pps:.0f} pps, {frames} frames, {beyond_p99} beyond "
            "p99; generator lateness p50 {late_p50_ms:.3f} ms, p99 "
            "{late_p99_ms:.3f} ms".format(**open_loop))
        if open_loop["backlogged"]:
            notes.append("open loop BACKLOGGED: delivered rate below the "
                         "offered rate, so no latency is reported")

    result = {"attempted": sent, "failed": failed, "check": check,
              "metrics": metrics, "notes": notes,
              "detail": {"setup_samples_s": setups, "phases": phases,
                         "frame_packets": FRAME_PACKETS, "window": WINDOW,
                         "lap_packets": stream.lap_packets,
                         "lap_shift_s": stream.shift,
                         "transport": "loopback TCP"}}
    if trace:
        result["layers"], layer_tracer = serve_layers(
            stream, scale, protected, phases, client_tracer)
        tracing.export(spans_path, client=client_tracer,
                       layers=layer_tracer)
        notes.extend(f"tracing: {name} is missing from the program"
                     for name in layer_tracer.missing)
    for phase in phases.values():
        phase.pop("arrivals", None)
    return result
