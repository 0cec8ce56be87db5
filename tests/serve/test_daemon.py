"""In-process FilterDaemon tests: parity, ordering, backpressure, lifecycle.

These boot the real daemon on an ephemeral loopback port inside the test's
event loop and talk to it with :class:`AsyncFilterClient` — the full wire
path (framing, micro-batching, ordered delivery) without subprocess cost.
The SIGTERM/subprocess path lives in ``test_shutdown.py``.
"""

import asyncio
import io
import json
import urllib.request

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.persistence import load_filter
from repro.core.resilience import FailPolicy
from repro.net.address import AddressSpace
from repro.net.packet import DIRECTION_INCOMING, PACKET_DTYPE, PacketArray
from repro.serve import (
    AsyncFilterClient,
    FilterDaemon,
    ServeConfig,
    ServerError,
)
from repro.cli import build_parser
from repro.serve import protocol
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.trace import Trace

PROTECTED = AddressSpace.class_c_block("172.16.0.0", 6)

FCFG = FilterConfig(order=12, num_vectors=4, rotation_interval=2.5)


def serve_config(**overrides) -> ServeConfig:
    fields = dict(filter=FCFG, protected=PROTECTED, http=False, port=0)
    fields.update(overrides)
    return ServeConfig(**fields)


def frames_of(packets: PacketArray, step: int = 500):
    return [packets[i:i + step] for i in range(0, len(packets), step)]


def offline_verdicts(trace, fcfg=FCFG, exact=True) -> np.ndarray:
    filt = BitmapFilter(fcfg, trace.protected)
    result = run_filter_on_trace(filt, trace, exact=exact)
    return np.asarray(result.verdicts, dtype=bool)


async def booted(config: ServeConfig) -> FilterDaemon:
    daemon = FilterDaemon(config)
    await daemon.start()
    return daemon


async def stop(daemon: FilterDaemon) -> None:
    daemon.request_shutdown()
    await daemon.drain()


def fetch(url: str) -> bytes:
    return urllib.request.urlopen(url, timeout=10.0).read()


class TestVerdictParity:
    async def test_serial_daemon_matches_offline_replay(self, tiny_trace):
        expected = offline_verdicts(tiny_trace)
        daemon = await booted(serve_config())
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            masks = await client.filter_stream(
                frames_of(tiny_trace.packets), window=8)
            await client.goodbye()
            await client.close()
        finally:
            await stop(daemon)
        np.testing.assert_array_equal(np.concatenate(masks), expected)

    async def test_windowed_mode_matches_offline_windowed(self, tiny_trace):
        expected = offline_verdicts(tiny_trace, exact=False)
        daemon = await booted(serve_config(exact=False,
                                           batch_max_packets=10 ** 9))
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            # One frame per call, huge coalescing ceiling: the daemon sees
            # the same batch boundaries the offline windowed run does only
            # if we send everything as one frame.
            mask = await client.filter(tiny_trace.packets)
            await client.goodbye()
            await client.close()
        finally:
            await stop(daemon)
        np.testing.assert_array_equal(mask, expected)


class TestProtocolSurface:
    async def test_ping_is_an_ordered_barrier(self, tiny_trace):
        daemon = await booted(serve_config())
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            # Send packets and a ping without awaiting the verdicts first;
            # the pong must arrive after the verdict frame.
            client._writer.write(
                protocol.encode_packets(tiny_trace.packets[:100]))
            client._writer.write(
                protocol.encode_frame(protocol.FT_PING, b"tok"))
            await client._writer.drain()
            first = await client._recv_frame()
            second = await client._recv_frame()
            assert first[0] == protocol.FT_VERDICTS
            assert len(first[1]) == 100
            assert second == (protocol.FT_PONG, b"tok")
            await client.goodbye()
            await client.close()
        finally:
            await stop(daemon)

    async def test_config_describes_the_filter(self):
        daemon = await booted(serve_config())
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            info = await client.config()
            await client.goodbye()
            await client.close()
        finally:
            await stop(daemon)
        assert info["filter"]["order"] == FCFG.order
        assert info["filter"]["rotation_interval"] == FCFG.rotation_interval
        assert info["clock"] == "packet"
        assert info["exact"] is True
        assert info["backpressure"] == "block"
        assert sorted(info["protected"]) == sorted(
            str(net) for net in PROTECTED.networks)

    async def test_malformed_stream_gets_error_frame(self):
        daemon = await booted(serve_config())
        try:
            reader, writer = await asyncio.open_connection(
                *daemon.data_address)
            writer.write(b"\x00\x00\x00\x01\x7f")  # unknown frame type
            await writer.drain()
            decoder = protocol.FrameDecoder()
            frames = []
            while not frames:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                frames.extend(decoder.feed(chunk))
            assert frames and frames[0][0] == protocol.FT_ERROR
            assert b"unknown frame type" in frames[0][1]
            writer.close()
        finally:
            await stop(daemon)

    async def test_server_error_raises_in_client(self, tiny_trace):
        daemon = await booted(serve_config())
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            # A verdicts frame is server->client only.
            client._writer.write(
                protocol.encode_frame(protocol.FT_VERDICTS, b"\x01"))
            await client._writer.drain()
            with pytest.raises(ServerError, match="server-only"):
                await client.filter(tiny_trace.packets[:10])
            await client.close()
        finally:
            await stop(daemon)

    async def test_unix_socket_transport(self, tiny_trace, tmp_path):
        path = str(tmp_path / "serve.sock")
        daemon = await booted(serve_config(unix_path=path))
        try:
            client = await AsyncFilterClient.connect_unix(path)
            mask = await client.filter(tiny_trace.packets[:50])
            assert len(mask) == 50
            await client.goodbye()
            await client.close()
        finally:
            await stop(daemon)


async def wedge_ingest(daemon: FilterDaemon) -> None:
    """Suspend the ingest loop and fill the queue so the next frame sheds."""
    daemon._ingest_task.cancel()
    try:
        await daemon._ingest_task
    except asyncio.CancelledError:
        pass
    daemon._ingest_task = None
    loop = asyncio.get_running_loop()
    empty = PacketArray(np.zeros(0, dtype=PACKET_DTYPE))
    while len(daemon._queue) < daemon.config.queue_frames:
        daemon._queue.append((object(), empty, loop.create_future()))


class TestBackpressure:
    async def test_shed_mode_answers_overflow_from_fail_policy(
            self, tiny_trace):
        daemon = await booted(serve_config(
            backpressure="shed", queue_frames=1))
        try:
            await wedge_ingest(daemon)
            client = await AsyncFilterClient.connect(*daemon.data_address)
            packets = tiny_trace.packets[:200]
            directions = packets.directions(PROTECTED)
            shed = await client.filter(packets)  # answered without a filter
            # FAIL_CLOSED shed: incoming dropped, everything else passes.
            np.testing.assert_array_equal(
                shed, directions != DIRECTION_INCOMING)
            assert daemon._m.shed_frames.value == 1
            assert daemon._m.shed_packets.value == len(packets)
            assert daemon._m.packets_total.value == 0  # filter untouched
            await client.close()
        finally:
            daemon._queue.clear()
            await stop(daemon)

    async def test_shed_mode_fail_open_admits_everything(self, tiny_trace):
        import dataclasses
        fcfg = dataclasses.replace(FCFG, fail_policy=FailPolicy.FAIL_OPEN)
        daemon = await booted(serve_config(
            filter=fcfg, backpressure="shed", queue_frames=1))
        try:
            await wedge_ingest(daemon)
            client = await AsyncFilterClient.connect(*daemon.data_address)
            shed = await client.filter(tiny_trace.packets[:100])
            assert shed.all()
            await client.close()
        finally:
            daemon._queue.clear()
            await stop(daemon)


class TestHotReload:
    async def test_fail_policy_swap_is_immediate(self):
        import dataclasses
        daemon = await booted(serve_config())
        try:
            new_cfg = dataclasses.replace(
                FCFG, fail_policy=FailPolicy.FAIL_OPEN)
            assert daemon.apply_config(new_cfg) == "immediate"
            assert daemon.filter.fail_policy is FailPolicy.FAIL_OPEN
            assert daemon.apply_config(new_cfg) == "unchanged"
        finally:
            await stop(daemon)

    async def test_geometry_change_rebuilds_at_rotation_boundary(
            self, tiny_trace):
        daemon = await booted(serve_config())
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            packets = tiny_trace.packets
            await client.filter(packets[:500])
            old_filter = daemon.filter
            new_cfg = FilterConfig(order=14, num_vectors=4,
                                   rotation_interval=2.5)
            assert daemon.apply_config(new_cfg) == "deferred-rebuild"
            assert daemon.filter is old_filter  # not yet
            # Stream small frames past the next rotation boundary; the
            # rebuild triggers on the first batch whose leading timestamp
            # crosses it (window=1 keeps every frame its own batch).
            await client.filter_stream(frames_of(packets[500:4000]),
                                       window=1)
            assert daemon.filter is not old_filter
            assert daemon.filter.config.order == 14
            # The lost marks are covered by a warm-up grace window.
            assert daemon.filter.warmup_until > 0
            assert daemon._m.reloads["rebuild"].value == 1
            await client.goodbye()
            await client.close()
        finally:
            await stop(daemon)

    async def test_rebuild_at_override_splits_the_batch(self, tiny_trace):
        """A shared ``rebuild_at`` is honored mid-batch: packets before
        the boundary see the old geometry, packets at/after it the new —
        byte-identical to the offline reconfig twin at the same boundary,
        no matter how the frames coalesced into batches."""
        from repro.sim.pipeline import run_filter_with_reconfig

        packets = tiny_trace.packets.sorted_by_time()[:6000]
        boundary = 5.0  # a rotation boundary (2 * dt) inside the batch
        ts = np.asarray(packets.ts, dtype=np.float64)
        assert ts[0] < boundary < ts[-1]  # the split is genuinely interior
        new_cfg = FilterConfig(order=14, num_vectors=4,
                               rotation_interval=2.5)
        expected = run_filter_with_reconfig(
            FCFG, new_cfg, Trace(packets, tiny_trace.protected), boundary)
        daemon = await booted(serve_config())
        try:
            assert daemon.apply_config(new_cfg, rebuild_at=boundary) == \
                "deferred-rebuild"
            client = await AsyncFilterClient.connect(*daemon.data_address)
            # One giant window so micro-batching coalesces frames
            # arbitrarily — the boundary split must not care.
            masks = await client.filter_stream(frames_of(packets),
                                               window=8)
            await client.goodbye()
            await client.close()
            assert daemon.filter.config.order == 14
            assert daemon._m.reloads["rebuild"].value == 1
        finally:
            await stop(daemon)
        np.testing.assert_array_equal(np.concatenate(masks), expected)

    async def test_rebuild_at_beyond_the_traffic_never_fires(self,
                                                             tiny_trace):
        daemon = await booted(serve_config())
        try:
            new_cfg = FilterConfig(order=14, num_vectors=4,
                                   rotation_interval=2.5)
            daemon.apply_config(new_cfg, rebuild_at=1e9)
            client = await AsyncFilterClient.connect(*daemon.data_address)
            await client.filter(tiny_trace.packets[:2000])
            await client.goodbye()
            await client.close()
            assert daemon.filter.config.order == FCFG.order  # still pending
            assert daemon.health()["pending_rebuild"] is True
        finally:
            await stop(daemon)

    async def test_sighup_reload_file(self, tmp_path):
        reload_path = tmp_path / "filter.json"
        reload_path.write_text(json.dumps({
            "order": FCFG.order, "num_vectors": FCFG.num_vectors,
            "num_hashes": FCFG.num_hashes,
            "rotation_interval": FCFG.rotation_interval,
            "seed": FCFG.seed, "fail_policy": "fail_open"}))
        daemon = await booted(serve_config(reload_path=str(reload_path)))
        try:
            daemon.request_reload()
            assert daemon.filter.fail_policy is FailPolicy.FAIL_OPEN
        finally:
            await stop(daemon)

    async def test_reload_file_carries_the_shared_boundary(self, tmp_path):
        """A fleet supervisor's reload JSON names the shared rebuild_at;
        the daemon echoes both the pending geometry and the boundary on
        /healthz so the roll can confirm before touching the next node."""
        reload_path = tmp_path / "filter.json"
        reload_path.write_text(json.dumps({
            "order": 14, "num_vectors": FCFG.num_vectors,
            "num_hashes": FCFG.num_hashes,
            "rotation_interval": FCFG.rotation_interval,
            "seed": FCFG.seed, "fail_policy": "fail_closed",
            "rebuild_at": 12.5}))
        daemon = await booted(serve_config(reload_path=str(reload_path)))
        try:
            daemon.request_reload()
            health = daemon.health()
            assert health["pending_rebuild"] is True
            assert health["pending_rebuild_at"] == 12.5
            assert health["pending_geometry"]["order"] == 14
            assert health["filter"]["order"] == FCFG.order  # live unchanged
        finally:
            await stop(daemon)

    async def test_bad_reload_file_is_rejected_not_fatal(self, tmp_path):
        reload_path = tmp_path / "filter.json"
        reload_path.write_text('{"order": 12, "bogus_knob": 1}')
        daemon = await booted(serve_config(reload_path=str(reload_path)))
        try:
            daemon.request_reload()  # prints a diagnostic, daemon survives
            assert daemon.filter.config.order == FCFG.order
        finally:
            await stop(daemon)


class TestHttp:
    async def test_metrics_healthz_snapshot(self, tiny_trace):
        daemon = await booted(serve_config(http=True, http_port=0))
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            await client.filter(tiny_trace.packets[:1000])
            await client.goodbye()
            await client.close()
            host, port = daemon.http_address
            base = f"http://{host}:{port}"
            metrics = (await asyncio.to_thread(fetch, base + "/metrics")) \
                .decode()
            assert "repro_serve_packets_total 1000" in metrics
            assert "repro_filter_marks_total" in metrics
            health = json.loads(await asyncio.to_thread(
                fetch, base + "/healthz"))
            assert health["status"] == "serving"
            assert health["packets_total"] == 1000
            snap = await asyncio.to_thread(fetch, base + "/snapshot")
            restored = load_filter(io.BytesIO(snap))
            assert restored.stats.incoming == \
                daemon.filter.stats.incoming
            not_found = await asyncio.to_thread(
                fetch_status, base + "/nope")
            assert not_found == 404
        finally:
            await stop(daemon)


def fetch_status(url: str) -> int:
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


class TestSnapshotRestore:
    async def test_snapshot_then_restore_resumes_identically(
            self, tiny_trace, tmp_path):
        """Stop mid-trace, snapshot, restore, finish: verdicts identical."""
        expected = offline_verdicts(tiny_trace)
        packets = tiny_trace.packets
        half = len(packets) // 2
        snap_path = str(tmp_path / "mid.npz")

        first = await booted(serve_config(snapshot_path=snap_path))
        client = await AsyncFilterClient.connect(*first.data_address)
        masks = await client.filter_stream(frames_of(packets[:half]),
                                           window=4)
        await client.goodbye()
        await client.close()
        await stop(first)  # writes the final snapshot

        second = await booted(serve_config(restore_path=snap_path))
        try:
            client = await AsyncFilterClient.connect(*second.data_address)
            masks += await client.filter_stream(frames_of(packets[half:]),
                                                window=4)
            await client.goodbye()
            await client.close()
        finally:
            await stop(second)
        np.testing.assert_array_equal(np.concatenate(masks), expected)


class TestWallClock:
    async def test_wall_mode_stamps_arrival_time_and_rotates(self):
        daemon = await booted(serve_config(
            clock="wall",
            filter=FilterConfig(order=10, num_vectors=4,
                                rotation_interval=0.05)))
        try:
            client = await AsyncFilterClient.connect(*daemon.data_address)
            row = np.zeros(1, dtype=protocol.WIRE_DTYPE)
            row["ts"] = 1e9  # bogus client timestamp: daemon re-stamps
            packets = protocol.decode_packets(row.tobytes())
            mask = await client.filter(packets)
            assert len(mask) == 1
            # The filter's clock is the scheduler's, not the packet's.
            assert daemon.filter.next_rotation < 1.0
            before = daemon.filter.stats.rotations
            await asyncio.sleep(0.25)
            assert daemon.filter.stats.rotations > before
            await client.goodbye()
            await client.close()
        finally:
            await stop(daemon)


class TestDrainSemantics:
    async def test_shutdown_mid_stream_still_answers_everything(
            self, tiny_trace):
        """Frames already received when SIGTERM lands still get verdicts."""
        daemon = await booted(serve_config())
        client = await AsyncFilterClient.connect(*daemon.data_address)
        batches = frames_of(tiny_trace.packets, step=200)
        for batch in batches:
            client._writer.write(protocol.encode_packets(batch))
        await client._writer.drain()
        await asyncio.sleep(0)  # let the reader pick some frames up
        daemon.request_shutdown()
        drained = asyncio.get_running_loop().create_task(daemon.drain())
        received = []
        try:
            while len(received) < len(batches):
                frame_type, body = await asyncio.wait_for(
                    client._recv_frame(), timeout=10.0)
                assert frame_type == protocol.FT_VERDICTS
                received.append(protocol.decode_verdicts(body))
        except ConnectionError:
            pass
        await drained
        # Every frame the daemon read before the listeners closed got an
        # in-order verdict; a tail cut off by the drain is allowed, but
        # what did arrive must prefix-match the offline run.
        got = np.concatenate(received) if received else np.zeros(0, bool)
        expected = offline_verdicts(tiny_trace)[:len(got)]
        np.testing.assert_array_equal(got, expected)
        await client.close()


class TestCommandLine:
    """``repro serve`` runs the filter in the daemon process only."""

    ARGS = ["serve", "--protected", "172.16.0.0/24", "--port", "0"]

    def test_backend_serial_still_parses(self):
        args = build_parser().parse_args(self.ARGS + ["--backend", "serial"])
        assert args.backend == "serial"

    @pytest.mark.parametrize("extra, message", [
        (["--backend", "shared"], "invalid choice"),
        (["--backend", "sharded"], "invalid choice"),
        (["--workers", "2"], "unrecognized arguments"),
    ])
    def test_removed_execution_flags_are_rejected(self, capsys, extra,
                                                  message):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(self.ARGS + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_serve_config_has_no_worker_fields(self):
        for field in ("workers", "backend", "mp_context"):
            with pytest.raises(TypeError, match=field):
                serve_config(**{field: 2})
