"""The sharded bitmap filter: N worker processes, one serial-equivalent view.

Why replicated marking
----------------------
A naive shard-by-key split (each worker owns ``1/N`` of the keyspace and
only sees its own packets) is **not** bit-for-bit equivalent to the serial
filter: Bloom lookups are judged against *every* mark in the bitmap, so a
cross-shard hash collision that admits a packet serially would be missing
from the owner's partial bitmap.  The design here keeps exact equivalence:

- **Marks are broadcast.**  Every outgoing packet goes to every worker, so
  each worker's {k x n}-bitmap is byte-for-byte identical to the serial
  filter's at any packet timestamp (rotations are driven by packet
  timestamps, not wall-clock, so replicas rotate in lockstep).
- **Lookups are partitioned.**  Incoming/internal/transit packets go only
  to their owner — ``local_addr % N`` on the vectorized direction split
  (incoming: ``dst``; otherwise ``src``) — which judges them against its
  (identical) replica.  Only the owner's verdict is kept, re-scattered into
  input order.

Outgoing traffic is a small fraction of an attack workload (the expensive
side is the flood of incoming lookups), so partitioned lookups are where
the parallel speedup comes from while broadcast marking buys equality.

Stats merge with the same ownership logic: outgoing-side counters are read
from worker 0 (every worker saw every outgoing packet, so they all agree);
incoming/internal/transit counters are summed (disjoint by ownership).

Control operations (``fail``/``recover``/``stall_rotations``/
``flip_bits``/…) are broadcast, preceded by a sync that advances every
worker to the last globally dispatched timestamp — this keeps
rotation-schedule-dependent behavior (e.g. ``recover``'s missed-rotation
count, which sizes the default warm-up grace) identical to serial.  The
sync is skipped while the filter is down, because the serial filter's
rotation schedule freezes during an outage.

``tests/differential/`` holds the proof: identical traces through serial
and sharded filters, asserting bit-for-bit verdict, stats, telemetry, and
snapshot agreement, across rotation boundaries, fault injection, and both
fail policies.
"""

from __future__ import annotations

import multiprocessing
import weakref
from typing import List, Optional

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.bitmap_filter import (
    AnyFilterConfig,
    BitmapFilter,
    BitmapFilterConfig,
    FilterConfig,
    FilterStats,
)
from repro.core.filter_api import Decision, PacketFilterMixin
from repro.core.resilience import FailPolicy
from repro.net.address import AddressSpace
from repro.net.packet import (
    DIRECTION_INCOMING,
    DIRECTION_OUTGOING,
    Direction,
    Packet,
    PacketArray,
)
from repro.parallel.worker import (
    ShardWorkerError,
    WorkerSpec,
    shard_worker_main,
)
from repro.telemetry.merge import apply_dump
from repro.telemetry.registry import MetricsRegistry, get_registry

__all__ = ["ShardedBitmapFilter", "shard_filter"]

_NEG_INF = float("-inf")


def _preferred_context(name: Optional[str] = None):
    """fork when the platform offers it (cheap, inherits numpy pages)."""
    if name is not None:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def _shutdown(conns, processes) -> None:
    """Finalizer: best-effort orderly close, then terminate stragglers."""
    for conn in conns:
        try:
            conn.send(("close",))
        except (BrokenPipeError, OSError):
            pass
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for proc in processes:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)


class _ShardInstruments:
    """Parent-side telemetry for a live registry: the unified serial-parity
    counters (published under ``path="sharded"``) plus per-shard detail."""

    __slots__ = ("registry", "marks", "admits", "drops", "rotations",
                 "warmup_admits", "degraded_admits", "degraded_drops",
                 "degraded", "stalled", "warmup_until", "shard_packets",
                 "published")

    def __init__(self, registry: MetricsRegistry, num_workers: int):
        self.registry = registry
        path = {"path": "sharded"}
        self.marks = registry.counter(
            "repro_filter_marks_total",
            "Outgoing packets marked into the bitmap, by admission path",
            **path)
        self.admits = registry.counter(
            "repro_filter_admits_total",
            "Incoming packets admitted while the filter is up, by path",
            **path)
        self.drops = registry.counter(
            "repro_filter_drops_total",
            "Incoming packets dropped while the filter is up, by path",
            **path)
        self.rotations = registry.counter(
            "repro_filter_rotations_total", "Bitmap rotations performed")
        self.warmup_admits = registry.counter(
            "repro_filter_warmup_admits_total",
            "Bitmap misses admitted by the warm-up grace window")
        self.degraded_admits = registry.counter(
            "repro_filter_degraded_admits_total",
            "Inbound packets admitted by the fail policy while down")
        self.degraded_drops = registry.counter(
            "repro_filter_degraded_drops_total",
            "Inbound packets dropped by the fail policy while down")
        self.degraded = registry.gauge(
            "repro_filter_degraded",
            "1 while the filter is down and verdicts come from the fail policy")
        self.stalled = registry.gauge(
            "repro_filter_rotations_stalled",
            "1 while the rotation timer is wedged")
        self.warmup_until = registry.gauge(
            "repro_filter_warmup_until_seconds",
            "End of the active warm-up grace window in simulated time "
            "(0 when inactive)")
        self.shard_packets = [
            registry.counter(
                "repro_shard_packets_total",
                "Packets dispatched to each shard worker "
                "(broadcast marks + owned lookups)",
                shard=str(w))
            for w in range(num_workers)
        ]
        self.degraded.set(0)
        self.stalled.set(0)
        self.warmup_until.set(0)
        self.published = {
            "marks": 0, "admits": 0, "drops": 0, "warmup": 0,
            "deg_admits": 0, "deg_drops": 0, "rotations": 0,
        }

    def publish(self, parts: List[dict], next_rotation: float,
                rotation_interval: float) -> None:
        """Credit the delta between the merged counters and what was
        already published; tick the Δt samplers once per new rotation."""
        w0 = parts[0]
        current = {
            "marks": w0["outgoing"] - w0["unmarked_outgoing"]
            - w0["marks_suppressed"],
            "admits": sum(p["incoming_passed"] for p in parts)
            - sum(p["degraded_admitted"] for p in parts),
            "drops": sum(p["incoming_dropped"] for p in parts)
            - sum(p["degraded_dropped"] for p in parts),
            "warmup": sum(p["warmup_admitted"] for p in parts),
            "deg_admits": sum(p["degraded_admitted"] for p in parts),
            "deg_drops": sum(p["degraded_dropped"] for p in parts),
            "rotations": w0["rotations"],
        }
        prev = self.published
        counters = {
            "marks": self.marks, "admits": self.admits, "drops": self.drops,
            "warmup": self.warmup_admits, "deg_admits": self.degraded_admits,
            "deg_drops": self.degraded_drops, "rotations": self.rotations,
        }
        for key, counter in counters.items():
            delta = current[key] - prev[key]
            if delta > 0:
                counter.inc(delta)
        new_rotations = current["rotations"] - prev["rotations"]
        for i in range(new_rotations, 0, -1):
            self.registry.tick(next_rotation - i * rotation_interval)
        self.published = current


class ShardedBitmapFilter(PacketFilterMixin):
    """N-worker sharded execution of one logical bitmap filter.

    Speaks the full :class:`~repro.core.filter_api.PacketFilter` protocol
    plus the :class:`~repro.core.bitmap_filter.BitmapFilter` control
    surface (degraded mode, warm-up, rotation stalls, bit flips, snapshot
    state), so the fault harness and every experiment run against it
    unchanged.  See the module docstring for the equivalence argument.

    Adaptive packet dropping is not supported (its drop decisions depend on
    global arrival order); :func:`repro.core.filter_api.build_filter`
    falls back to a serial filter when an APD policy is requested.
    """

    def __init__(
        self,
        config: Optional[AnyFilterConfig] = None,
        protected: Optional[AddressSpace] = None,
        num_workers: int = 2,
        start_time: float = 0.0,
        fail_policy: Optional[FailPolicy] = None,
        *,
        telemetry: Optional[MetricsRegistry] = None,
        mp_context: Optional[str] = None,
        **config_fields,
    ):
        if protected is None:
            raise TypeError(
                "ShardedBitmapFilter requires a protected AddressSpace")
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if config is None:
            config = FilterConfig(**config_fields)
        elif config_fields:
            raise TypeError("pass either a config object or bare config "
                            "fields, not both")
        warmup_until = _NEG_INF
        if isinstance(config, FilterConfig):
            if fail_policy is None:
                fail_policy = config.fail_policy
            if config.warmup_grace > 0:
                warmup_until = start_time + config.warmup_grace
            config = config.bitmap_config()
        if fail_policy is None:
            fail_policy = FailPolicy.FAIL_CLOSED

        self.config: BitmapFilterConfig = config
        self.protected = protected
        self.fail_policy = fail_policy
        self.num_workers = num_workers
        self.apd = None  # protocol parity with BitmapFilter; never supported
        self._down = False
        self._stalled = False
        self._last_ts = _NEG_INF
        self._stats_cache: Optional[FilterStats] = None
        self._closed = False

        registry = telemetry if telemetry is not None else get_registry()
        live = registry.enabled
        self._tel = _ShardInstruments(registry, num_workers) if live else None
        self._prev_dumps: List[Optional[list]] = [None] * num_workers

        spec = WorkerSpec(
            config=config,
            protected=protected,
            start_time=start_time,
            fail_policy=fail_policy,
            warmup_until=warmup_until,
            telemetry=live,
        )
        ctx = _preferred_context(mp_context)
        self._conns = []
        self._procs = []
        for w in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, spec),
                name=f"repro-shard-{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _shutdown, self._conns, self._procs)
        if self._tel is not None and warmup_until > _NEG_INF:
            self._tel.warmup_until.set(warmup_until)

    # -- wire helpers ---------------------------------------------------------

    def _recv(self, worker: int):
        status, payload = self._conns[worker].recv()
        if status == "err":
            raise ShardWorkerError(
                f"shard worker {worker} failed:\n{payload}")
        return payload

    def _request(self, worker: int, msg: tuple):
        self._conns[worker].send(msg)
        return self._recv(worker)

    def _broadcast(self, msg: tuple) -> list:
        for conn in self._conns:
            conn.send(msg)
        return [self._recv(w) for w in range(self.num_workers)]

    def _call_all(self, name: str, *args, **kwargs) -> list:
        return self._broadcast(("call", name, args, kwargs))

    def _note_time(self, ts: float) -> None:
        if ts > self._last_ts:
            self._last_ts = ts
        self._stats_cache = None

    def _sync(self) -> None:
        """Advance every worker to the last globally dispatched timestamp.

        Ran before control operations and state reads so that lazily
        rotated workers catch up to exactly where the serial filter would
        be.  Skipped while down: the serial rotation schedule freezes
        during an outage, and advancing here would change ``recover``'s
        missed-rotation count.
        """
        if self._down or self._last_ts == _NEG_INF:
            return
        self._broadcast(("call", "advance_to", (self._last_ts,), {}))

    # -- batch path -----------------------------------------------------------

    def process_batch(self, packets: PacketArray, exact: bool = True, *,
                      directions: Optional[np.ndarray] = None) -> np.ndarray:
        """Filter a time-sorted batch across the workers; PASS mask out.

        Outgoing packets are broadcast (replica marking); everything else
        goes to its ``local_addr % N`` owner.  Verdicts come back in
        sub-batch order and are re-scattered into input order; non-owned
        positions keep the serial semantics for their directions (outgoing,
        internal, and transit always pass — while down, incoming is judged
        by the owner's fail policy just as serial's down path does).
        """
        n = len(packets)
        verdict = np.ones(n, dtype=bool)
        if not n:
            return verdict
        if directions is None:
            directions = packets.directions(self.protected)
        outgoing = directions == DIRECTION_OUTGOING
        incoming = directions == DIRECTION_INCOMING
        local_addr = np.where(incoming, packets.dst, packets.src)
        owner = (local_addr.astype(np.uint64) % self.num_workers).astype(
            np.int64)

        data = packets.data
        positions: List[np.ndarray] = []
        for w, conn in enumerate(self._conns):
            mask = outgoing | (owner == w)
            pos = np.nonzero(mask)[0]
            positions.append(pos)
            conn.send(("batch", data[mask].tobytes(), exact))

        tel = self._tel
        stats_parts: List[dict] = []
        next_rotation = 0.0
        for w in range(self.num_workers):
            payload = self._recv(w)
            verdict_bytes, stats_dict, worker_next_rotation, dump = payload
            sub_verdicts = np.frombuffer(verdict_bytes, dtype=bool)
            pos = positions[w]
            owned = owner[pos] == w
            verdict[pos[owned]] = sub_verdicts[owned]
            stats_parts.append(stats_dict)
            if w == 0:
                next_rotation = worker_next_rotation
            if tel is not None:
                tel.shard_packets[w].inc(len(pos))
                if dump is not None:
                    apply_dump(tel.registry, dump, self._prev_dumps[w],
                               shard=str(w))
                    self._prev_dumps[w] = dump

        self._note_time(float(packets.ts[-1]))
        if tel is not None:
            tel.publish(stats_parts, next_rotation,
                        self.config.rotation_interval)
        return verdict

    # -- scalar path ----------------------------------------------------------

    def process(self, pkt: Packet) -> Decision:
        """Scalar twin of :meth:`process_batch`: broadcast outgoing marks,
        route lookups to the owner."""
        direction = pkt.direction(self.protected)
        if direction is Direction.OUTGOING:
            decision = self._call_all("process", pkt)[0]
        else:
            local = pkt.dst if direction is Direction.INCOMING else pkt.src
            decision = self._request(
                local % self.num_workers, ("call", "process", (pkt,), {}))
        self._note_time(pkt.ts)
        return decision

    # -- merged state ---------------------------------------------------------

    @staticmethod
    def _merge_stats(parts: List[FilterStats]) -> FilterStats:
        """Ownership-aware merge: outgoing-side fields from worker 0 (every
        worker saw every outgoing packet, so they are identical), the
        partitioned directions summed (disjoint by ownership)."""
        w0 = parts[0]
        return FilterStats(
            outgoing=w0.outgoing,
            incoming=sum(p.incoming for p in parts),
            incoming_dropped=sum(p.incoming_dropped for p in parts),
            incoming_passed=sum(p.incoming_passed for p in parts),
            internal=sum(p.internal for p in parts),
            transit=sum(p.transit for p in parts),
            apd_admitted=0,
            marks_suppressed=w0.marks_suppressed,
            rotations=w0.rotations,
            degraded_admitted=sum(p.degraded_admitted for p in parts),
            degraded_dropped=sum(p.degraded_dropped for p in parts),
            warmup_admitted=sum(p.warmup_admitted for p in parts),
            unmarked_outgoing=w0.unmarked_outgoing,
        )

    @property
    def stats(self) -> FilterStats:
        """The merged serial-equivalent counters (cached until mutation)."""
        if self._stats_cache is None:
            self._sync()
            parts = self._broadcast(("get", "stats"))
            self._stats_cache = self._merge_stats(parts)
        return self._stats_cache

    def per_worker_stats(self) -> List[FilterStats]:
        """Each worker's raw (un-merged) counters, for introspection."""
        self._sync()
        return self._broadcast(("get", "stats"))

    @property
    def bitmap(self) -> Bitmap:
        """A read-only *copy* of the replicated bitmap (worker 0's, which
        is identical to every other replica).  Mutating it does not affect
        the workers — use :meth:`flip_bits`/:meth:`mark_key` for that."""
        state = self._state()
        bitmap = Bitmap(self.config.num_vectors, self.config.order)
        for index, vec in enumerate(bitmap.vectors):
            vec.as_numpy()[:] = state["vectors"][index]
        bitmap._idx = state["current_index"]
        bitmap._rotations = state["bitmap_rotations"]
        bitmap._peak_utilization = state["peak_utilization"]
        return bitmap

    def _state(self) -> dict:
        self._sync()
        return self._request(0, ("state",))

    @property
    def next_rotation(self) -> float:
        self._sync()
        return self._request(0, ("get", "next_rotation"))

    @property
    def is_down(self) -> bool:
        return self._down

    @property
    def rotations_stalled(self) -> bool:
        return self._stalled

    @property
    def warmup_until(self) -> float:
        return self._request(0, ("get", "warmup_until"))

    def in_warmup(self, ts: float) -> bool:
        return ts < self.warmup_until

    def utilization(self) -> float:
        self._sync()
        return self._request(0, ("call", "utilization", (), {}))

    @property
    def peak_utilization(self) -> float:
        self._sync()
        return self._request(0, ("get", "peak_utilization"))

    def would_pass_incoming(self, pkt: Packet) -> bool:
        owner = pkt.dst % self.num_workers
        return self._request(
            owner, ("call", "would_pass_incoming", (pkt,), {}))

    # -- time & control surface ----------------------------------------------

    def advance_to(self, ts: float) -> int:
        ran = self._call_all("advance_to", ts)[0]
        self._note_time(ts)
        return ran

    def mark_key(self, proto: int, local_addr: int, local_port: int,
                 remote_addr: int) -> None:
        """Marks go to every replica, exactly like a broadcast outgoing."""
        self._call_all("mark_key", proto, local_addr, local_port, remote_addr)
        self._stats_cache = None

    def fail(self) -> None:
        self._sync()
        self._call_all("fail")
        self._down = True
        self._stats_cache = None
        if self._tel is not None:
            self._tel.degraded.set(1)

    def recover(self, now: float, warmup_grace: Optional[float] = None) -> int:
        missed = self._call_all(
            "recover", now, warmup_grace=warmup_grace)[0]
        self._down = False
        self._note_time(now)
        if self._tel is not None:
            self._tel.degraded.set(0)
            self._tel.warmup_until.set(self.warmup_until)
        return missed

    def begin_warmup(self, until: float) -> None:
        self._call_all("begin_warmup", until)
        self._stats_cache = None
        if self._tel is not None:
            self._tel.warmup_until.set(until)

    def stall_rotations(self) -> None:
        self._sync()
        self._call_all("stall_rotations")
        self._stalled = True
        self._stats_cache = None
        if self._tel is not None:
            self._tel.stalled.set(1)

    def resume_rotations(self, now: float, catch_up: bool = True) -> int:
        ran = self._call_all("resume_rotations", now, catch_up=catch_up)[0]
        self._stalled = False
        self._note_time(now)
        if self._tel is not None:
            self._tel.stalled.set(0)
        return ran

    def set_fail_policy(self, policy: FailPolicy) -> None:
        """Swap the fail policy on every replica (hot-reload surface)."""
        policy = FailPolicy(policy)
        self._call_all("set_fail_policy", policy)
        self.fail_policy = policy
        self._stats_cache = None

    def apply_snapshot_state(
        self,
        vectors: np.ndarray,
        current_index: int,
        bitmap_rotations: int,
        next_rotation: float,
        stats: Optional[dict] = None,
    ) -> None:
        """Load snapshot state into every replica (warm-start surface).

        The bit vectors and rotation bookkeeping are broadcast so the
        replicas stay byte-identical; the counters — whose incoming-side
        fields are *merged* totals that cannot be re-partitioned by owner —
        go to worker 0 only.  The ownership-aware stats merge reads
        outgoing-side fields from worker 0 and sums the partitioned ones,
        so the merged view reproduces the snapshot's counters exactly.
        """
        if self._down:
            raise ValueError("cannot load snapshot state while the filter "
                             "is down; recover it first")
        vectors = np.asarray(vectors, dtype=np.uint8)
        call_args = (vectors, current_index, bitmap_rotations, next_rotation)
        for w, conn in enumerate(self._conns):
            kwargs = {"stats": stats} if (w == 0 and stats is not None) else {}
            conn.send(("call", "apply_snapshot_state", call_args, kwargs))
        for w in range(self.num_workers):
            self._recv(w)
        # The replicas now sit exactly one interval before next_rotation;
        # remember that time so _sync() does not rewind or over-advance.
        boundary = next_rotation - self.config.rotation_interval
        if boundary > self._last_ts:
            self._last_ts = boundary
        self._stats_cache = None

    def flip_bits(self, fraction: float, seed: int = 0xB17F11) -> int:
        """Broadcast deterministic corruption: every replica flips the same
        bits, so the replicas stay byte-identical (and identical to what a
        serial filter fed the same call would hold)."""
        self._sync()
        flipped = self._call_all("flip_bits", fraction, seed)[0]
        self._stats_cache = None
        return flipped

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down (idempotent; also runs at GC)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardedBitmapFilter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"ShardedBitmapFilter(workers={self.num_workers}, "
            f"k={cfg.num_vectors}, n={cfg.order}, m={cfg.num_hashes}, "
            f"dt={cfg.rotation_interval}, Te={cfg.expiry_timer})"
        )


def shard_filter(
    filt: BitmapFilter,
    num_workers: int,
    *,
    mp_context: Optional[str] = None,
    telemetry: Optional[MetricsRegistry] = None,
) -> ShardedBitmapFilter:
    """Wrap a *pristine* serial filter's configuration in a sharded one.

    The donor only contributes configuration (geometry, protected space,
    fail policy, any open warm-up window, rotation schedule origin); its
    bit state is not shipped, so a filter that has already processed
    packets is refused loudly rather than silently diverging.
    """
    if isinstance(filt, ShardedBitmapFilter):
        return filt
    if filt.apd is not None:
        raise ValueError(
            "adaptive packet dropping needs global arrival order, which "
            "sharded replicas never see; use the shared backend "
            "(share_filter / backend=\"shared\") or stay serial")
    if filt.stats.total or filt.stats.rotations or not filt.bitmap.is_empty():
        raise ValueError(
            "shard_filter needs a pristine filter: this one has already "
            "processed traffic, so its bit state cannot be reproduced "
            "by fresh worker replicas")
    start_time = filt.next_rotation - filt.config.rotation_interval
    sharded = ShardedBitmapFilter(
        filt.config,
        filt.protected,
        num_workers=num_workers,
        start_time=start_time,
        fail_policy=filt.fail_policy,
        telemetry=telemetry,
        mp_context=mp_context,
    )
    if filt.warmup_until > _NEG_INF:
        sharded.begin_warmup(filt.warmup_until)
    return sharded
