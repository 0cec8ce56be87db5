"""The shared-memory bitmap filter: one buffer, zero broadcast.

Why shared memory
-----------------
The sharded backend (:mod:`repro.parallel.sharded`) buys bit-for-bit
equivalence by replicating the bitmap into every worker and broadcasting
every outgoing mark — O(workers) pipe traffic per mark, which is pure
overhead and what capped measured serve throughput at ~440k pps.
:class:`SharedBitmapFilter` removes the broadcast entirely:

- **One copy of the bits.**  The {k x n}-bitmap lives in a single
  :class:`multiprocessing.shared_memory` segment
  (:class:`~repro.parallel.shm.SharedBitmap`).  The parent process is the
  only writer; reader workers attach by name and get zero-copy NumPy views
  of the same pages.  A mark is globally visible the moment the store
  retires — nothing is shipped anywhere.
- **Epoch-indexed rotation.**  ``rotate()`` bumps a shared epoch counter
  and zeroes only the retiring slab (no copied state); the index/epoch
  advance and the clear are one seqlocked unit, so a reader can never
  judge a packet against a retired epoch (the property suite proves it).
- **The serial batch kernel, unchanged.**  Batches run
  :class:`~repro.core.bitmap_filter.BitmapFilter`'s vectorized
  order-exact kernel against the shared buffer; nothing about that
  kernel needs shared memory, so serial runs it at the same speed.
- **Shard-aware APD.**  Adaptive packet dropping needs global arrival
  order, which is why the sharded backend never supported it.  Here the
  policy lives in the parent — the one process that sees every arrival in
  sequence, so drop decisions and RNG draws match serial exactly — and the
  global arrival counters are published into the shared header
  (:meth:`~repro.parallel.shm.SharedBitmap.publish_arrivals`) where every
  reader worker observes them.

Scalar lookups are partitioned across the reader workers exactly like the
sharded backend (``local_addr % N`` ownership), but the worker answers off
the *shared* bits under the seqlock instead of a private replica — which
is also what the differential suite exercises to prove cross-process
visibility.

Everything else — degraded mode, warm-up grace, rotation stalls, bit
flips, snapshot state, telemetry — is inherited unchanged from
:class:`~repro.core.bitmap_filter.BitmapFilter`, because the parent *is* a
serial filter whose bitmap happens to live in shared memory.
``tests/differential/`` holds the equivalence proof for this backend, the
sharded one, and serial, across the full fault matrix.
"""

from __future__ import annotations

import multiprocessing
import weakref
from typing import Optional

import numpy as np

from repro.core.apd import AdaptiveDroppingPolicy
from repro.core.bitmap_filter import AnyFilterConfig, BitmapFilter
from repro.core.resilience import FailPolicy
from repro.net.address import AddressSpace
from repro.net.packet import Packet, PacketArray
from repro.parallel.shared_worker import SharedWorkerSpec, shared_worker_main
from repro.parallel.shm import SharedBitmap
from repro.parallel.worker import ShardWorkerError
from repro.telemetry.registry import MetricsRegistry

__all__ = ["SharedBitmapFilter", "share_filter"]

_NEG_INF = float("-inf")


def _preferred_context(name: Optional[str] = None):
    """fork when the platform offers it (cheap, no re-import in children)."""
    if name is not None:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _shutdown(conns, processes, bitmap: SharedBitmap) -> None:
    """Finalizer: close readers, then unmap and unlink the segment."""
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
    bitmap.close()


class SharedBitmapFilter(BitmapFilter):
    """A bitmap filter whose bit state lives in shared memory.

    Subclasses :class:`~repro.core.bitmap_filter.BitmapFilter` — the parent
    process runs the complete serial algorithm (so stats, telemetry, fail
    policies, warm-up, stalls and snapshots are serial-identical by
    construction) — and adds:

    - ``N`` reader worker processes that answer partitioned scalar lookups
      off the shared bits under a seqlock,
    - the shared arrival counter that makes APD shard-aware.

    Unlike the sharded backend, adaptive packet dropping **is** supported:
    the policy runs in the parent, which observes every arrival in global
    order, exactly like serial.
    """

    def __init__(
        self,
        config: Optional[AnyFilterConfig] = None,
        protected: Optional[AddressSpace] = None,
        num_workers: int = 2,
        start_time: float = 0.0,
        fail_policy: Optional[FailPolicy] = None,
        *,
        apd: Optional[AdaptiveDroppingPolicy] = None,
        telemetry: Optional[MetricsRegistry] = None,
        mp_context: Optional[str] = None,
        **config_fields,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        super().__init__(
            config,
            protected,
            start_time=start_time,
            apd=apd,
            fail_policy=fail_policy,
            telemetry=telemetry,
            **config_fields,
        )
        # Replace the private in-process bitmap with the shared segment.
        self.bitmap = SharedBitmap(self.config.num_vectors, self.config.order)
        self.num_workers = num_workers
        self._closed = False

        spec_fields = dict(
            shm_name=self.bitmap.name,
            num_hashes=self.config.num_hashes,
            order=self.config.order,
            seed=self.config.seed,
            num_workers=num_workers,
        )
        ctx = _preferred_context(mp_context)
        self._conns = []
        self._procs = []
        for w in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=shared_worker_main,
                args=(child_conn,
                      SharedWorkerSpec(worker_index=w, **spec_fields)),
                name=f"repro-shared-{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _shutdown, self._conns, self._procs, self.bitmap)

    # -- wire helpers ---------------------------------------------------------

    def _request(self, worker: int, msg: tuple):
        self._conns[worker].send(msg)
        status, payload = self._conns[worker].recv()
        if status == "err":
            raise ShardWorkerError(
                f"shared reader worker {worker} failed:\n{payload}")
        return payload

    # -- reader introspection (property/differential suites) ------------------

    def worker_test_indices(self, worker: int, indices) -> tuple:
        """Seqlocked cross-process bit test: ``(hit, epoch)`` from a reader."""
        return self._request(worker, ("test_indices", tuple(indices)))

    def worker_header(self, worker: int) -> tuple:
        """The shared header words as seen by a reader process."""
        return self._request(worker, ("header",))

    def worker_vector(self, worker: int, index: int) -> bytes:
        """Raw slab bytes as seen by a reader process."""
        return self._request(worker, ("vector", index))

    def worker_epoch(self, worker: int) -> int:
        """The epoch counter as seen by a reader process."""
        return self._request(worker, ("epoch",))

    # -- scalar path ----------------------------------------------------------

    def _test_incoming(self, pkt: Packet) -> bool:
        """Route the lookup to the packet's owner reader (``dst % N``).

        The reader tests the same shared bits the parent would, under the
        seqlock; a closed filter falls back to the parent-side read so
        drained filters remain inspectable.
        """
        if self._closed:
            return super()._test_incoming(pkt)
        owner = pkt.dst % self.num_workers
        hit, _epoch = self._request(
            owner, ("test", pkt.proto, pkt.dst, pkt.dport, pkt.src))
        return hit

    def process(self, pkt: Packet):
        decision = super().process(pkt)
        self._publish_arrivals()
        return decision

    def _publish_arrivals(self) -> None:
        stats = self.stats
        self.bitmap.publish_arrivals(stats.total, stats.outgoing,
                                     stats.incoming)

    # -- batch path -----------------------------------------------------------

    def process_batch(self, packets: PacketArray, exact: bool = True, *,
                      directions: Optional[np.ndarray] = None) -> np.ndarray:
        verdict = super().process_batch(packets, exact=exact,
                                        directions=directions)
        self._publish_arrivals()
        return verdict

    # -- structural writes (seqlocked) ----------------------------------------

    def apply_snapshot_state(self, *args, **kwargs) -> None:
        with self.bitmap.write_guard():
            super().apply_snapshot_state(*args, **kwargs)
        self._publish_arrivals()

    def flip_bits(self, fraction: float, seed: int = 0xB17F11) -> int:
        with self.bitmap.write_guard():
            return super().flip_bits(fraction, seed)

    # -- lifecycle ------------------------------------------------------------

    @property
    def shared_memory_name(self) -> str:
        """The segment name reader workers (and diagnostics) attach to."""
        return self.bitmap.name

    def close(self) -> None:
        """Shut the readers down and release the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SharedBitmapFilter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"SharedBitmapFilter(workers={self.num_workers}, "
            f"k={cfg.num_vectors}, n={cfg.order}, m={cfg.num_hashes}, "
            f"dt={cfg.rotation_interval}, Te={cfg.expiry_timer}, "
            f"shm={self.bitmap.name!r})"
        )


def share_filter(
    filt: BitmapFilter,
    num_workers: int,
    *,
    mp_context: Optional[str] = None,
    telemetry: Optional[MetricsRegistry] = None,
) -> SharedBitmapFilter:
    """Wrap a *pristine* serial filter's configuration in a shared one.

    The donor only contributes configuration (geometry, protected space,
    fail policy, APD policy, any open warm-up window, rotation schedule
    origin); a filter that has already processed packets is refused loudly
    rather than silently diverging — mirror of
    :func:`repro.parallel.sharded.shard_filter`.
    """
    if isinstance(filt, SharedBitmapFilter):
        return filt
    if filt.stats.total or filt.stats.rotations or not filt.bitmap.is_empty():
        raise ValueError(
            "share_filter needs a pristine filter: this one has already "
            "processed traffic, so its bit state cannot be reproduced "
            "by a fresh shared segment")
    start_time = filt.next_rotation - filt.config.rotation_interval
    shared = SharedBitmapFilter(
        filt.config,
        filt.protected,
        num_workers=num_workers,
        start_time=start_time,
        fail_policy=filt.fail_policy,
        apd=filt.apd,
        telemetry=telemetry,
        mp_context=mp_context,
    )
    if filt.warmup_until > _NEG_INF:
        shared.begin_warmup(filt.warmup_until)
    return shared
