"""The bitmap filter: Algorithm 2 (``b.filter``) driven by simulated time.

:class:`BitmapFilter` wraps a :class:`~repro.core.bitmap.Bitmap` with

- direction classification against the protected client address space,
- the directional tuple keys of Section 3.3 (outgoing marks
  ``{saddr, sport, daddr}``; incoming checks ``{daddr, dport, saddr}``),
- timestamp-driven rotation (``b.rotate`` every ``dt`` seconds),
- optional adaptive packet dropping (Section 5.3),
- one vectorized batch kernel with two modes, run once per rotation
  window: *exact*, which resolves the order of marks and tests inside the
  window and so gives exactly the verdicts, stats and bits of
  :meth:`BitmapFilter.process` per packet, and *windowed*, which marks
  first and tests after (see ``process_batch_windowed`` for the
  approximation argument),
- degraded-mode machinery for operational faults: a
  :class:`~repro.core.resilience.FailPolicy` applied while the filter is
  down (:meth:`BitmapFilter.fail` / :meth:`BitmapFilter.recover`), a
  post-restore warm-up grace window (:meth:`BitmapFilter.begin_warmup`),
  and rotation-stall handling with missed-rotation catch-up
  (:meth:`BitmapFilter.stall_rotations` / :meth:`BitmapFilter.resume_rotations`), and
- optional runtime telemetry (see :mod:`repro.telemetry`): admits/drops/
  marks counters per admission path, rotation count/duration, and
  degraded-mode gauges, all behind a single ``is not None`` guard so the
  default (null-registry) hot path pays nothing.

Construction takes one keyword-only :class:`FilterConfig` (geometry plus
the fail policy and warm-up grace) or its bare keyword fields::

    BitmapFilter(FilterConfig(order=16), protected)
    BitmapFilter(protected=protected, order=16, rotation_interval=2.5)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from time import perf_counter
from typing import Optional

import numpy as np

from repro.core.apd import AdaptiveDroppingPolicy
from repro.core.bitmap import Bitmap
from repro.core.bitvector import byte_masks
from repro.core.filter_api import Decision, PacketFilterMixin, normalize_layers
from repro.core.hashing import HashFamily
from repro.core.resilience import FailPolicy
from repro.net.address import AddressSpace
from repro.net.flow import bitmap_key_incoming, bitmap_key_outgoing
from repro.net.packet import (
    DIRECTION_INCOMING,
    DIRECTION_INTERNAL,
    DIRECTION_OUTGOING,
    DIRECTION_TRANSIT,
    Direction,
    Packet,
    PacketArray,
)
from repro.telemetry.registry import MetricsRegistry, get_registry

__all__ = [
    "BitmapFilter",
    "Decision",
    "FilterConfig",
    "FilterStats",
    "GEOMETRY_FIELDS",
]


#: The fields that fix a filter's bit layout, hashing and layer stack.  A
#: change to any of them cannot be applied to live bit state: it rebuilds
#: the filter (see :class:`repro.core.session.FilterSession`).
GEOMETRY_FIELDS = ("order", "num_vectors", "num_hashes", "rotation_interval",
                   "seed", "layers")


@dataclass(frozen=True, kw_only=True)
class FilterConfig:
    """Keyword-only config of a deployed {k x n}-bitmap filter.

    Bundles the bitmap geometry (k, n), hash family (m, seed), rotation
    timing (Δt), the layer stack, and the operational knobs — fail policy
    and warm-up grace — into one frozen object.  Defaults are the paper's
    evaluation setup (Section 4.3): a 512 KB {4 x 20}-bitmap with 3 hash
    functions rotating every 5 seconds, i.e. ``Te = k * dt = 20`` s::

        FilterConfig(order=16, num_vectors=4, rotation_interval=2.5,
                     fail_policy=FailPolicy.FAIL_OPEN, warmup_grace=10.0)

    :meth:`as_dict`/:meth:`from_dict` give its JSON form (daemon
    self-description, SIGHUP reload file, fleet reconfig).
    """

    order: int = 20              # n: each vector has 2**n bits
    num_vectors: int = 4         # k: number of bloom-filter rows
    num_hashes: int = 3          # m: hash functions
    rotation_interval: float = 5.0  # dt seconds
    seed: int = 0x5EED           # hash-family seed
    fail_policy: FailPolicy = FailPolicy.FAIL_CLOSED
    warmup_grace: float = 0.0    # grace window opened at construction
    layers: tuple = ()           # layer specs build_filter wraps around the base

    def __post_init__(self) -> None:
        if self.rotation_interval <= 0:
            raise ValueError("rotation interval must be positive")
        if self.num_hashes < 1:
            raise ValueError("need at least one hash function")
        if self.warmup_grace < 0:
            raise ValueError("warm-up grace cannot be negative")
        object.__setattr__(self, "layers", normalize_layers(self.layers))

    def as_dict(self) -> dict:
        """The JSON-safe form: fail policy by value, layers as spec dicts."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["fail_policy"] = self.fail_policy.value
        data["layers"] = [spec.as_dict() for spec in self.layers]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FilterConfig":
        """The config a JSON object names (any subset of :meth:`as_dict`'s
        keys); unknown keys raise ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("a filter config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown filter config fields: {sorted(unknown)}")
        data = dict(data)
        if "fail_policy" in data:
            data["fail_policy"] = FailPolicy(data["fail_policy"])
        return cls(**data)

    @property
    def expiry_timer(self) -> float:
        """Te = k * dt — the nominal lifetime of a mark."""
        return self.num_vectors * self.rotation_interval

    @property
    def guaranteed_window(self) -> float:
        """(k-1) * dt — a mark is *guaranteed* visible for this long."""
        return (self.num_vectors - 1) * self.rotation_interval

    @property
    def memory_bytes(self) -> int:
        return self.num_vectors * (1 << self.order) // 8

    @classmethod
    def from_bitmap_config(cls, config: "FilterConfig",
                           **extra) -> "FilterConfig":
        """``config`` with ``extra`` fields replaced; the entry point the
        serve benchmark harness builds its daemon config through."""
        return replace(config, **extra)

    @classmethod
    def paper_default(cls) -> "FilterConfig":
        """The {4 x 20}-bitmap, m=3, dt=5 configuration of Section 4.3."""
        return cls()


@dataclass
class FilterStats:
    """Counters accumulated by a filter instance."""

    outgoing: int = 0
    incoming: int = 0
    incoming_dropped: int = 0
    incoming_passed: int = 0
    internal: int = 0
    transit: int = 0
    apd_admitted: int = 0  # would-be drops admitted by adaptive dropping
    marks_suppressed: int = 0  # outgoing signal packets not marked (APD policy)
    rotations: int = 0
    degraded_admitted: int = 0   # inbound admitted by FAIL_OPEN while down
    degraded_dropped: int = 0    # inbound dropped by FAIL_CLOSED while down
    warmup_admitted: int = 0     # bitmap misses admitted by the warm-up grace
    unmarked_outgoing: int = 0   # outgoing seen while down (marks lost)

    @property
    def total(self) -> int:
        return self.outgoing + self.incoming + self.internal + self.transit

    @property
    def incoming_drop_rate(self) -> float:
        if not self.incoming:
            return 0.0
        return self.incoming_dropped / self.incoming

    def as_dict(self) -> dict:
        return asdict(self)


#: Admission-path labels used by the telemetry counters.
_PATHS = ("scalar", "exact_batch", "windowed_batch")


class _FilterInstruments:
    """Bound telemetry instruments for one live-registry filter instance.

    Created only when the registry is enabled; the filter stores ``None``
    otherwise, so every hot-path guard is a single identity check.
    """

    __slots__ = (
        "registry", "marks", "admits", "drops", "rotations",
        "rotation_seconds", "degraded", "stalled", "warmup_until",
        "warmup_admits", "degraded_admits", "degraded_drops",
    )

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.marks = {
            path: registry.counter(
                "repro_filter_marks_total",
                "Outgoing packets marked into the bitmap, by admission path",
                path=path,
            ) for path in _PATHS
        }
        self.admits = {
            path: registry.counter(
                "repro_filter_admits_total",
                "Incoming packets admitted while the filter is up, by path",
                path=path,
            ) for path in _PATHS
        }
        self.drops = {
            path: registry.counter(
                "repro_filter_drops_total",
                "Incoming packets dropped while the filter is up, by path",
                path=path,
            ) for path in _PATHS
        }
        self.rotations = registry.counter(
            "repro_filter_rotations_total", "Bitmap rotations performed")
        self.rotation_seconds = registry.histogram(
            "repro_filter_rotation_seconds",
            "Wall-clock duration of each bitmap rotation")
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
        self.warmup_admits = registry.counter(
            "repro_filter_warmup_admits_total",
            "Bitmap misses admitted by the warm-up grace window")
        self.degraded_admits = registry.counter(
            "repro_filter_degraded_admits_total",
            "Inbound packets admitted by the fail policy while down")
        self.degraded_drops = registry.counter(
            "repro_filter_degraded_drops_total",
            "Inbound packets dropped by the fail policy while down")
        self.degraded.set(0)
        self.stalled.set(0)
        self.warmup_until.set(0)

    def on_rotation(self, boundary_ts: float, seconds: float) -> None:
        """One rotation finished: count it, time it, pulse the Δt samplers."""
        self.rotations.inc()
        self.rotation_seconds.observe(seconds)
        self.registry.tick(boundary_ts)

    @staticmethod
    def stats_snapshot(stats: FilterStats) -> tuple:
        """The stat fields batch accounting diffs against."""
        return (stats.outgoing, stats.incoming_passed,
                stats.incoming_dropped, stats.warmup_admitted)

    def count_batch(self, path: str, stats: FilterStats, before: tuple) -> None:
        """Credit one batch's stat deltas to the per-path counters."""
        outgoing0, passed0, dropped0, warmup0 = before
        marks = stats.outgoing - outgoing0
        admits = stats.incoming_passed - passed0
        drops = stats.incoming_dropped - dropped0
        warmup = stats.warmup_admitted - warmup0
        if marks:
            self.marks[path].inc(marks)
        if admits:
            self.admits[path].inc(admits)
        if drops:
            self.drops[path].inc(drops)
        if warmup:
            self.warmup_admits.inc(warmup)


class BitmapFilter(PacketFilterMixin):
    """A deployed bitmap filter protecting one client address space.

    Implements the unified :class:`~repro.core.filter_api.PacketFilter`
    protocol (``observe_out``/``admit_in`` and their batch variants) on top
    of the generic ``process``/``process_batch`` entry points.
    """

    def __init__(
        self,
        config: Optional[FilterConfig] = None,
        protected: Optional[AddressSpace] = None,
        start_time: float = 0.0,
        apd: Optional[AdaptiveDroppingPolicy] = None,
        fail_policy: Optional[FailPolicy] = None,
        *,
        telemetry: Optional[MetricsRegistry] = None,
        **config_fields,
    ):
        if protected is None:
            raise TypeError("BitmapFilter requires a protected AddressSpace")
        if config is None:
            config = FilterConfig(**config_fields)
        elif config_fields:
            raise TypeError("pass either a config object or bare config "
                            "fields, not both")
        if fail_policy is None:
            fail_policy = config.fail_policy

        # The filter keeps the geometry only: its live fail policy is
        # ``self.fail_policy`` and its layers wrap it from outside.
        self.config = replace(config, fail_policy=FailPolicy.FAIL_CLOSED,
                              warmup_grace=0.0, layers=())
        self.protected = protected
        self.bitmap = Bitmap(config.num_vectors, config.order)
        self.hashes = HashFamily(config.num_hashes, config.order, config.seed)
        self.apd = apd
        self.fail_policy = fail_policy
        self.stats = FilterStats()
        self._next_rotation = start_time + config.rotation_interval
        self._down = False
        self._stalled = False
        self._warmup_until = float("-inf")

        registry = telemetry if telemetry is not None else get_registry()
        self._tel = _FilterInstruments(registry) if registry.enabled else None
        if config.warmup_grace > 0:
            self.begin_warmup(start_time + config.warmup_grace)

    # -- time ---------------------------------------------------------------

    @property
    def next_rotation(self) -> float:
        return self._next_rotation

    def advance_to(self, ts: float) -> int:
        """Run every rotation due at or before ``ts``; returns how many ran.

        While the filter is down (:meth:`fail`) or its rotation timer is
        stalled (:meth:`stall_rotations`) this is a no-op — the schedule is
        frozen until :meth:`recover` / :meth:`resume_rotations`.
        """
        if self._stalled or self._down:
            return 0
        ran = 0
        while self._next_rotation <= ts:
            self._rotate()
            ran += 1
        return ran

    def _rotate(self) -> None:
        """Run the rotation due at ``next_rotation`` (Algorithm 1) and
        schedule the next one."""
        tel = self._tel
        if tel is None:
            self.bitmap.rotate()
        else:
            begin = perf_counter()
            self.bitmap.rotate()
            tel.on_rotation(self._next_rotation, perf_counter() - begin)
        self._next_rotation += self.config.rotation_interval
        self.stats.rotations += 1

    # -- degraded-mode operation ---------------------------------------------

    @property
    def is_down(self) -> bool:
        """True while the filter is failed (``fail`` called, no ``recover``)."""
        return self._down

    @property
    def rotations_stalled(self) -> bool:
        return self._stalled

    @property
    def warmup_until(self) -> float:
        """End of the current warm-up grace window (-inf when inactive)."""
        return self._warmup_until

    def in_warmup(self, ts: float) -> bool:
        return ts < self._warmup_until

    def fail(self) -> None:
        """Take the filter down: packets are judged by ``fail_policy`` only.

        The bit state and rotation schedule freeze; nothing is marked or
        rotated until :meth:`recover`.
        """
        self._down = True
        if self._tel is not None:
            self._tel.degraded.set(1)

    def recover(self, now: float, warmup_grace: Optional[float] = None) -> int:
        """Bring a failed filter back at ``now``; returns rotations caught up.

        Rotations missed during the outage run immediately (the schedule is
        not silently stretched).  ``warmup_grace`` opens a grace window of
        that many seconds during which bitmap *misses* on inbound packets are
        admitted instead of dropped — outgoing packets seen while down were
        never marked, so their replies would otherwise all be dropped.  The
        default grace is ``Te`` when the outage spanned at least one rotation
        and 0 otherwise (a sub-rotation blip loses no marks).
        """
        self._down = False
        if self._tel is not None:
            self._tel.degraded.set(0)
        missed = self.advance_to(now)
        if warmup_grace is None:
            warmup_grace = self.config.expiry_timer if missed else 0.0
        if warmup_grace > 0:
            self.begin_warmup(now + warmup_grace)
        return missed

    def begin_warmup(self, until: float) -> None:
        """Admit inbound bitmap misses until time ``until`` (grace window)."""
        self._warmup_until = until
        if self._tel is not None:
            self._tel.warmup_until.set(until)

    def stall_rotations(self) -> None:
        """Freeze the rotation timer (models a stalled/stuck timer thread).

        Packets keep flowing and keep being marked/checked; vectors are just
        never cleared, so utilization — and with it the penetration
        probability U^m — creeps up for the duration of the stall.
        """
        self._stalled = True
        if self._tel is not None:
            self._tel.stalled.set(1)

    def resume_rotations(self, now: float, catch_up: bool = True) -> int:
        """Un-stall the timer at ``now``; returns the rotations performed.

        ``catch_up=True`` (the robust behavior) performs every rotation the
        stall missed, restoring the nominal Te immediately.  ``catch_up=False``
        models the naive late-firing timer: one rotation runs and the
        schedule restarts from ``now``, silently stretching every mark's
        lifetime by the stall duration.
        """
        self._stalled = False
        if self._tel is not None:
            self._tel.stalled.set(0)
        if catch_up:
            return self.advance_to(now)
        if self._next_rotation <= now:
            self._next_rotation = now  # the late rotation restarts the schedule
            self._rotate()
            return 1
        return 0

    # -- Algorithm 2: per-packet path -------------------------------------------

    def process(self, pkt: Packet) -> Decision:
        """Filter one packet, advancing rotations to its timestamp first."""
        if self._down:
            return self._process_down(pkt)
        self.advance_to(pkt.ts)
        direction = pkt.direction(self.protected)
        if direction is Direction.OUTGOING:
            self._handle_outgoing(pkt)
            return Decision.PASS
        if direction is Direction.INCOMING:
            return self._handle_incoming(pkt)
        if direction is Direction.INTERNAL:
            self.stats.internal += 1
        else:
            self.stats.transit += 1
        return Decision.PASS

    def _handle_outgoing(self, pkt: Packet) -> None:
        self.stats.outgoing += 1
        if self.apd is not None:
            self.apd.observe_outgoing(pkt)
            if not self.apd.should_mark(pkt):
                self.stats.marks_suppressed += 1
                return
        key = bitmap_key_outgoing(pkt.proto, pkt.src, pkt.sport, pkt.dst)
        self.bitmap.mark(self.hashes.indices(key))
        if self._tel is not None:
            self._tel.marks["scalar"].inc()

    def _test_incoming(self, pkt: Packet) -> bool:
        """The scalar bitmap membership test for one incoming packet."""
        key = bitmap_key_incoming(pkt.proto, pkt.dst, pkt.dport, pkt.src)
        return self.bitmap.test_current(self.hashes.indices(key))

    def _handle_incoming(self, pkt: Packet) -> Decision:
        tel = self._tel
        self.stats.incoming += 1
        if self.apd is not None:
            self.apd.observe_incoming(pkt)
        if self._test_incoming(pkt):
            self.stats.incoming_passed += 1
            if tel is not None:
                tel.admits["scalar"].inc()
            return Decision.PASS
        if pkt.ts < self._warmup_until:
            self.stats.warmup_admitted += 1
            self.stats.incoming_passed += 1
            if tel is not None:
                tel.admits["scalar"].inc()
                tel.warmup_admits.inc()
            return Decision.PASS
        if self.apd is not None and not self.apd.should_drop():
            self.stats.apd_admitted += 1
            self.stats.incoming_passed += 1
            if tel is not None:
                tel.admits["scalar"].inc()
            return Decision.PASS
        self.stats.incoming_dropped += 1
        if tel is not None:
            tel.drops["scalar"].inc()
        return Decision.DROP

    def _process_down(self, pkt: Packet) -> Decision:
        """Judge one packet while the filter is down: policy only, no state."""
        direction = pkt.direction(self.protected)
        stats = self.stats
        tel = self._tel
        if direction is Direction.OUTGOING:
            stats.outgoing += 1
            stats.unmarked_outgoing += 1
            return Decision.PASS
        if direction is Direction.INCOMING:
            stats.incoming += 1
            if self.fail_policy is FailPolicy.FAIL_OPEN:
                stats.degraded_admitted += 1
                stats.incoming_passed += 1
                if tel is not None:
                    tel.degraded_admits.inc()
                return Decision.PASS
            stats.degraded_dropped += 1
            stats.incoming_dropped += 1
            if tel is not None:
                tel.degraded_drops.inc()
            return Decision.DROP
        if direction is Direction.INTERNAL:
            stats.internal += 1
        else:
            stats.transit += 1
        return Decision.PASS

    # -- batch paths -----------------------------------------------------------

    def process_batch(self, packets: PacketArray, exact: bool = True, *,
                      directions: Optional[np.ndarray] = None) -> np.ndarray:
        """Filter a time-sorted batch; returns a boolean PASS mask.

        ``exact=True`` gives the verdicts, stats, bit state and telemetry of
        calling :meth:`process` per packet, at NumPy speed (see
        :meth:`_filter_window`).  ``exact=False`` runs the windowed
        approximation of :meth:`process_batch_windowed`.  ``directions``
        may pass ``packets.directions(self.protected)`` when the caller has
        already computed it.

        APD is not supported on the batch paths (use :meth:`process`).
        """
        if self.apd is not None:
            raise NotImplementedError("batch paths do not support adaptive dropping")
        if directions is None:
            directions = packets.directions(self.protected)
        if self._down:
            return self._process_batch_down(directions)
        return self._process_batch_vec(packets, directions, exact)

    def process_batch_windowed(self, packets: PacketArray) -> np.ndarray:
        """Fully vectorized batch filtering, exact up to one approximation.

        Packets are grouped into rotation windows.  Within a window all
        outgoing packets are marked *first*, then all incoming packets are
        checked.  Genuine traffic always sends the request before the reply,
        so every packet the exact path passes is also passed here; the only
        divergence is an unsolicited incoming packet whose matching bits are
        marked *later in the same window*, which this path admits up to
        ``dt`` seconds early.  Tests bound the divergence.
        """
        return self._process_batch_vec(
            packets, packets.directions(self.protected), exact=False)

    def _process_batch_down(self, directions: np.ndarray) -> np.ndarray:
        """Vectorized down-state verdicts: ``fail_policy`` decides everything."""
        incoming = directions == DIRECTION_INCOMING
        outgoing = directions == DIRECTION_OUTGOING
        stats = self.stats
        n_in = int(incoming.sum())
        n_out = int(outgoing.sum())
        stats.outgoing += n_out
        stats.unmarked_outgoing += n_out
        stats.incoming += n_in
        stats.internal += int((directions == DIRECTION_INTERNAL).sum())
        stats.transit += int((directions == DIRECTION_TRANSIT).sum())
        verdict = np.ones(len(directions), dtype=bool)
        tel = self._tel
        if self.fail_policy is FailPolicy.FAIL_OPEN:
            stats.degraded_admitted += n_in
            stats.incoming_passed += n_in
            if tel is not None and n_in:
                tel.degraded_admits.inc(n_in)
        else:
            verdict[incoming] = False
            stats.degraded_dropped += n_in
            stats.incoming_dropped += n_in
            if tel is not None and n_in:
                tel.degraded_drops.inc(n_in)
        return verdict

    def _directional_indices(self, packets: PacketArray, directions: np.ndarray) -> np.ndarray:
        """(m, N) index matrix using local/remote fields per direction.

        For outgoing packets the local endpoint is (src, sport); for incoming
        it is (dst, dport).  Rows for transit/internal packets are computed
        but never used.
        """
        outgoing = directions == DIRECTION_OUTGOING
        # Contiguous copies: the fields are strided views of the packet
        # records, and np.where on those runs several times slower.
        src = np.ascontiguousarray(packets.src)
        dst = np.ascontiguousarray(packets.dst)
        local_addr = np.where(outgoing, src, dst)
        local_port = np.where(outgoing, np.ascontiguousarray(packets.sport),
                              np.ascontiguousarray(packets.dport))
        remote_addr = np.where(outgoing, dst, src)
        return self.hashes.indices_vec(packets.proto, local_addr, local_port, remote_addr)

    def _process_batch_vec(self, packets: PacketArray, directions: np.ndarray,
                           exact: bool) -> np.ndarray:
        """The batch kernel: direction split and hashing once per batch,
        then one :meth:`_filter_window` call per rotation window.

        A packet's rotation window is set by the running maximum of the
        timestamps up to it, which is the clock :meth:`process` advances
        by, so even a batch that is not time-sorted sees the rotations the
        per-packet path would.  Rotations run between windows, each after a
        per-window flush of the telemetry counters.
        """
        n = len(packets)
        verdict = np.ones(n, dtype=bool)
        if not n:
            return verdict
        stats = self.stats
        stats.internal += int(np.count_nonzero(directions == DIRECTION_INTERNAL))
        stats.transit += int(np.count_nonzero(directions == DIRECTION_TRANSIT))
        out_pos = np.flatnonzero(directions == DIRECTION_OUTGOING)
        in_pos = np.flatnonzero(directions == DIRECTION_INCOMING)
        # (m, packets) index columns per direction, split once per batch;
        # every window takes slices of them.
        index_matrix = self._directional_indices(packets, directions)
        out_rows = index_matrix[:, out_pos]
        in_rows = index_matrix[:, in_pos]
        del index_matrix
        in_bytes, in_masks = byte_masks(in_rows)
        ts = np.ascontiguousarray(packets.ts)
        # Stall/warm-up state cannot change mid-batch (only the fault
        # harness toggles it, between batches).
        in_grace = None
        if len(in_pos) and self._warmup_until > ts.min():
            in_grace = ts[in_pos] < self._warmup_until

        edges = np.concatenate(
            ([0], self._rotation_cuts(np.maximum.accumulate(ts)), [n]))
        out_edges = np.searchsorted(out_pos, edges).tolist()
        in_edges = np.searchsorted(in_pos, edges).tolist()
        path = "exact_batch" if exact else "windowed_batch"
        tel = self._tel
        before = tel.stats_snapshot(stats) if tel is not None else None
        for window in range(len(edges) - 1):
            if window:
                if tel is not None:
                    # Flush this window's counter deltas before the tick so
                    # samplers see per-Δt admits/drops, not batch totals.
                    tel.count_batch(path, stats, before)
                    before = tel.stats_snapshot(stats)
                self._rotate()
            o0, o1 = out_edges[window], out_edges[window + 1]
            i0, i1 = in_edges[window], in_edges[window + 1]
            if o0 < o1 or i0 < i1:
                tests = (in_rows[:, i0:i1], in_bytes[:, i0:i1],
                         in_masks[:, i0:i1], in_pos[i0:i1],
                         None if in_grace is None else in_grace[i0:i1])
                self._filter_window(out_rows[:, o0:o1], out_pos[o0:o1],
                                    tests, verdict, exact)
        if tel is not None:
            tel.count_batch(path, stats, before)
        return verdict

    def _rotation_cuts(self, clock: np.ndarray) -> np.ndarray:
        """Batch positions at which each pending rotation boundary is crossed.

        ``clock`` is the batch's non-decreasing rotation clock.  The
        boundaries come from the same repeated ``+= rotation_interval``
        additions :meth:`_rotate` makes, so they round identically; none are
        crossed while rotations are stalled.
        """
        boundaries = []
        if not self._stalled:
            boundary = self._next_rotation
            last = float(clock[-1])
            interval = self.config.rotation_interval
            while boundary <= last:
                boundaries.append(boundary)
                boundary += interval
        return np.searchsorted(clock, np.array(boundaries, dtype=np.float64),
                               side="left")

    def _filter_window(self, out_rows: np.ndarray, out_pos: np.ndarray,
                       tests: tuple, verdict: np.ndarray, exact: bool) -> None:
        """One rotation window: mark ``out_rows``, then test the incoming.

        ``out_rows`` holds the (m, P) bit indices of the window's outgoing
        packets, at batch positions ``out_pos``.  ``tests`` holds the same
        for the incoming packets, split by :func:`byte_masks`, with their
        positions and warm-up grace flags (None when no grace applies).
        All marks are applied at once and the incoming packets tested after
        them, which is the windowed verdict.  The exact verdict also tests
        before the marks.  Only packets that miss before and hit after are
        order-ambiguous: bits they need were set by marks somewhere in the
        window.  Such a packet passes iff each of its bits was either set
        before the window or first marked at an earlier batch position,
        which is what :meth:`process` would have seen.
        """
        in_rows, in_bytes, in_masks, in_pos, in_grace = tests
        stats = self.stats
        bitmap = self.bitmap
        current = bitmap.current
        pre = None
        if exact and len(in_pos) and len(out_pos):
            pre = current.test_masks(in_bytes, in_masks)
        if len(out_pos):
            bitmap.mark_vec(out_rows)
            stats.outgoing += len(out_pos)
        if not len(in_pos):
            return
        ok = current.test_masks(in_bytes, in_masks).all(axis=0)
        if pre is not None:
            ambiguous = ok & ~pre.all(axis=0)
            if ambiguous.any():
                # First batch position that marked each bit this window: in
                # packet-major order positions ascend, so np.unique's first
                # index is the earliest.
                marked_bits, first = np.unique(out_rows.T.reshape(-1),
                                               return_index=True)
                first_pos = out_pos[first // len(out_rows)]
                # Every bit of an ambiguous packet that was not set before
                # the window is among marked_bits (the marks completed it).
                loc = np.searchsorted(marked_bits, in_rows[:, ambiguous])
                loc = np.minimum(loc, len(marked_bits) - 1)
                marked_at = np.where(pre[:, ambiguous], -1, first_pos[loc])
                ok[ambiguous] = marked_at.max(axis=0) < in_pos[ambiguous]
        if in_grace is not None:
            grace = ~ok & in_grace
            if grace.any():
                ok |= grace
                stats.warmup_admitted += int(np.count_nonzero(grace))
        passed = int(np.count_nonzero(ok))
        verdict[in_pos[~ok]] = False
        stats.incoming += len(in_pos)
        stats.incoming_passed += passed
        stats.incoming_dropped += len(in_pos) - passed

    # -- snapshot state -------------------------------------------------------

    def set_fail_policy(self, policy: FailPolicy) -> None:
        """Swap the fail policy in place (a safe hot-reloadable knob)."""
        self.fail_policy = FailPolicy(policy)

    def apply_snapshot_state(
        self,
        vectors: np.ndarray,
        current_index: int,
        bitmap_rotations: int,
        next_rotation: float,
        stats: Optional[dict] = None,
    ) -> None:
        """Overwrite this filter's mutable state with snapshot contents.

        ``vectors`` is the ``(k, 2**n / 8)`` byte matrix of the bit vectors
        (what :func:`repro.core.persistence.save_filter` persists); the rest
        restores the rotation bookkeeping and, optionally, the counters.
        The configuration must already match — this only moves state, so
        restore paths validate geometry up front.
        """
        vectors = np.asarray(vectors, dtype=np.uint8)
        expected = (self.config.num_vectors, (1 << self.config.order) // 8)
        if vectors.shape != expected:
            raise ValueError(
                f"snapshot vectors {vectors.shape} do not match this "
                f"filter's geometry {expected}")
        for index, vec in enumerate(self.bitmap.vectors):
            vec.as_numpy()[:] = vectors[index]
        self.bitmap._idx = int(current_index)
        self.bitmap._rotations = int(bitmap_rotations)
        self._next_rotation = float(next_rotation)
        if stats is not None:
            self.stats = FilterStats(**stats)

    # -- convenience ---------------------------------------------------------------

    def mark_key(self, proto: int, local_addr: int, local_port: int, remote_addr: int) -> None:
        """Directly mark an outgoing-direction key (used by hole punching)."""
        key = bitmap_key_outgoing(proto, local_addr, local_port, remote_addr)
        self.bitmap.mark(self.hashes.indices(key))

    def flip_bits(self, fraction: float, seed: int = 0xB17F11) -> int:
        """Flip each bit of every vector with probability ``fraction``.

        The memory-corruption fault surface (see
        :class:`~repro.faults.injectors.BitFlips`).  Deterministic in
        ``seed``, so a replayed fault schedule corrupts identically.
        Returns the number of bits flipped.
        """
        if not 0 <= fraction <= 1:
            raise ValueError("flip fraction must be within [0, 1]")
        rng = np.random.default_rng(seed)
        total = 0
        for vec in self.bitmap.vectors:
            count = int(rng.binomial(vec.num_bits, fraction))
            if not count:
                continue
            indices = rng.choice(vec.num_bits, size=count, replace=False)
            view = vec.as_numpy()
            byte_idx = (indices >> 3).astype(np.int64)
            masks = np.left_shift(np.uint8(1), (indices & 7).astype(np.uint8))
            np.bitwise_xor.at(view, byte_idx, masks)
            total += count
        return total

    def would_pass_incoming(self, pkt: Packet) -> bool:
        """Non-mutating lookup: would this incoming packet pass right now?"""
        return self._test_incoming(pkt)

    def utilization(self) -> float:
        return self.bitmap.utilization()

    @property
    def peak_utilization(self) -> float:
        """Steady-state utilization: the fullest any vector got (sampled
        just before each rotation cleared it)."""
        return self.bitmap.peak_utilization

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"BitmapFilter(k={cfg.num_vectors}, n={cfg.order}, m={cfg.num_hashes}, "
            f"dt={cfg.rotation_interval}, Te={cfg.expiry_timer}, "
            f"mem={cfg.memory_bytes}B)"
        )
