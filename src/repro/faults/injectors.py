"""Composable fault injectors for the bitmap filter and its packet stream.

Two kinds of fault, one interface.  *Trace-level* injectors perturb the
packet stream before the run (reordering, duplication, gaps) via
``transform_trace``.  *Filter-level* injectors schedule timestamped
:class:`FaultEvent` actions against the live filter (stall the rotation
timer, crash and restore from a checkpoint, flip bits) via ``events``; the
harness in :mod:`repro.faults.harness` splits the batch replay at each
event's timestamp and applies it between segments.

Every injector is deterministic given its seed, so a chaos run is exactly
reproducible.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.bitmap_filter import BitmapFilter
from repro.core.filter_api import build_filter
from repro.net.packet import PacketArray
from repro.traffic.trace import Trace


@dataclass
class FaultEvent:
    """One timestamped action against the live filter.

    ``apply`` may return a replacement :class:`BitmapFilter` (crash/restore
    swaps the instance); returning ``None`` keeps the current one.
    """

    ts: float
    label: str
    apply: Callable[[BitmapFilter, float], Optional[BitmapFilter]] = field(repr=False)


class FaultInjector:
    """Base class: a no-op fault.  Subclasses override one or both hooks."""

    name = "fault"

    def transform_trace(self, trace: Trace) -> Trace:
        """Perturb the packet stream before the run (trace-level faults)."""
        return trace

    def events(self) -> List[FaultEvent]:
        """Timestamped actions against the live filter (filter-level faults)."""
        return []


# -- filter-level faults ------------------------------------------------------


class RotationStall(FaultInjector):
    """The rotation timer wedges at ``at`` and recovers ``duration`` later.

    While stalled no vector is cleared, so utilization — and the penetration
    probability U^m — creeps up.  On recovery, ``catch_up=True`` fires every
    missed rotation immediately (the robust behavior); ``catch_up=False``
    models the naive late timer that silently stretches Te by the stall.
    """

    def __init__(self, at: float, duration: float, catch_up: bool = True):
        if duration <= 0:
            raise ValueError("stall duration must be positive")
        self.at = at
        self.duration = duration
        self.catch_up = catch_up
        self.name = f"rotation-stall[{duration:g}s{'' if catch_up else ',no-catchup'}]"

    def events(self) -> List[FaultEvent]:
        def stall(filt: BitmapFilter, now: float) -> None:
            filt.stall_rotations()

        def resume(filt: BitmapFilter, now: float) -> None:
            filt.resume_rotations(now, catch_up=self.catch_up)

        return [
            FaultEvent(self.at, f"{self.name}:stall", stall),
            FaultEvent(self.at + self.duration, f"{self.name}:resume", resume),
        ]


class Outage(FaultInjector):
    """The filter is down for ``[at, at + duration)``; state survives.

    Models a wedged process or maintenance window: verdicts during the
    outage come from the filter's ``fail_policy`` alone.  Recovery catches
    up missed rotations and (optionally) opens a warm-up grace window.
    """

    def __init__(self, at: float, duration: float,
                 warmup_grace: Optional[float] = None):
        if duration <= 0:
            raise ValueError("outage duration must be positive")
        self.at = at
        self.duration = duration
        self.warmup_grace = warmup_grace
        self.name = f"outage[{duration:g}s]"

    def events(self) -> List[FaultEvent]:
        def down(filt: BitmapFilter, now: float) -> None:
            filt.fail()

        def up(filt: BitmapFilter, now: float) -> None:
            filt.recover(now, warmup_grace=self.warmup_grace)

        return [
            FaultEvent(self.at, f"{self.name}:down", down),
            FaultEvent(self.at + self.duration, f"{self.name}:up", up),
        ]


class CrashRestart(FaultInjector):
    """The filter process dies at ``crash_at`` and restarts ``downtime`` later.

    With ``snapshot_age`` set, a checkpoint taken that many seconds before
    the crash is restored (missed rotations catch up, and the restart opens
    a warm-up grace window sized by :func:`repro.core.persistence.restore_filter`
    unless ``warmup_grace`` overrides it).  With ``snapshot_age=None`` the
    restart is *cold*: a fresh empty filter whose grace window defaults to
    Te — without it, every in-flight flow's inbound packets would drop until
    the bitmap re-learns them.
    """

    def __init__(self, crash_at: float, downtime: float,
                 snapshot_age: Optional[float] = None,
                 warmup_grace: Optional[float] = None):
        if downtime <= 0:
            raise ValueError("downtime must be positive")
        if snapshot_age is not None and not 0 <= snapshot_age <= crash_at:
            raise ValueError("snapshot must be taken at a non-negative time "
                             "at or before the crash")
        self.crash_at = crash_at
        self.downtime = downtime
        self.snapshot_age = snapshot_age
        self.warmup_grace = warmup_grace
        self._snapshot: Optional[io.BytesIO] = None
        kind = "cold" if snapshot_age is None else f"snapshot-{snapshot_age:g}s-old"
        self.name = f"crash-restart[{downtime:g}s,{kind}]"

    def events(self) -> List[FaultEvent]:
        from repro.core.persistence import restore_filter, save_filter

        events: List[FaultEvent] = []

        if self.snapshot_age is not None:
            def checkpoint(filt: BitmapFilter, now: float) -> None:
                self._snapshot = io.BytesIO()
                save_filter(filt, self._snapshot)

            events.append(FaultEvent(self.crash_at - self.snapshot_age,
                                     f"{self.name}:checkpoint", checkpoint))

        def crash(filt: BitmapFilter, now: float) -> None:
            filt.fail()

        def restart(filt: BitmapFilter, now: float) -> BitmapFilter:
            if self._snapshot is not None:
                self._snapshot.seek(0)
                restored = restore_filter(self._snapshot, now,
                                          warmup_grace=self.warmup_grace)
                restored.set_fail_policy(filt.fail_policy)
                return restored
            grace = (filt.config.expiry_timer if self.warmup_grace is None
                     else self.warmup_grace)
            # A cold restart keeps the stack shape (a hybrid comes back as a
            # hybrid) but none of the state — bitmap and flow table restart
            # empty behind the warm-up grace window.
            cold = build_filter(filt.config, filt.protected, start_time=now,
                                fail_policy=filt.fail_policy,
                                layers=getattr(filt, "layers", ()))
            if grace > 0:
                cold.begin_warmup(now + grace)
            return cold

        events.append(FaultEvent(self.crash_at, f"{self.name}:crash", crash))
        events.append(FaultEvent(self.crash_at + self.downtime,
                                 f"{self.name}:restart", restart))
        return events


class BitFlips(FaultInjector):
    """Random bit flips across the bitmap's vectors at time ``at``.

    ``fraction`` is the per-bit flip probability (bad RAM, cosmic rays, a
    buggy DMA peer).  0→1 flips add false marks (penetration up); 1→0 flips
    erase real marks (benign drops up) — the Retouched-Bloom-Filter
    trade-off, here as an injected fault.
    """

    def __init__(self, at: float, fraction: float, seed: int = 0xB17F11):
        if not 0 <= fraction <= 1:
            raise ValueError("flip fraction must be within [0, 1]")
        self.at = at
        self.fraction = fraction
        self.seed = seed
        self.flipped = 0
        self.name = f"bit-flips[{fraction:g}]"

    def events(self) -> List[FaultEvent]:
        def flip(filt: BitmapFilter, now: float) -> None:
            # Going through the filter's own fault surface (instead of
            # XORing filt.bitmap directly) keeps the injector working on
            # wrapped stacks such as the hybrid verification tier.
            self.flipped = filt.flip_bits(self.fraction, self.seed)

        return [FaultEvent(self.at, self.name, flip)]


def flip_random_bits(bitmap: Bitmap, fraction: float,
                     rng: np.random.Generator) -> int:
    """Flip each bit of every vector with probability ``fraction``.

    Returns the total number of bits flipped (binomially sampled per
    vector, XORed through the writable numpy views).  Kept for direct
    bitmap-level corruption; :meth:`BitmapFilter.flip_bits` is the
    filter-level twin the injectors use.
    """
    total = 0
    for vec in bitmap.vectors:
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


# -- trace-level faults -------------------------------------------------------


class PacketReorder(FaultInjector):
    """A fraction of packets is delayed in flight by up to ``max_delay``.

    Delivery order is what the filter sees, so delayed packets get their
    delivery timestamp and the stream is re-sorted.  Late replies whose
    marks expired in the meantime become benign drops.
    """

    def __init__(self, fraction: float, max_delay: float, seed: int = 0x0DD5):
        if not 0 < fraction <= 1:
            raise ValueError("reorder fraction must be within (0, 1]")
        if max_delay <= 0:
            raise ValueError("max delay must be positive")
        self.fraction = fraction
        self.max_delay = max_delay
        self.seed = seed
        self.name = f"reorder[{fraction:g},{max_delay:g}s]"

    def transform_trace(self, trace: Trace) -> Trace:
        rng = np.random.default_rng(self.seed)
        data = trace.packets.data.copy()
        delayed = rng.random(len(data)) < self.fraction
        data["ts"][delayed] += rng.uniform(0.0, self.max_delay,
                                           size=int(delayed.sum()))
        packets = PacketArray(data).sorted_by_time()
        metadata = dict(trace.metadata)
        metadata["fault"] = self.name
        return Trace(packets, trace.protected, metadata)


class PacketDuplication(FaultInjector):
    """A fraction of packets arrives twice, the copy ``delay`` seconds later.

    Duplicated outgoing packets re-mark already-set bits (harmless);
    duplicated inbound packets are re-checked — a benign duplicate passes as
    long as its mark is alive, and a duplicate attack packet gets a second
    chance to penetrate.
    """

    def __init__(self, fraction: float, delay: float = 0.1, seed: int = 0xD0BB1E):
        if not 0 < fraction <= 1:
            raise ValueError("duplication fraction must be within (0, 1]")
        if delay < 0:
            raise ValueError("duplication delay must be non-negative")
        self.fraction = fraction
        self.delay = delay
        self.seed = seed
        self.name = f"duplicate[{fraction:g},{delay:g}s]"

    def transform_trace(self, trace: Trace) -> Trace:
        rng = np.random.default_rng(self.seed)
        data = trace.packets.data
        chosen = rng.random(len(data)) < self.fraction
        copies = data[chosen].copy()
        copies["ts"] += self.delay
        packets = PacketArray(
            np.concatenate([data, copies])).sorted_by_time()
        metadata = dict(trace.metadata)
        metadata["fault"] = self.name
        metadata["duplicated_packets"] = int(chosen.sum())
        return Trace(packets, trace.protected, metadata)


class TraceGap(FaultInjector):
    """Every packet in ``[start, start + duration)`` is lost upstream.

    Models an upstream outage or capture loss.  Outgoing requests lost in
    the gap never mark the bitmap, so their replies arrive unsolicited and
    are dropped — loss converts directly into benign drops downstream.
    """

    def __init__(self, start: float, duration: float):
        if duration <= 0:
            raise ValueError("gap duration must be positive")
        self.start = start
        self.duration = duration
        self.name = f"gap[{start:g}+{duration:g}s]"

    def transform_trace(self, trace: Trace) -> Trace:
        ts = trace.packets.ts
        keep = (ts < self.start) | (ts >= self.start + self.duration)
        metadata = dict(trace.metadata)
        metadata["fault"] = self.name
        metadata["gap_lost_packets"] = int((~keep).sum())
        return Trace(trace.packets[keep], trace.protected, metadata)

