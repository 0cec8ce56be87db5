"""A small discrete-event timeline for packet + timer co-simulation.

Most experiments only need the batch pipeline, but router-level scenarios
(APD indicators sampling link state, staged attacks, multiple filters with
different clocks) need interleaved timer events.  :class:`SimulationEngine`
merges any number of packet streams with scheduled timer events and delivers
both, in timestamp order, to registered handlers.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional

from repro.net.packet import Packet, PacketArray
from repro.telemetry.registry import get_registry

PacketHandler = Callable[[Packet], None]
TimerHandler = Callable[[float], None]


class OutOfOrderPacketError(ValueError):
    """A packet's timestamp went backwards past already-fired timers."""


@dataclass(order=True)
class TimerEvent:
    """A scheduled callback, optionally recurring."""

    ts: float
    seq: int = field(compare=True)
    handler: TimerHandler = field(compare=False)
    interval: Optional[float] = field(default=None, compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)


class SimulationEngine:
    """Merges packet streams and timers into one ordered event loop.

    ``reorder_tolerance`` selects the out-of-order policy: ``None`` (the
    default) raises :class:`OutOfOrderPacketError` for any packet whose
    timestamp precedes the current clock — a late packet would otherwise
    silently rewind ``now`` past timers that already fired.  A float value
    opts into tolerating up to that many seconds of reordering: late packets
    within the bound are delivered at the *current* clock (timers never
    rewind), matching how a real filter judges a reordered packet against
    present bitmap state.  The packet-reordering fault injector uses this.
    """

    def __init__(self, start_time: float = 0.0,
                 reorder_tolerance: Optional[float] = None):
        if reorder_tolerance is not None and reorder_tolerance < 0:
            raise ValueError("reorder tolerance must be non-negative")
        self.now = start_time
        self.reorder_tolerance = reorder_tolerance
        self._timers: List[TimerEvent] = []
        self._seq = itertools.count()
        self._packet_handlers: List[PacketHandler] = []
        self._packets_processed = 0
        self._timers_fired = 0
        self._packets_reordered = 0
        registry = get_registry()
        if registry.enabled:
            self._tel_packets = registry.counter(
                "repro_engine_packets_total",
                "Packets delivered by the simulation engine")
            self._tel_timers = registry.counter(
                "repro_engine_timers_fired_total",
                "Timer events fired by the simulation engine")
            self._tel_queue = registry.gauge(
                "repro_engine_pending_timers",
                "Timer events currently queued in the simulation engine")
        else:
            self._tel_packets = None
            self._tel_timers = None
            self._tel_queue = None

    # -- registration ---------------------------------------------------------

    def on_packet(self, handler: PacketHandler) -> None:
        """Register a handler invoked for every packet, in time order."""
        self._packet_handlers.append(handler)

    def schedule(
        self,
        ts: float,
        handler: TimerHandler,
        interval: Optional[float] = None,
        name: str = "",
    ) -> TimerEvent:
        """Schedule ``handler(ts)`` at ``ts``; ``interval`` makes it recur."""
        if interval is not None and interval <= 0:
            raise ValueError("timer interval must be positive")
        event = TimerEvent(ts=ts, seq=next(self._seq), handler=handler,
                           interval=interval, name=name)
        heapq.heappush(self._timers, event)
        return event

    def cancel(self, event: TimerEvent) -> None:
        """Cancel a scheduled event: it will neither fire nor recur.

        The handle returned by :meth:`schedule` stays live for recurring
        timers (recurrence reuses the event object), so cancelling it tears
        the timer down no matter how many times it has already fired.
        Cancelling an already-fired one-shot event is a no-op.
        """
        event.cancelled = True

    # -- execution ---------------------------------------------------------------

    def run(self, packets: Iterable[Packet], until: Optional[float] = None) -> None:
        """Drive the loop over a time-sorted packet iterable.

        Timers due at or before each packet fire first (ties: timer wins,
        matching the filter semantics where a rotation at t applies to a
        packet arriving at t).  After the stream ends, remaining timers up
        to ``until`` still fire.

        A packet whose timestamp precedes the current clock raises
        :class:`OutOfOrderPacketError` unless the engine was constructed
        with a ``reorder_tolerance``; tolerated packets are delivered at the
        current clock so timers that already fired are never rewound.
        """
        for pkt in packets:
            if pkt.ts < self.now:
                lateness = self.now - pkt.ts
                if self.reorder_tolerance is None:
                    raise OutOfOrderPacketError(
                        f"packet at t={pkt.ts:.6f} arrived after the clock "
                        f"reached t={self.now:.6f} ({lateness:.6f}s late); "
                        "sort the stream, or construct the engine with "
                        "reorder_tolerance to accept bounded reordering"
                    )
                if lateness > self.reorder_tolerance:
                    raise OutOfOrderPacketError(
                        f"packet at t={pkt.ts:.6f} is {lateness:.6f}s late, "
                        f"beyond the {self.reorder_tolerance:.6f}s tolerance"
                    )
                self._packets_reordered += 1
                # Deliver at the current clock: self.now stands, no timer rewind.
            else:
                self._fire_timers(pkt.ts)
                self.now = pkt.ts
            for handler in self._packet_handlers:
                handler(pkt)
            self._packets_processed += 1
            if self._tel_packets is not None:
                self._tel_packets.inc()
        if until is not None:
            self._fire_timers(until)
            self.now = max(self.now, until)

    def run_array(self, packets: PacketArray, until: Optional[float] = None) -> None:
        """Convenience wrapper accepting a PacketArray."""
        self.run(iter(packets), until=until)

    # -- batch filter co-simulation -------------------------------------------

    def run_filter(self, filt, packets: PacketArray,
                   exact: bool = True,
                   until: Optional[float] = None) -> "np.ndarray":
        """Drive a filter over a time-sorted batch, firing timers between
        sub-batches.

        The batch is split at every pending timer's timestamp, so a timer
        scheduled at ``t`` observes exactly the filter state a scalar
        :meth:`run` loop would give it: all packets with ``ts < t``
        processed, none at or after (ties: timer wins, as in :meth:`run`).
        Returns the boolean PASS mask.
        """
        import numpy as np

        ts = packets.ts
        n = len(packets)
        verdicts = np.ones(n, dtype=bool)
        cursor = 0
        while cursor < n:
            next_pkt_ts = float(ts[cursor])
            self._fire_timers(next_pkt_ts)
            if next_pkt_ts > self.now:
                self.now = next_pkt_ts
            horizon = self._next_timer_ts()
            if horizon is None:
                end = n
            else:
                # Packets at the timer's own timestamp belong to the next
                # segment (the timer fires first).
                end = int(np.searchsorted(ts, horizon, side="left"))
            end = max(end, cursor + 1)
            verdicts[cursor:end] = filt.process_batch(packets[cursor:end],
                                                      exact=exact)
            self._packets_processed += end - cursor
            if self._tel_packets is not None:
                self._tel_packets.inc(end - cursor)
            last_ts = float(ts[end - 1])
            if last_ts > self.now:
                self.now = last_ts
            cursor = end
        if until is not None:
            self._fire_timers(until)
            self.now = max(self.now, until)
        return verdicts

    def _next_timer_ts(self) -> Optional[float]:
        """Timestamp of the next live timer (cancelled ones are discarded)."""
        while self._timers and self._timers[0].cancelled:
            heapq.heappop(self._timers)
        return self._timers[0].ts if self._timers else None

    def _fire_timers(self, horizon: float) -> None:
        fired = 0
        while self._timers and self._timers[0].ts <= horizon:
            event = heapq.heappop(self._timers)
            if event.cancelled:
                continue
            self.now = event.ts
            event.handler(event.ts)
            fired += 1
            if event.interval is not None:
                # Reuse the event object so the caller's handle from
                # schedule() remains cancellable across recurrences.
                event.ts += event.interval
                heapq.heappush(self._timers, event)
        self._timers_fired += fired
        if self._tel_timers is not None and fired:
            self._tel_timers.inc(fired)
            self._tel_queue.set(len(self._timers))

    # -- stats ---------------------------------------------------------------------

    @property
    def packets_processed(self) -> int:
        return self._packets_processed

    @property
    def timers_fired(self) -> int:
        return self._timers_fired

    @property
    def pending_timers(self) -> int:
        return sum(1 for event in self._timers if not event.cancelled)

    @property
    def packets_reordered(self) -> int:
        """Late packets delivered under the reorder tolerance."""
        return self._packets_reordered


def merge_packet_streams(*streams: Iterable[Packet]) -> Iterator[Packet]:
    """Merge independently time-sorted packet iterables into one."""
    return heapq.merge(*streams, key=lambda pkt: pkt.ts)
