"""Wall-clock rotation driving for the online daemon.

Offline replay advances the bitmap's rotation schedule from *packet
timestamps* — time is whatever the trace says.  A live daemon filtering
real traffic has no such luxury: rotations must fire every Δt seconds of
wall-clock time whether or not packets arrive, or marks never expire and
utilization (and with it the penetration probability U^m) creeps upward.

:class:`RotationScheduler` is that driver.  It maps wall-clock time into
the filter's time domain through a fixed ``epoch`` (filter time 0 ==
``clock() == epoch``) and wakes at each rotation boundary to call
``advance_to`` on the filter:

- **Drift-compensated** — each deadline is computed from the filter's own
  ``next_rotation`` (anchored at the schedule origin), never from
  ``last wakeup + dt``, so sleep jitter cannot accumulate into schedule
  drift.
- **Missed-rotation catch-up** — an event-loop stall that sleeps through
  several boundaries is repaired on the next wakeup: ``advance_to`` runs
  *every* missed rotation immediately, the same catch-up semantics the
  fault layer proves out for stalled timers and outages
  (:meth:`~repro.core.bitmap_filter.BitmapFilter.resume_rotations` with
  ``catch_up=True`` and :meth:`~repro.core.bitmap_filter.BitmapFilter.recover`).
  The naive alternative — restarting the schedule from the late wakeup —
  silently stretches every mark's lifetime, which is exactly the failure
  mode ``repro.faults``' ``RotationStall(catch_up=False)`` models.

The scheduler emits telemetry (rotation wakeups, per-wakeup catch-up
counts, boundary drift).  The daemon hands it a
:class:`~repro.core.session.FilterSession`, whose ``advance_to`` also runs
a deferred geometry rebuild once its boundary has passed.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.telemetry.registry import MetricsRegistry, log_buckets

__all__ = ["RotationScheduler"]

#: Drift histogram bounds: 100 µs to ~100 s of boundary lateness.
_DRIFT_BUCKETS = tuple(log_buckets(1e-4, 100.0, per_decade=3))


class RotationScheduler:
    """Drive a filter's rotations from wall-clock time on an event loop.

    ``filt`` is any object with ``next_rotation`` and ``advance_to``
    (bare and hybrid filters and a filter session all qualify).  ``epoch``
    is the wall instant (in ``clock()`` units) corresponding to filter
    time zero; the daemon sets it at startup so live packets and
    rotations share one time domain.  ``clock`` defaults to :func:`time.monotonic` and is
    injectable for tests.
    """

    def __init__(
        self,
        filt,
        *,
        epoch: float,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
        poll_cap: float = 3600.0,
    ):
        self._filt = filt
        self._epoch = epoch
        self._clock = clock
        self._poll_cap = poll_cap
        self._stopped = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        if registry is not None and registry.enabled:
            self._wakeups = registry.counter(
                "repro_serve_rotation_wakeups_total",
                "Scheduler wakeups that performed at least one rotation")
            self._caught_up = registry.counter(
                "repro_serve_rotations_caught_up_total",
                "Rotations beyond the first performed in one wakeup "
                "(missed-boundary catch-up)")
            self._drift = registry.histogram(
                "repro_serve_rotation_drift_seconds",
                "How late each rotation boundary fired (wall-clock)",
                bounds=_DRIFT_BUCKETS)
        else:
            self._wakeups = self._caught_up = self._drift = None

    # -- time mapping ---------------------------------------------------------

    @property
    def epoch(self) -> float:
        """Wall-clock instant (``clock()`` units) of filter time zero."""
        return self._epoch

    def filter_now(self) -> float:
        """Current wall-clock time expressed in the filter's time domain."""
        return self._clock() - self._epoch

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> asyncio.Task:
        """Spawn the scheduler task on the running event loop."""
        if self._task is not None:
            raise RuntimeError("scheduler already started")
        self._task = asyncio.get_running_loop().create_task(
            self.run(), name="repro-serve-rotation")
        return self._task

    def stop(self) -> None:
        """Ask the scheduler loop to exit after its current wait."""
        self._stopped.set()

    async def join(self) -> None:
        if self._task is not None:
            await self._task

    # -- the loop -------------------------------------------------------------

    async def run(self) -> None:
        """Sleep to each rotation boundary; rotate (catching up) on wake."""
        while not self._stopped.is_set():
            deadline = self._filt.next_rotation  # filter-time boundary
            delay = deadline - self.filter_now()
            if delay > 0:
                try:
                    await asyncio.wait_for(self._stopped.wait(),
                                           timeout=min(delay, self._poll_cap))
                    break  # stop requested
                except asyncio.TimeoutError:
                    pass
                # Re-read the deadline: a restore/rebuild may have moved it.
                continue
            ran = self._rotate_due()
            if not ran:
                # A stalled filter leaves the deadline in the past; idle
                # briefly instead of spinning against the frozen schedule.
                try:
                    await asyncio.wait_for(self._stopped.wait(), timeout=0.05)
                    break
                except asyncio.TimeoutError:
                    continue

    def _rotate_due(self) -> int:
        deadline = self._filt.next_rotation
        now_ft = self.filter_now()
        ran = self._filt.advance_to(now_ft)
        if ran and self._wakeups is not None:
            self._wakeups.inc()
            if ran > 1:
                self._caught_up.inc(ran - 1)
            self._drift.observe(max(now_ft - deadline, 0.0))
        return ran
