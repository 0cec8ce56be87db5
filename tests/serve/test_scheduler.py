"""RotationScheduler: drift compensation and missed-boundary catch-up."""

import asyncio

import pytest

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.session import FilterSession
from repro.net.address import AddressSpace
from repro.serve.scheduler import RotationScheduler
from repro.telemetry.registry import MetricsRegistry

PROTECTED = AddressSpace.class_c_block("172.16.0.0", 2)


class FakeClock:
    """A controllable monotonic clock for driving the scheduler."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now


def make_filter(dt: float = 5.0) -> BitmapFilter:
    return BitmapFilter(
        FilterConfig(order=10, num_vectors=4, rotation_interval=dt),
        PROTECTED)


#: Tests cap the scheduler's wait at 5 ms of real time so it re-reads the
#: fake clock promptly — its sleeps are real even when the clock is fake.
POLL = 0.005


async def spin(scheduler: RotationScheduler, clock: FakeClock,
               until: float, step: float = 0.5) -> None:
    """Advance the fake clock in steps, giving the scheduler real time to
    notice each advance (its waits are wall-clock ``asyncio.wait_for``
    sleeps, re-checking the injected clock every ``poll_cap`` seconds)."""
    while clock.now < until:
        clock.now = min(clock.now + step, until)
        await asyncio.sleep(3 * POLL)


class TestRotationScheduler:
    def test_filter_now_maps_through_epoch(self):
        clock = FakeClock(500.0)
        sched = RotationScheduler(make_filter(), epoch=480.0, clock=clock)
        assert sched.filter_now() == pytest.approx(20.0)
        assert sched.epoch == 480.0

    async def test_rotations_fire_at_wall_boundaries(self):
        filt = make_filter(dt=5.0)
        clock = FakeClock(1000.0)
        sched = RotationScheduler(filt, epoch=1000.0, clock=clock,
                                  poll_cap=POLL)
        sched.start()
        await spin(sched, clock, 1000.0 + 17.5)
        sched.stop()
        await sched.join()
        # Boundaries at filter times 5, 10, 15 have all passed.
        assert filt.stats.rotations == 3
        assert filt.next_rotation == pytest.approx(20.0)

    async def test_deadlines_do_not_drift(self):
        # Wakeups land *after* each boundary (the spin adds lateness), but
        # the next deadline always comes from the filter's origin-anchored
        # schedule — rotation N fires at N*dt, never at "last wake + dt".
        filt = make_filter(dt=2.0)
        clock = FakeClock(0.0)
        sched = RotationScheduler(filt, epoch=0.0, clock=clock,
                                  poll_cap=POLL)
        sched.start()
        await spin(sched, clock, 13.0, step=0.7)  # deliberately off-grid
        sched.stop()
        await sched.join()
        assert filt.stats.rotations == 6          # t=2,4,6,8,10,12
        assert filt.next_rotation == pytest.approx(14.0)

    async def test_stall_catches_up_missed_rotations(self):
        filt = make_filter(dt=5.0)
        clock = FakeClock(0.0)
        registry = MetricsRegistry()
        sched = RotationScheduler(filt, epoch=0.0, clock=clock,
                                  registry=registry, poll_cap=POLL)
        sched.start()
        await asyncio.sleep(2 * POLL)
        # The "event loop" stalls for 23s: four boundaries blow past.
        clock.now = 23.0
        await asyncio.sleep(4 * POLL)
        sched.stop()
        await sched.join()
        assert filt.stats.rotations == 4
        assert filt.next_rotation == pytest.approx(25.0)
        caught_up = registry.get("repro_serve_rotations_caught_up_total")
        assert caught_up is not None and caught_up.value == 3

    async def test_due_rebuild_runs_after_rotation(self):
        # Driving a session, the wakeup that crosses the pending rebuild's
        # boundary rotates the old filter first, then swaps the geometry.
        session = FilterSession(
            FilterConfig(order=10, num_vectors=4, rotation_interval=5.0),
            PROTECTED)
        old = session.filter
        assert session.apply(
            FilterConfig(order=12, num_vectors=4, rotation_interval=5.0),
            rebuild_at=10.0) == "deferred-rebuild"
        clock = FakeClock(0.0)
        sched = RotationScheduler(session, epoch=0.0, clock=clock,
                                  poll_cap=POLL)
        sched.start()
        await spin(sched, clock, 11.0)
        sched.stop()
        await sched.join()
        assert old.stats.rotations == 2           # t=5, 10 on the old filter
        assert session.filter is not old
        assert session.filter.config.order == 12
        assert session.pending is None
        # Anchored at the boundary, with the old Te as warm-up grace.
        assert session.next_rotation == pytest.approx(15.0)
        assert session.filter.warmup_until == pytest.approx(30.0)

    async def test_failed_filter_catches_up_on_recover(self):
        # The scheduler wakes past four boundaries while the filter is
        # down; the frozen schedule runs them all at recover(), which then
        # opens a Te grace window for the marks lost in the outage.
        filt = make_filter(dt=5.0)
        filt.fail()
        clock = FakeClock(0.0)
        sched = RotationScheduler(filt, epoch=0.0, clock=clock,
                                  poll_cap=POLL)
        sched.start()
        await spin(sched, clock, 23.0)
        sched.stop()
        await sched.join()
        assert filt.stats.rotations == 0
        assert filt.recover(23.0) == 4
        assert filt.stats.rotations == 4
        assert filt.warmup_until == pytest.approx(
            23.0 + filt.config.expiry_timer)

    async def test_stalled_filter_does_not_spin(self):
        filt = make_filter(dt=5.0)
        filt.stall_rotations()
        clock = FakeClock(0.0)
        registry = MetricsRegistry()
        sched = RotationScheduler(filt, epoch=0.0, clock=clock,
                                  registry=registry)
        sched.start()
        clock.now = 30.0  # six boundaries due, but the timer is wedged
        await asyncio.sleep(0.2)
        sched.stop()
        await sched.join()
        assert filt.stats.rotations == 0
        wakeups = registry.get("repro_serve_rotation_wakeups_total")
        # advance_to ran 0 rotations each time, so no wakeups counted —
        # and the 0.05s idle keeps the attempt count bounded.
        assert wakeups is not None and wakeups.value == 0

    async def test_stop_interrupts_long_wait(self):
        filt = make_filter(dt=3600.0)
        clock = FakeClock(0.0)
        sched = RotationScheduler(filt, epoch=0.0, clock=clock)
        sched.start()
        await asyncio.sleep(0.05)
        sched.stop()
        await asyncio.wait_for(sched.join(), timeout=2.0)
        assert filt.stats.rotations == 0
