"""One live filter plus the policy that swaps its geometry mid-stream.

Fail-policy changes apply to live bit state in place; geometry changes
(k, n, m, Δt, seed, layers: the
:data:`~repro.core.bitmap_filter.GEOMETRY_FIELDS`) cannot, so
:class:`FilterSession` defers them to a rebuild at a rotation boundary
``rebuild_at``:

- a batch that straddles the boundary is split there: packets with
  ``ts < rebuild_at`` go through the old filter, the rest through the new
  one, so the rebuild point depends on packet timestamps alone and not on
  how the packets were cut into batches;
- the new filter is anchored at ``max(rebuild_at, last boundary the old
  filter crossed)``, which keeps its rotation schedule origin-aligned and
  the packets in flight monotonic for it;
- marks in the old geometry are unreadable by the new one, so the new
  filter opens a warm-up grace window of the *old* expiry timer Te, or of
  the new config's own ``warmup_grace`` if that is longer.

``warmup_grace`` is not geometry: a change of it alone rebuilds nothing.
It is kept in :attr:`FilterSession.config` and takes effect at the next
rebuild (or restart).

The online daemon drives a session from its ingest loop (and, under a wall
clock, from :class:`~repro.serve.scheduler.RotationScheduler`), and
:func:`repro.sim.pipeline.run_filter_with_reconfig` drives one offline, so
a fleet rebuilding at a shared boundary and its offline twin agree byte for
byte.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from repro.core.bitmap_filter import GEOMETRY_FIELDS, FilterConfig
from repro.core.filter_api import build_filter

__all__ = ["FilterSession"]


class FilterSession:
    """The live filter, its :class:`FilterConfig`, and a pending rebuild.

    Builds its filter with :func:`~repro.core.filter_api.build_filter` from
    ``config`` and ``protected``, or warm-starts it from ``snapshot`` (then
    the config and protected space come from the snapshot, and
    ``config``/``protected`` must be None).  ``on_rebuild`` is called after
    each rebuild.
    """

    def __init__(self, config: Optional[FilterConfig] = None, protected=None,
                 *, telemetry=None, snapshot=None,
                 on_rebuild: Optional[Callable[[], None]] = None):
        self.filter = build_filter(config, protected, telemetry=telemetry,
                                   snapshot=snapshot)
        if snapshot is not None:
            config = replace(self.filter.config,
                             fail_policy=self.filter.fail_policy,
                             layers=getattr(self.filter, "layers", ()))
        self.config = config
        self.pending: Optional[FilterConfig] = None
        self.rebuild_at = float("inf")
        self._telemetry = telemetry
        self._on_rebuild = on_rebuild

    def apply(self, new_config: FilterConfig,
              rebuild_at: Optional[float] = None) -> str:
        """Apply ``new_config``; returns what happened.

        A fail-policy change applies at once (``"immediate"``); a geometry
        change waits for a rebuild at ``rebuild_at`` — by default the
        filter's next rotation — (``"deferred-rebuild"``); ``"unchanged"``
        means the running filter stays as it is.  Without a geometry
        change, ``new_config`` becomes :attr:`config` either way, so a new
        ``warmup_grace`` applies at the next rebuild.
        """
        if all(getattr(new_config, name) == getattr(self.config, name)
               for name in GEOMETRY_FIELDS):
            self.config = new_config
            if new_config.fail_policy is self.filter.fail_policy:
                return "unchanged"
            self.filter.set_fail_policy(new_config.fail_policy)
            return "immediate"
        # Capture the boundary now: the filter's next_rotation keeps moving
        # ahead of the traffic, so reading it later would defer forever.
        self.pending = new_config
        self.rebuild_at = float(rebuild_at if rebuild_at is not None
                                else self.filter.next_rotation)
        return "deferred-rebuild"

    def process_batch(self, batch, exact: bool = True) -> np.ndarray:
        """``process_batch`` of the live filter, split at a pending rebuild
        boundary that falls inside ``batch``."""
        if self.pending is None:
            return self.filter.process_batch(batch, exact=exact)
        ts = np.asarray(batch.ts, dtype=np.float64)
        split = int(np.searchsorted(ts, self.rebuild_at, side="left"))
        if split == len(batch):  # the boundary is still ahead of the batch
            return self.filter.process_batch(batch, exact=exact)
        head = self.filter.process_batch(batch[:split], exact=exact) \
            if split else None
        self._rebuild()
        tail = self.filter.process_batch(batch[split:], exact=exact)
        return tail if head is None else np.concatenate([head, tail])

    @property
    def next_rotation(self) -> float:
        """The live filter's next rotation boundary."""
        return self.filter.next_rotation

    def advance_to(self, now: float) -> int:
        """Run the rotations due by ``now``, then a rebuild that is due;
        returns the rotations run (the wall clock's tick)."""
        ran = self.filter.advance_to(now)
        self.rebuild_due(now)
        return ran

    def rebuild_due(self, now: float) -> None:
        """Rebuild onto the pending config if ``now`` reached its boundary."""
        if now >= self.rebuild_at:
            self._rebuild()

    def _rebuild(self) -> None:
        old = self.filter
        last_crossed = old.next_rotation - old.config.rotation_interval
        boundary = max(self.rebuild_at, last_crossed)
        self.filter = build_filter(self.pending, old.protected,
                                   start_time=boundary,
                                   telemetry=self._telemetry)
        self.filter.begin_warmup(
            boundary + max(old.config.expiry_timer, self.pending.warmup_grace))
        self.config = self.pending
        self.pending = None
        self.rebuild_at = float("inf")
        if self._on_rebuild is not None:
            self._on_rebuild()
