"""Degraded-mode primitives: what an inline filter does when it is broken.

An inline bitmap filter is a single point of failure for the client
network's inbound traffic.  When the filter process is down (crash, wedged
rotation thread, maintenance) the edge router must still decide what to do
with every inbound packet, and the only two coherent answers are the
classic ones:

- **fail-open** — admit everything; the network is unprotected but
  reachable (availability over security);
- **fail-closed** — drop all inbound; the network is protected but
  unreachable (security over availability).

:class:`FailPolicy` names the choice;
:class:`~repro.core.bitmap_filter.BitmapFilter` consumes it for its own
down state, and :class:`~repro.fleet.router.FleetRouter` for the shares of
nodes whose circuit breaker is open.  The chaos experiment
(``python -m repro resilience``) measures the cost of each choice.
"""

from __future__ import annotations

import enum


class FailPolicy(enum.Enum):
    """What to do with inbound traffic while the filter is unavailable."""

    FAIL_OPEN = "fail_open"      # admit all inbound (availability wins)
    FAIL_CLOSED = "fail_closed"  # drop all inbound (security wins)

