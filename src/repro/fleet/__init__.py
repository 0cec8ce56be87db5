"""Fleet-scale serving: many filter daemons behind one robust surface.

One :class:`~repro.serve.daemon.FilterDaemon` is a single box — and a
single point of failure standing between the protected clients and an
active attack.  This package turns N daemons into one serving surface
with failure handling as the headline:

- :mod:`repro.fleet.ring` — :class:`HashRing`, consistent hashing of a
  flow's ``local_addr`` onto daemon nodes, so each flow's bitmap state
  lives on exactly one node and node churn remaps only the departed
  node's share (:meth:`HashRing.stolen_share` quantifies an arrival's
  remap before it happens).
- :mod:`repro.fleet.health` — per-node :class:`CircuitBreaker`
  (closed → open → half-open) and a :class:`HealthChecker` that polls
  each node's enriched ``/healthz``.
- :mod:`repro.fleet.router` — :class:`FleetRouter`, the client-side
  front end: splits each packet batch by ring owner, drives every node
  concurrently with retrying clients, and answers a dead node's flows
  from the fleet fail policy (``fail_open`` admits, ``fail_closed``
  drops inbound) — the same degraded-mode semantics a single filter
  applies during an outage, lifted to the fleet.
- :mod:`repro.fleet.store` — :class:`SnapshotStore`, the shared
  directory of checksummed snapshots any node (including a brand-new
  one) can warm-start from, replacing per-node private handoff files.
- :mod:`repro.fleet.manager` — :class:`FleetManager`, a subprocess
  supervisor for a local fleet of ``repro serve`` daemons with abrupt
  kill, graceful stop, store-backed warm restart, **zero-downtime
  rolling geometry reconfig** (one fleet-wide rebuild boundary, SIGHUP
  per node, healthz confirmation between nodes), and **ring-aware
  scale-out** (pre-warm the arrival from the store before routing
  flips).

The equivalence story: against a healthy fleet in packet-clock mode,
fleet verdicts match a single-filter offline replay (``repro replay-to
--fleet --verify``) — *including through a live rolling reconfig*,
because every node rebuilds at the same shared boundary the offline twin
uses (``tests/differential/test_fleet_equivalence.py``); under an
injected node failure, divergence is confined to the dead node's flows
and matches the configured fail policy (``tests/fleet/``,
``benchmarks/test_fleet_failover.py``).
"""

from repro.fleet.health import BreakerState, CircuitBreaker, HealthChecker
from repro.fleet.manager import (AddNodeReport, FleetManager, ReconfigReport,
                                 RollingReconfigError)
from repro.fleet.ring import HashRing
from repro.fleet.router import FleetRouter, NodeSpec, policy_verdicts
from repro.fleet.store import SnapshotIntegrityError, SnapshotRef, SnapshotStore

__all__ = [
    "AddNodeReport",
    "BreakerState",
    "CircuitBreaker",
    "FleetManager",
    "FleetRouter",
    "HashRing",
    "HealthChecker",
    "NodeSpec",
    "ReconfigReport",
    "RollingReconfigError",
    "SnapshotIntegrityError",
    "SnapshotRef",
    "SnapshotStore",
    "policy_verdicts",
]
