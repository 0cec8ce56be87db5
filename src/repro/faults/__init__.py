"""Fault injection for the bitmap filter: chaos testing the inline path.

An inline filter at an edge router fails in ways the paper never models —
its rotation timer stalls, its process crashes mid-trace and restores from a
stale checkpoint, cosmic rays or bad RAM flip bits in its vectors, and the
packet stream itself arrives reordered, duplicated, or with gaps.  This
package provides composable injectors for each of those faults plus a
harness that replays any labelled trace through a filter while a fault
schedule fires, so the headline metrics (attack filter rate, benign drop
rate) can be measured *under* each fault and compared against the fault-free
baseline (``python -m repro resilience``).

Modules
-------
- :mod:`repro.faults.injectors` — the fault injectors (filter-level and
  trace-level) and the :class:`FaultEvent`/:class:`FaultInjector` protocol.
- :mod:`repro.faults.harness` — :func:`run_with_faults`, the segmented batch
  runner that applies a fault schedule during a trace replay.
- :mod:`repro.faults.socket_chaos` — :class:`ChaosTcpProxy`, transport-level
  chaos (connection resets, accept-then-stall, slow/partial writes) between
  a serve client and a daemon, for the fleet failover tests.
"""

from repro.faults.harness import FaultedRunResult, run_with_faults
from repro.faults.injectors import (
    BitFlips,
    CrashRestart,
    FaultEvent,
    FaultInjector,
    Outage,
    PacketDuplication,
    PacketReorder,
    RotationStall,
    TraceGap,
    flip_random_bits,
)
from repro.faults.socket_chaos import CHAOS_MODES, ChaosTcpProxy

__all__ = [
    "BitFlips",
    "CHAOS_MODES",
    "ChaosTcpProxy",
    "CrashRestart",
    "FaultEvent",
    "FaultInjector",
    "FaultedRunResult",
    "Outage",
    "PacketDuplication",
    "PacketReorder",
    "RotationStall",
    "TraceGap",
    "flip_random_bits",
    "run_with_faults",
]
