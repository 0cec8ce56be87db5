"""Trace-driven simulation: topology, deployment, evaluation pipeline.

- :mod:`repro.sim.topology` — the ISP graph of Figure 1 and filter-placement
  validation.
- :mod:`repro.sim.pipeline` — the experiment harness: trace -> filter ->
  labelled verdicts -> per-second metrics.
- :mod:`repro.sim.metrics` — confusion counts and time series.
"""

from repro.sim.metrics import ConfusionCounts, FilterRunResult, PerSecondSeries
from repro.sim.pipeline import run_filter_on_trace
from repro.sim.topology import IspTopology, NodeKind

__all__ = [
    "ConfusionCounts",
    "FilterRunResult",
    "PerSecondSeries",
    "run_filter_on_trace",
    "IspTopology",
    "NodeKind",
]
