"""Shared fixtures for the benchmark harness.

Benchmarks run the same experiment code as ``python -m repro`` at MEDIUM
scale (DESIGN.md section 5) and print the paper-vs-measured reports; run
with ``pytest benchmarks/ --benchmark-only -s`` to see them.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import MEDIUM
from repro.experiments.fig2 import generate_trace

@pytest.fixture(scope="session")
def scale():
    return MEDIUM


@pytest.fixture(scope="session")
def medium_trace(scale):
    """The clean MEDIUM-scale client trace, generated once per session."""
    return generate_trace(scale)


@pytest.fixture(scope="session")
def attacked_trace(scale, medium_trace):
    """MEDIUM trace with the Fig. 5 random-scan attack mixed in."""
    from repro.experiments.fig5 import build_attack_trace

    return build_attack_trace(scale, medium_trace)
