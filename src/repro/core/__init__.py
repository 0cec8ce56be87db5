"""The paper's primary contribution: the {k x n}-bitmap filter and its analysis.

Modules
-------
- :mod:`repro.core.bitvector` — fixed-size bit vectors (the Bloom-filter rows).
- :mod:`repro.core.hashing` — the m shared n-bit hash functions.
- :mod:`repro.core.bitmap` — the {k x n}-bitmap with ``rotate`` (Algorithm 1).
- :mod:`repro.core.bitmap_filter` — ``b.filter`` (Algorithm 2) plus timing.
- :mod:`repro.core.parameters` — Equations (1)-(5) and the parameter advisor.
- :mod:`repro.core.apd` — adaptive packet dropping (Section 5.3).
- :mod:`repro.core.hole_punch` — hole punching for active protocols (Sec. 5.1).
"""

from repro.core.apd import (
    AdaptiveDroppingPolicy,
    BandwidthIndicator,
    PacketRatioIndicator,
    classify_signal_packet,
)
from repro.core.bitmap import Bitmap
from repro.core.bitmap_filter import BitmapFilter, Decision, FilterConfig
from repro.core.bitvector import BitVector
from repro.core.hashing import HashFamily
from repro.core.hole_punch import HolePuncher, hole_punch_packet
from repro.core.parameters import (
    BitmapParameters,
    ParameterAdvisor,
    expected_utilization,
    insider_utilization_increase,
    max_supported_connections,
    memory_bytes,
    optimal_num_hashes,
    penetration_probability,
    penetration_probability_for_load,
)

__all__ = [
    "AdaptiveDroppingPolicy",
    "BandwidthIndicator",
    "PacketRatioIndicator",
    "classify_signal_packet",
    "Bitmap",
    "BitmapFilter",
    "FilterConfig",
    "Decision",
    "BitVector",
    "HashFamily",
    "HolePuncher",
    "hole_punch_packet",
    "BitmapParameters",
    "ParameterAdvisor",
    "expected_utilization",
    "insider_utilization_increase",
    "max_supported_connections",
    "memory_bytes",
    "optimal_num_hashes",
    "penetration_probability",
    "penetration_probability_for_load",
]
