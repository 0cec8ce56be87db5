"""repro — reproduction of the DSN 2006 bitmap filter paper.

"Mitigating Active Attacks Towards Client Networks Using the Bitmap Filter"
(Chun-Ying Huang, Kuan-Ta Chen, Chin-Laung Lei).

The package is organized bottom-up:

- :mod:`repro.net` — addresses, packets, flows (shared vocabulary).
- :mod:`repro.core` — the {k x n}-bitmap filter, its analytical model,
  adaptive packet dropping, and hole punching (the paper's contribution).
- :mod:`repro.spi` — stateful packet inspection baselines (naive exact,
  Linux-style hash+linked-list, AVL tree).
- :mod:`repro.traffic` — the synthetic client-network workload calibrated to
  the paper's published trace statistics.
- :mod:`repro.attacks` — random scanners, floods, worms, insider attacks.
- :mod:`repro.sim` — the trace-driven simulation engine, routers, topology.
- :mod:`repro.analysis` — lifetime/delay extraction and reporting.

Quickstart::

    from repro import BitmapFilter, FilterConfig, AddressSpace

    protected = AddressSpace.class_c_block("192.168.0.0", 6)
    filt = BitmapFilter(FilterConfig.paper_default(), protected)
    verdict = filt.process(packet)     # Decision.PASS or Decision.DROP
"""

from repro.core import (
    AdaptiveDroppingPolicy,
    BandwidthIndicator,
    Bitmap,
    BitmapFilter,
    BitmapParameters,
    BitVector,
    Decision,
    FilterConfig,
    HashFamily,
    HolePuncher,
    PacketRatioIndicator,
    ParameterAdvisor,
)
from repro.core.close_aware import CloseAwareBitmapFilter, CloseAwareConfig
from repro.core.persistence import load_filter, save_filter
from repro.net.pcap import read_pcap, write_pcap
from repro.traffic.generator import generate_client_trace
from repro.traffic.trace import Trace
from repro.net import (
    AddressSpace,
    AddressTuple,
    Direction,
    IPv4Address,
    IPv4Network,
    Packet,
    PacketArray,
    TcpFlags,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveDroppingPolicy",
    "BandwidthIndicator",
    "Bitmap",
    "BitmapFilter",
    "BitmapParameters",
    "BitVector",
    "Decision",
    "FilterConfig",
    "HashFamily",
    "HolePuncher",
    "PacketRatioIndicator",
    "ParameterAdvisor",
    "AddressSpace",
    "AddressTuple",
    "Direction",
    "IPv4Address",
    "IPv4Network",
    "Packet",
    "PacketArray",
    "TcpFlags",
    "CloseAwareBitmapFilter",
    "CloseAwareConfig",
    "load_filter",
    "save_filter",
    "read_pcap",
    "write_pcap",
    "generate_client_trace",
    "Trace",
    "__version__",
]
