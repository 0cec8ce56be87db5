"""Shared Hypothesis strategies for packet and trace generation.

One home for the generators that used to be copy-pasted across
``tests/properties/*.py``: uint32 addresses, valid ports, direction-tagged
flow events, and rotation-straddling timestamp sequences.  The property
suites draw from here, so a shrunk counterexample in one suite replays
directly in another.
"""

import hypothesis.strategies as st

from repro.net.address import AddressSpace
from repro.net.packet import Packet, PacketArray, TcpFlags
from repro.net.protocols import IPPROTO_TCP, IPPROTO_UDP

#: The protected client space every strategy-based test runs against.
PROTECTED = AddressSpace.class_c_block("172.16.0.0", 2)

#: A representative spread of TCP flag combinations (incl. connection
#: open/close markers the close-aware filter reacts to).
FLAG_CHOICES = (
    TcpFlags.NONE, TcpFlags.SYN, TcpFlags.ACK, TcpFlags.SYN | TcpFlags.ACK,
    TcpFlags.FIN | TcpFlags.ACK, TcpFlags.RST, TcpFlags.PSH | TcpFlags.ACK,
)


def inside_addresses():
    """Hosts inside the protected space (valid low host octets)."""
    return st.builds(
        lambda net_index, host: PROTECTED.networks[net_index].host(host),
        st.integers(0, len(PROTECTED.networks) - 1),
        st.integers(1, 250),
    )


def outside_addresses():
    """uint32 addresses guaranteed to fall outside the protected space."""
    return st.integers(0x01000000, 0xDFFFFFFF).filter(
        lambda addr: not PROTECTED.contains_int(addr))


def ports():
    """Valid non-zero port numbers."""
    return st.integers(1, 65535)


def flow_endpoints(flow_id):
    """Deterministic (client, server, sport) for a small flow id — the same
    mapping in every suite, so flow 3 means the same 5-tuple everywhere."""
    client = PROTECTED.networks[flow_id % len(PROTECTED.networks)].host(
        1 + flow_id)
    server = 0x08080800 + flow_id
    sport = 10_000 + flow_id
    return client, server, sport


@st.composite
def traffic_scripts(draw, max_events: int = 40, max_gap: float = 4.0,
                    num_flows: int = 6):
    """A short random script of (gap, outgoing, flow-id) events.

    Gaps up to ``max_gap`` seconds against the property-test config's 5 s
    rotation interval make scripts routinely straddle rotation boundaries
    (and, with enough events, whole expiry windows).
    """
    n_events = draw(st.integers(1, max_events))
    events = []
    for _ in range(n_events):
        gap = draw(st.floats(0.0, max_gap))
        outgoing = draw(st.booleans())
        flow = draw(st.integers(0, num_flows - 1))
        events.append((gap, outgoing, flow))
    return events


def script_to_packets(events, proto: int = IPPROTO_TCP):
    """Materialize a :func:`traffic_scripts` script as Packet objects."""
    packets = []
    ts = 0.0
    for gap, outgoing, flow in events:
        ts += gap
        client, server, sport = flow_endpoints(flow)
        if outgoing:
            packets.append(Packet(ts, proto, client, sport, server, 80,
                                  TcpFlags.ACK))
        else:
            packets.append(Packet(ts, proto, server, 80, client, sport,
                                  TcpFlags.ACK))
    return packets


@st.composite
def packet_scripts(draw, max_events: int = 60, max_gap: float = 30.0,
                   num_flows: int = 5):
    """Random full-packet scripts: mixed protocols, TCP flags, both
    directions, over a small set of flows (the SPI-equivalence shape)."""
    n = draw(st.integers(1, max_events))
    ts = 0.0
    packets = []
    for _ in range(n):
        ts += draw(st.floats(0.0, max_gap))
        flow = draw(st.integers(0, num_flows - 1))
        outgoing = draw(st.booleans())
        flags = draw(st.sampled_from(FLAG_CHOICES))
        proto = draw(st.sampled_from([IPPROTO_TCP, IPPROTO_UDP]))
        client = PROTECTED.networks[flow % 2].host(1 + flow)
        server = 0x08080000 + flow
        sport = 20_000 + flow
        if outgoing:
            packets.append(Packet(ts, proto, client, sport, server, 80, flags))
        else:
            packets.append(Packet(ts, proto, server, 80, client, sport, flags))
    return packets


@st.composite
def mixed_direction_packets(draw, max_events: int = 60, max_gap: float = 4.0):
    """Direction-tagged packets covering all four direction classes.

    Beyond the outgoing/incoming flows of :func:`packet_scripts`, this also
    emits internal (both endpoints protected) and transit (neither
    protected) packets — the classes a sharded filter must route and count
    correctly even though their verdict is always PASS.
    """
    n = draw(st.integers(1, max_events))
    ts = 0.0
    packets = []
    for _ in range(n):
        ts += draw(st.floats(0.0, max_gap))
        kind = draw(st.sampled_from(["out", "in", "internal", "transit"]))
        flow = draw(st.integers(0, 5))
        proto = draw(st.sampled_from([IPPROTO_TCP, IPPROTO_UDP]))
        client, server, sport = flow_endpoints(flow)
        if kind == "out":
            pkt = Packet(ts, proto, client, sport, server, 80, TcpFlags.ACK)
        elif kind == "in":
            pkt = Packet(ts, proto, server, 80, client, sport, TcpFlags.ACK)
        elif kind == "internal":
            other = PROTECTED.networks[(flow + 1) % 2].host(9 + flow)
            pkt = Packet(ts, proto, client, sport, other, 443, TcpFlags.ACK)
        else:
            remote = draw(outside_addresses())
            pkt = Packet(ts, proto, remote, 53, 0x08080808, 53, TcpFlags.NONE)
        packets.append(pkt)
    return packets


@st.composite
def isp_topologies(draw, max_core: int = 5, max_edge: int = 4,
                   max_peer: int = 3):
    """Random multi-peer ISP graphs with one client network attached.

    Router-router links are an arbitrary subset of all pairs (the graph
    may be disconnected — unreachable clients are a case the dominator
    analysis must handle), every peer gets at least one uplink, and the
    client hangs off a drawn edge router.  This is the input space for the
    property that ``valid_filter_locations`` is *exactly* the set of
    routers whose removal disconnects the client from every peer.
    """
    from repro.sim.topology import IspTopology

    topo = IspTopology()
    cores = [f"core{i}" for i in range(draw(st.integers(1, max_core)))]
    edges = [f"edge{i}" for i in range(draw(st.integers(1, max_edge)))]
    peers = [f"peer{i}" for i in range(draw(st.integers(1, max_peer)))]
    for name in cores:
        topo.add_core_router(name)
    for name in edges:
        topo.add_edge_router(name)
    for name in peers:
        topo.add_peer(name)
    routers = cores + edges
    pairs = [(a, b) for i, a in enumerate(routers)
             for b in routers[i + 1:]]
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=len(pairs))):
        topo.connect(a, b)
    for peer in peers:
        for target in draw(st.lists(st.sampled_from(routers), min_size=1,
                                    max_size=3, unique=True)):
            topo.connect(peer, target)
    topo.add_client_network("client", draw(st.sampled_from(edges)))
    return topo


@st.composite
def flow_size_cdfs(draw, max_points: int = 8):
    """Random valid :class:`~repro.traffic.modern.FlowSizeCDF` point sets:
    probabilities strictly increasing and ending at 1.0, sizes positive
    and non-decreasing — the whole constructor-accepted space, not just
    the two canonical mixes."""
    from repro.traffic.modern import FlowSizeCDF

    n = draw(st.integers(2, max_points))
    probs = sorted(draw(st.lists(
        st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1,
        unique=True))) + [1.0]
    sizes = sorted(draw(st.lists(
        st.floats(0.5, 1e6, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n)))
    return FlowSizeCDF("drawn", tuple(zip(probs, sizes)))


@st.composite
def rotation_straddling_arrays(draw, rotation_interval: float = 5.0,
                               num_vectors: int = 4):
    """PacketArrays whose timestamps deliberately cluster around rotation
    boundaries: packets land just before, exactly on, and just after
    multiples of ``rotation_interval``, out past a full expiry period —
    the adversarial shape for rotation-sensitive equivalence bugs."""
    num_boundaries = draw(st.integers(1, 2 * num_vectors))
    offsets = st.sampled_from([-1e-6, -1e-3, 0.0, 1e-3, 1e-6, 0.5])
    events = []
    for boundary in range(1, num_boundaries + 1):
        for _ in range(draw(st.integers(1, 4))):
            ts = boundary * rotation_interval + draw(offsets)
            outgoing = draw(st.booleans())
            flow = draw(st.integers(0, 3))
            events.append((max(ts, 0.0), outgoing, flow))
    events.sort(key=lambda event: event[0])
    packets = []
    for ts, outgoing, flow in events:
        client, server, sport = flow_endpoints(flow)
        if outgoing:
            packets.append(Packet(ts, IPPROTO_TCP, client, sport, server, 80,
                                  TcpFlags.ACK))
        else:
            packets.append(Packet(ts, IPPROTO_TCP, server, 80, client, sport,
                                  TcpFlags.ACK))
    return PacketArray.from_packets(packets)
