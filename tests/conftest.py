"""Shared fixtures for the test suite.

Expensive artifacts (generated traces) are session-scoped so the suite stays
fast; tests must treat them as read-only.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.net.address import AddressSpace
from repro.net.packet import Packet, TcpFlags
from repro.net.protocols import IPPROTO_TCP, IPPROTO_UDP
from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig

#: The protected client space used across the suite: six class-C networks,
#: mirroring the paper's trace setup.
PROTECTED_FIRST = "172.16.0.0"

CLIENT = 0xAC100A0A        # 172.16.10.10 — inside protected /24 block? (see fixture)
SERVER = 0x08080808        # 8.8.8.8 — outside


@pytest.fixture(scope="session")
def protected() -> AddressSpace:
    return AddressSpace.class_c_block(PROTECTED_FIRST, 6)


@pytest.fixture(scope="session")
def client_addr(protected: AddressSpace) -> int:
    return protected.networks[1].host(10)


@pytest.fixture(scope="session")
def server_addr() -> int:
    return SERVER


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture()
def small_config() -> FilterConfig:
    """A small, fast bitmap config (k=4, n=12, m=3, dt=5 -> Te=20)."""
    return FilterConfig(order=12, num_vectors=4, num_hashes=3,
                        rotation_interval=5.0)


@pytest.fixture()
def bitmap_filter(small_config, protected) -> BitmapFilter:
    return BitmapFilter(small_config, protected)


def make_request(ts: float, client: int, server: int, sport: int = 5555,
                 dport: int = 80, proto: int = IPPROTO_TCP,
                 flags: TcpFlags = TcpFlags.SYN) -> Packet:
    """An outgoing client->server packet."""
    return Packet(ts=ts, proto=proto, src=client, sport=sport, dst=server,
                  dport=dport, flags=flags, size=64)


def make_reply(request: Packet, ts: float,
               flags: TcpFlags = TcpFlags.SYN | TcpFlags.ACK) -> Packet:
    """The matching incoming reply."""
    return request.reply(ts, flags=flags)


@pytest.fixture(scope="session")
def tiny_trace():
    """A small but real generated trace (~60s, ~20K packets)."""
    config = WorkloadConfig(duration=60.0, target_pps=300.0, seed=99,
                            hosts_per_network=20)
    return ClientNetworkWorkload(config).generate()
