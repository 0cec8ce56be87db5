"""Tests for repro.sim.deployment — Figure 1 filter deployments."""

import numpy as np
import pytest

from repro.core.bitmap_filter import FilterConfig
from repro.net.address import AddressSpace
from repro.net.packet import Packet, PacketArray, TcpFlags
from repro.net.protocols import IPPROTO_TCP
from repro.sim.deployment import FilterDeployment, union_address_space
from repro.sim.topology import IspTopology
from tests.conftest import make_reply, make_request

CFG = FilterConfig(order=12, num_vectors=4, num_hashes=3,
                   rotation_interval=5.0)


@pytest.fixture()
def spaces():
    return (AddressSpace.class_c_block("10.1.0.0", 2),
            AddressSpace.class_c_block("10.2.0.0", 2))


@pytest.fixture()
def topo(spaces):
    space_a, space_b = spaces
    topo = IspTopology()
    topo.add_core_router("core")
    topo.add_edge_router("edgeA")
    topo.add_edge_router("edgeB")
    topo.add_peer("internet")
    topo.connect("internet", "core")
    topo.connect("core", "edgeA")
    topo.connect("core", "edgeB")
    topo.add_client_network("netA", "edgeA", space_a)
    topo.add_client_network("netB", "edgeB", space_b)
    return topo


class TestUnionAddressSpace:
    def test_union_contains_both(self, spaces):
        union = union_address_space(spaces)
        assert union.contains("10.1.0.5")
        assert union.contains("10.2.1.5")
        assert not union.contains("10.3.0.5")
        assert len(union.networks) == 4


class TestInstallValidation:
    def test_valid_edge_placement(self, topo):
        deployment = FilterDeployment(topo)
        placed = deployment.install("edgeA", ["netA"], CFG)
        assert placed.router == "edgeA"
        assert placed.covered_networks == ["netA"]

    def test_valid_core_aggregation(self, topo):
        deployment = FilterDeployment(topo)
        placed = deployment.install("core", ["netA", "netB"], CFG)
        assert placed.filter.protected.contains("10.1.0.5")
        assert placed.filter.protected.contains("10.2.0.5")

    def test_wrong_router_rejected(self, topo):
        deployment = FilterDeployment(topo)
        with pytest.raises(ValueError):
            deployment.install("edgeB", ["netA"], CFG)

    def test_empty_coverage_rejected(self, topo):
        deployment = FilterDeployment(topo)
        with pytest.raises(ValueError):
            deployment.install("core", [], CFG)

    def test_network_without_space_rejected(self, topo):
        topo.add_edge_router("edgeC")
        topo.connect("core", "edgeC")
        topo.add_client_network("netC", "edgeC")  # no address space
        deployment = FilterDeployment(topo)
        with pytest.raises(ValueError):
            deployment.install("edgeC", ["netC"], CFG)

    def test_coverage_bookkeeping(self, topo):
        deployment = FilterDeployment(topo)
        deployment.install("edgeA", ["netA"], CFG)
        assert deployment.covered_networks() == ["netA"]
        assert deployment.uncovered_networks() == ["netB"]


class TestBatchProcessing:
    def test_each_filter_defends_its_network(self, topo, spaces):
        space_a, space_b = spaces
        deployment = FilterDeployment(topo)
        deployment.install("edgeA", ["netA"], CFG)
        deployment.install("edgeB", ["netB"], CFG)

        client_a = space_a.networks[0].host(5)
        client_b = space_b.networks[0].host(5)
        server = 0x08080808
        request_a = make_request(1.0, client_a, server)
        packets = PacketArray.from_packets([
            request_a,
            make_reply(request_a, 1.1),                                  # pass
            Packet(2.0, IPPROTO_TCP, server, 1, client_a, 2),            # drop (A)
            Packet(2.1, IPPROTO_TCP, server, 1, client_b, 2),            # drop (B)
            Packet(2.2, IPPROTO_TCP, 0x01010101, 1, 0x02020202, 2),      # transit
        ])
        verdicts = deployment.process_batch(packets)
        assert verdicts.tolist() == [True, True, False, False, True]

    def test_aggregated_filter_equivalent_for_disjoint_networks(self, topo, spaces):
        space_a, space_b = spaces
        per_edge = FilterDeployment(topo)
        per_edge.install("edgeA", ["netA"], CFG)
        per_edge.install("edgeB", ["netB"], CFG)
        aggregated = FilterDeployment(topo)
        aggregated.install("core", ["netA", "netB"], CFG)

        client_a = space_a.networks[0].host(5)
        client_b = space_b.networks[1].host(9)
        server = 0x08080808
        req_a = make_request(1.0, client_a, server, sport=1111)
        req_b = make_request(1.2, client_b, server, sport=2222)
        packets = PacketArray.from_packets([
            req_a, req_b,
            make_reply(req_a, 1.5), make_reply(req_b, 1.6),
            Packet(2.0, IPPROTO_TCP, server, 7, client_a, 8),
        ])
        assert (per_edge.process_batch(packets)
                == aggregated.process_batch(packets)).all()

    def test_total_memory(self, topo):
        deployment = FilterDeployment(topo)
        deployment.install("edgeA", ["netA"], CFG)
        deployment.install("edgeB", ["netB"], CFG)
        assert deployment.total_memory_bytes() == 2 * CFG.memory_bytes

    def test_uncovered_traffic_passes(self, topo, spaces):
        deployment = FilterDeployment(topo)
        deployment.install("edgeA", ["netA"], CFG)
        _space_a, space_b = spaces
        stray_to_b = Packet(1.0, IPPROTO_TCP, 0x08080808, 1,
                            space_b.networks[0].host(3), 2)
        verdicts = deployment.process_batch(PacketArray.from_packets([stray_to_b]))
        assert verdicts.tolist() == [True]


class TestAggregationExperiment:
    def test_aggregated_load_doubles_utilization(self):
        from repro.experiments.aggregation import run_aggregation
        from repro.experiments.config import ExperimentScale

        xs = ExperimentScale(name="xs", duration=60.0, normal_pps=200.0,
                             bitmap_order=13)
        result = run_aggregation(xs)
        per_edge = result.by_label("per-edge (2 filters, n)")
        aggregated = result.by_label("aggregated core (1 filter, n)")
        bigger = result.by_label("aggregated core (1 filter, n+1)")

        mean_edge_u = sum(per_edge.utilizations) / len(per_edge.utilizations)
        # One filter absorbing both networks' load runs ~2x as full...
        assert aggregated.utilizations[0] == pytest.approx(2 * mean_edge_u,
                                                           rel=0.35)
        # ...and doubling the vector size restores the regime.
        assert bigger.utilizations[0] == pytest.approx(mean_edge_u, rel=0.35)

        # All three defend equally well at these utilizations.
        for outcome in result.outcomes:
            assert outcome.attack_filter_rate > 0.99

        # Memory: the aggregated n+1 filter costs the same as two n filters.
        assert bigger.memory_bytes == per_edge.memory_bytes


class TestOverlappingCoverage:
    def test_packet_passes_only_if_every_covering_filter_passes(self, topo, spaces):
        """netA is covered both at its edge and at the aggregating core;
        a packet blocked by either filter is dropped."""
        space_a, _ = spaces
        deployment = FilterDeployment(topo)
        edge = deployment.install("edgeA", ["netA"], CFG)
        core = deployment.install("core", ["netA", "netB"], CFG)

        client_a = space_a.networks[0].host(5)
        server = 0x08080808
        request = make_request(1.0, client_a, server)
        # Mark only the CORE filter (simulating divergent state, e.g. the
        # edge filter restarted cold): the edge filter must still veto.
        core.filter.process(request)

        reply = make_reply(request, 1.2)
        verdicts = deployment.process_batch(
            PacketArray.from_packets([reply]))
        assert verdicts.tolist() == [False]

        # Once both filters saw the request, the reply passes.
        edge.filter.process(request)
        verdicts = deployment.process_batch(
            PacketArray.from_packets([make_reply(request, 1.3)]))
        assert verdicts.tolist() == [True]
