"""Filter deployments over an ISP topology (the Figure 1 usage model).

A :class:`FilterDeployment` binds bitmap filters to routers of an
:class:`~repro.sim.topology.IspTopology`: either one filter per edge router
(each protecting its own client network) or one filter at an aggregating
core router protecting the union of several networks.  The deployment
validates placements against the topology's dominator analysis — a filter
only defends a network if all external traffic to that network crosses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.net.address import AddressSpace
from repro.net.packet import PacketArray
from repro.sim.topology import IspTopology, NodeKind


def union_address_space(spaces: Sequence[AddressSpace]) -> AddressSpace:
    """The combined address space of several client networks."""
    networks = []
    for space in spaces:
        networks.extend(space.networks)
    return AddressSpace(networks)


@dataclass
class PlacedFilter:
    """One bitmap filter installed at a router."""

    router: str
    filter: BitmapFilter
    covered_networks: List[str]


class FilterDeployment:
    """A set of bitmap filters placed on topology routers."""

    def __init__(self, topology: IspTopology):
        self.topology = topology
        self._placements: List[PlacedFilter] = []

    @property
    def placements(self) -> Sequence[PlacedFilter]:
        return tuple(self._placements)

    def install(
        self,
        router: str,
        client_networks: Sequence[str],
        config: FilterConfig,
        start_time: float = 0.0,
    ) -> PlacedFilter:
        """Install one filter at ``router`` covering the given networks.

        Raises :class:`ValueError` if the router is not a valid choke point
        for every listed network (Figure 1's placement rule) or a network
        has no attached address space.
        """
        if not client_networks:
            raise ValueError("a filter must cover at least one client network")
        spaces = []
        for net in client_networks:
            if router not in self.topology.valid_filter_locations(net):
                raise ValueError(
                    f"{router!r} is not on every external path to {net!r}"
                )
            space = self.topology.address_space(net)
            if space is None:
                raise ValueError(f"client network {net!r} has no address space")
            spaces.append(space)
        protected = union_address_space(spaces)
        placed = PlacedFilter(
            router=router,
            filter=BitmapFilter(config, protected, start_time=start_time),
            covered_networks=list(client_networks),
        )
        self._placements.append(placed)
        return placed

    def covered_networks(self) -> List[str]:
        out: List[str] = []
        for placed in self._placements:
            out.extend(placed.covered_networks)
        return out

    def uncovered_networks(self) -> List[str]:
        covered = set(self.covered_networks())
        return [
            net for net in self.topology.nodes_of_kind(NodeKind.CLIENT_NETWORK)
            if net not in covered
        ]

    def process_batch(self, packets: PacketArray, exact: bool = True) -> np.ndarray:
        """Run a time-sorted batch through every placed filter.

        Each filter only sees (and votes on) traffic of its own networks; a
        packet is passed iff every filter covering it passes it.  Packets
        covered by no filter pass unfiltered.
        """
        verdict = np.ones(len(packets), dtype=bool)
        for placed in self._placements:
            directions = packets.directions(placed.filter.protected)
            relevant = (directions == 0) | (directions == 1)
            if not relevant.any():
                continue
            sub = packets[relevant]
            sub_verdict = placed.filter.process_batch(sub, exact=exact)
            indices = np.nonzero(relevant)[0]
            verdict[indices[~sub_verdict]] = False
        return verdict

    def total_memory_bytes(self) -> int:
        return sum(p.filter.config.memory_bytes for p in self._placements)
