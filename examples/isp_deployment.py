#!/usr/bin/env python3
"""Placing bitmap filters in an ISP topology — the Figure 1 usage model.

Builds the paper's example ISP (core mesh, edge routers, client networks, a
peer-ISP link), asks the dominator analysis where each client network can be
defended, installs one aggregated filter at a core router and one per-edge
filter, and runs attack traffic through both deployments.

Run:  python examples/isp_deployment.py
"""

from repro.attacks.scanner import RandomScanAttack, ScanConfig
from repro.core.bitmap_filter import FilterConfig
from repro.net.address import AddressSpace
from repro.sim.deployment import FilterDeployment, union_address_space
from repro.sim.metrics import score_run
from repro.sim.topology import IspTopology
from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig
from repro.traffic.trace import Trace


def main() -> None:
    # The Figure 1 shape: peer ISP -> core mesh -> edge routers -> clients.
    topo = IspTopology.paper_example()
    space_a = AddressSpace.class_c_block("10.10.0.0", 2)
    space_b = AddressSpace.class_c_block("10.20.0.0", 2)
    topo.attach_address_space("clientA", space_a)
    topo.attach_address_space("clientB", space_b)

    print("valid filter locations (routers every external path crosses):")
    for net in ("clientA", "clientB", "clientC"):
        print(f"  {net}: {sorted(topo.valid_filter_locations(net))}")
    print(f"  core1 covers A+B together? "
          f"{topo.covers_aggregate('core1', ['clientA', 'clientB'])}")

    # Traffic for the two networks plus a scan attack on both.
    print("\ngenerating traffic...")
    trace_a = ClientNetworkWorkload(WorkloadConfig(
        first_network="10.10.0.0", num_networks=2, duration=60.0,
        target_pps=150.0, seed=1)).generate()
    trace_b = ClientNetworkWorkload(WorkloadConfig(
        first_network="10.20.0.0", num_networks=2, duration=60.0,
        target_pps=150.0, seed=2)).generate()
    combined_space = union_address_space([space_a, space_b])
    attack = RandomScanAttack(
        ScanConfig(rate_pps=3000.0, start=20.0, duration=25.0, seed=3),
        combined_space,
    ).generate()
    combined = Trace(trace_a.packets, combined_space, {"duration": 60.0}).merged_with(
        Trace(trace_b.packets, combined_space, {"duration": 60.0}),
        Trace(attack, combined_space, {"duration": 60.0}),
    )

    config = FilterConfig(order=14, num_vectors=4, num_hashes=3,
                          rotation_interval=5.0)

    def evaluate(label, deployment):
        verdicts = deployment.process_batch(combined.packets, exact=True)
        incoming = combined.packets.directions(combined_space) == 1
        confusion, _ = score_run(combined.packets, verdicts, incoming, 60.0)
        print(f"  {label:<34} attack filtered {confusion.attack_filter_rate * 100:6.2f}%"
              f"   FP {confusion.false_positive_rate * 100:5.2f}%"
              f"   memory {deployment.total_memory_bytes() // 1024} KiB")

    print("\ndeployment comparison:")
    aggregated = FilterDeployment(topo)
    aggregated.install("core1", ["clientA", "clientB"], config)
    evaluate("one aggregated filter at core1", aggregated)

    per_edge = FilterDeployment(topo)
    per_edge.install("edge1", ["clientA"], config)
    per_edge.install("edge2", ["clientB"], config)
    evaluate("per-edge filters at edge1+edge2", per_edge)


if __name__ == "__main__":
    main()
