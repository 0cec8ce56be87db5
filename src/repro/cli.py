"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro <experiment> [--scale small|medium|large] [options]
    repro fig4 --scale medium
    repro fig5 --profile               # append a stage breakdown
    repro stats --experiment fig5      # live telemetry + exporters

Experiment names come from :mod:`repro.experiments.registry`; the parser is
built from that table, so registering a new experiment there is all it
takes to appear here (and in ``repro all``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _scale_arg(parser: argparse.ArgumentParser, default: str = "medium") -> None:
    parser.add_argument(
        "--scale",
        choices=("small", "medium", "large"),
        default=default,
        help="experiment scale (see DESIGN.md section 5)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the workload seed (default: the scale's seed)",
    )


def _experiment_args(parser: argparse.ArgumentParser, default: str) -> None:
    _scale_arg(parser, default)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect per-stage wall times and append the breakdown",
    )
    _filter_arg(parser)


def _filter_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--filter",
        choices=("bitmap", "hybrid"),
        default="bitmap",
        help="filter stack: the plain {k×n}-bitmap, or hybrid — every "
             "bitmap admit confirmed against an exact cuckoo flow table "
             "(see docs/verification.md)",
    )


def _resolve_scale(args: argparse.Namespace):
    """The selected scale, with an optional --seed override applied."""
    from dataclasses import replace

    from repro.experiments.config import get_scale

    scale = get_scale(args.scale)
    if getattr(args, "seed", None) is not None:
        scale = replace(scale, seed=args.seed)
    return scale


def _run_one(name: str, args: argparse.Namespace) -> str:
    result = run_experiment(
        name,
        args.scale,
        seed=getattr(args, "seed", None),
        profile=getattr(args, "profile", False),
    )
    return result.report()


def _cmd_stats(args: argparse.Namespace) -> str:
    """Run an experiment under a live registry with periodic summaries.

    While the run progresses, a one-line summary of admits/drops/marks/
    rotations prints every ``--every`` simulated Δt ticks.  Afterwards the
    full registry is exported in Prometheus text format and as a JSON-lines
    time series (inline, or to ``--prom-out``/``--jsonl-out`` files).

    ``--from-url`` skips the experiment entirely and instead fetches a live
    daemon's ``/metrics`` page, pretty-printing it (optionally filtered by
    ``--prefix``).
    """
    from repro.telemetry import (
        JsonLinesSampler,
        LiveSummarySampler,
        to_prometheus,
        use_registry,
    )

    if args.from_url:
        import urllib.request

        from repro.telemetry import summarize_prometheus

        url = args.from_url
        if "://" not in url:
            url = "http://" + url
        if not url.rstrip("/").endswith("/metrics"):
            url = url.rstrip("/") + "/metrics"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            text = response.read().decode("utf-8", "replace")
        return f"{url}:\n\n" + summarize_prometheus(text, prefix=args.prefix)
    if not args.experiment_name:
        raise SystemExit("stats: pass --experiment NAME or --from-url URL")

    with use_registry() as registry:
        jsonl = JsonLinesSampler()
        registry.add_sampler(jsonl)
        registry.add_sampler(LiveSummarySampler(every=args.every))
        result = run_experiment(
            args.experiment_name,
            args.scale,
            seed=args.seed,
            profile=args.profile,
        )
        prom_text = to_prometheus(registry)
        jsonl_text = jsonl.to_jsonl()

    sections = [result.report()]
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(prom_text)
        sections.append(f"wrote Prometheus metrics to {args.prom_out}")
    else:
        sections.append("--- prometheus ---\n" + prom_text.rstrip("\n"))
    if args.jsonl_out:
        with open(args.jsonl_out, "w") as fh:
            fh.write(jsonl_text)
        sections.append(f"wrote {len(jsonl.rows)} JSON-lines samples "
                        f"to {args.jsonl_out}")
    else:
        sections.append("--- jsonl ---\n" + jsonl_text.rstrip("\n"))
    return "\n\n".join(sections)


def _cmd_trace_gen(args: argparse.Namespace) -> str:
    from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig

    config = WorkloadConfig(duration=args.duration, target_pps=args.pps,
                            seed=args.seed)
    trace = ClientNetworkWorkload(config).generate()
    trace.save_npz(args.out)
    lines = [f"wrote {args.out}: {trace.summary().describe()}"]
    if args.pcap:
        from repro.net.pcap import write_pcap

        count = write_pcap(trace.packets, args.pcap)
        lines.append(f"wrote {args.pcap}: {count} packets (linktype RAW)")
    return "\n".join(lines)


def _cmd_filter(args: argparse.Namespace) -> str:
    """Run a bitmap filter over a saved trace/capture, write the survivors."""
    from repro.core.bitmap_filter import FilterConfig
    from repro.core.filter_api import build_filter
    from repro.net.address import AddressSpace
    from repro.traffic.trace import Trace

    if args.input.endswith(".pcap"):
        from repro.net.pcap import read_pcap

        if not args.protected:
            raise SystemExit("--protected is required for pcap input "
                             "(e.g. --protected 172.16.0.0/24,172.16.1.0/24)")
        packets = read_pcap(args.input).sorted_by_time()
        protected = AddressSpace(args.protected.split(","))
        trace = Trace(packets, protected)
    else:
        trace = Trace.load_npz(args.input)
        if args.protected:
            trace = Trace(trace.packets, AddressSpace(args.protected.split(",")),
                          trace.metadata)

    config = FilterConfig(
        order=args.order, num_vectors=args.k, num_hashes=args.m,
        rotation_interval=args.dt, seed=args.hash_seed,
        layers=("verify",) if args.filter == "hybrid" else ())
    filt = build_filter(config, trace.protected)
    verdicts = filt.process_batch(trace.packets, exact=True)

    lines = [
        f"filter: {filt}",
        f"packets: {len(trace.packets)}  passed: {int(verdicts.sum())}  "
        f"dropped: {int((~verdicts).sum())}",
        f"incoming drop rate: {filt.stats.incoming_drop_rate * 100:.2f}%",
        f"peak utilization: {filt.peak_utilization:.4f}",
    ]
    if args.filter == "hybrid":
        lines.append(
            f"verification: {filt.confirmed} admits confirmed, "
            f"{filt.denied} false admits denied "
            f"(table {filt.table.occupancy}/{filt.table.capacity} slots, "
            f"{filt.table.memory_bytes / 1024:.1f} KiB)")
    if args.out:
        survivors = trace.packets[verdicts]
        if args.out.endswith(".pcap"):
            from repro.net.pcap import write_pcap

            write_pcap(survivors, args.out)
        else:
            Trace(survivors, trace.protected,
                  dict(trace.metadata)).save_npz(args.out)
        lines.append(f"wrote {int(verdicts.sum())} surviving packets to {args.out}")
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> str:
    """Run the online filtering daemon until SIGTERM/SIGINT."""
    import asyncio
    import json

    from repro.core.bitmap_filter import FilterConfig
    from repro.core.resilience import FailPolicy
    from repro.net.address import AddressSpace
    from repro.serve import FilterDaemon, ServeConfig

    config = ServeConfig(
        filter=FilterConfig(
            order=args.order, num_vectors=args.k, num_hashes=args.m,
            rotation_interval=args.dt, seed=args.hash_seed,
            fail_policy=FailPolicy(args.fail_policy),
            layers=("verify",) if args.filter == "hybrid" else ()),
        protected=AddressSpace(args.protected.split(",")),
        host=args.host, port=args.port, unix_path=args.unix,
        http_host=args.http_host, http_port=args.http_port,
        http=not args.no_http,
        clock=args.clock,
        exact=not args.windowed,
        backpressure=args.backpressure,
        queue_frames=args.queue_frames,
        batch_max_packets=args.batch_max_packets,
        snapshot_path=args.snapshot,
        restore_path=args.restore,
        reload_path=args.reload_config,
    )

    async def run() -> None:
        daemon = FilterDaemon(config)
        await daemon.start()
        daemon.install_signal_handlers()
        ready = {
            "data": list(daemon.data_address),
            "unix": daemon.unix_address,
            "http": list(daemon.http_address) if daemon.http_address else None,
            "clock": config.clock,
        }
        # Machine-readable readiness line: supervisors and the smoke tests
        # wait for it before connecting.
        print("REPRO-SERVE READY " + json.dumps(ready), flush=True)
        await daemon.serve_forever()

    asyncio.run(run())
    return "repro-serve: drained and exited cleanly"


def _cmd_route(args: argparse.Namespace) -> str:
    """Consistent-hash ring math: who owns which flows, and what moves.

    Given node names and a key source (explicit addresses, a saved trace,
    or a uniform sample), prints each node's share; ``--drop NODE``
    additionally shows the remap a node's departure causes — consistent
    hashing guarantees only the departed node's share moves, and this
    command shows it.
    """
    import numpy as np

    from repro.fleet.ring import HashRing
    from repro.net.address import format_ipv4, parse_ipv4

    names = [name for name in args.nodes.split(",") if name]
    if not names:
        raise SystemExit("route: --nodes needs at least one name")
    ring = HashRing(names, replicas=args.replicas, seed=args.ring_seed)

    if args.addr:
        keys = np.array([parse_ipv4(a) for a in args.addr.split(",")],
                        dtype=np.uint64)
        labels = [format_ipv4(int(k)) for k in keys]
    elif args.trace:
        from repro.net.packet import DIRECTION_INCOMING
        from repro.traffic.trace import Trace

        trace = Trace.load_npz(args.trace)
        directions = trace.packets.directions(trace.protected)
        incoming = directions == DIRECTION_INCOMING
        keys = np.where(incoming, trace.packets.dst,
                        trace.packets.src).astype(np.uint64)
        labels = None
    else:
        rng = np.random.default_rng(args.sample_seed)
        keys = rng.integers(0, 2 ** 32, size=args.sample, dtype=np.uint64)
        labels = None

    lines = [f"ring: {len(names)} nodes x {args.replicas} replicas "
             f"(seed {args.ring_seed:#x}), {len(keys)} keys"]
    if labels is not None:
        owners = ring.owners_of(keys)
        for label, owner in zip(labels, owners):
            lines.append(f"  {label} -> {owner}")
        return "\n".join(lines)

    shares = ring.shares(keys)
    total = max(len(keys), 1)
    for name in ring.nodes:
        count = shares[name]
        lines.append(f"  {name:<16} {count:>10} keys  {count / total:7.2%}")
    if args.drop:
        if args.drop not in ring:
            raise SystemExit(f"route: --drop {args.drop!r} not in --nodes")
        before = np.asarray(ring.owners_of(keys))
        ring.remove(args.drop)
        after = np.asarray(ring.owners_of(keys))
        moved = before != after
        stray = int((moved & (before != args.drop)).sum())
        lines.append(
            f"dropping {args.drop}: {int(moved.sum())} keys remap "
            f"({int(moved.sum()) / total:.2%}; owned share was "
            f"{shares[args.drop] / total:.2%}); "
            f"{stray} keys moved that it did not own"
            + (" — NOT minimal!" if stray else " (minimal remap)"))
    return "\n".join(lines)


def _cmd_replay_fleet(args: argparse.Namespace) -> str:
    """Drive a whole fleet: spawn (or target) N daemons, route, verify.

    ``--fleet N`` spawns an ephemeral N-daemon fleet (packet clock, so
    verdicts are deterministic); ``--fleet-nodes`` targets a running one.
    ``--verify`` proves fleet verdicts byte-identical to a single-filter
    offline replay while healthy; with ``--kill-node I`` a daemon is
    SIGKILLed mid-replay and the check becomes: divergence confined to
    the dead node's flows, every diverged verdict equal to the fail
    policy's answer, and zero client hangs.

    ``--reconfig-order N`` runs a **rolling geometry reconfig**
    mid-replay (``FleetManager.rolling_reconfig``): the verify twin
    becomes ``run_filter_with_reconfig`` rebuilding at the same shared
    boundary, and the check stays byte-identity.  ``--add-node`` scales
    the fleet out by one store-pre-warmed node mid-replay: the check is
    divergence confined to the arrival's stolen share, plus a nonzero
    ``restored_arrivals`` in its ``/healthz`` (proof it served warm).
    """
    import tempfile
    import time as _time

    import numpy as np

    from repro.core.resilience import FailPolicy
    from repro.fleet import FleetManager, FleetRouter, NodeSpec, policy_verdicts
    from repro.serve.retry import RetryPolicy
    from repro.traffic.trace import Trace

    trace = Trace.load_npz(args.trace)
    packets = trace.packets.sorted_by_time()
    fail_policy = FailPolicy(args.fail_policy)
    manager = None
    try:
        if args.fleet:
            protected = ",".join(str(net)
                                 for net in trace.protected.networks)
            manager = FleetManager(
                protected, size=args.fleet,
                workdir=tempfile.mkdtemp(prefix="repro-fleet-"),
                fail_policy=args.fail_policy,
                filter_kind=getattr(args, "filter", "bitmap"))
            specs = manager.start()
        else:
            specs = []
            for index, endpoint in enumerate(args.fleet_nodes.split(",")):
                host, _, port = endpoint.rpartition(":")
                specs.append(NodeSpec(name=f"node{index}", host=host,
                                      port=int(port)))
        router = FleetRouter(
            specs, protected=trace.protected, fail_policy=fail_policy,
            retry=RetryPolicy(max_attempts=2, base_delay=0.05,
                              max_delay=0.5, deadline=5.0),
            failure_threshold=3, reset_timeout=1.0,
            request_timeout=args.fleet_timeout,
            connect_timeout=args.fleet_timeout)
        with router:
            info = router.fleet_config()  # raises loudly on geometry skew
            step = args.frame_packets
            frames = [packets[i:i + step]
                      for i in range(0, len(packets), step)]
            kill_name = None
            kill_frame = len(frames)
            reconfig = getattr(args, "reconfig_order", None)
            add_node = getattr(args, "add_node", False)
            if (args.kill_node is not None) + bool(reconfig) + add_node > 1:
                raise SystemExit(
                    "replay-to: --kill-node, --reconfig-order and "
                    "--add-node are mutually exclusive")
            if (reconfig or add_node) and manager is None:
                raise SystemExit(
                    "replay-to: --reconfig-order/--add-node require "
                    "--fleet (the driver must own the daemon processes)")
            if args.kill_node is not None:
                if manager is None:
                    raise SystemExit(
                        "replay-to: --kill-node requires --fleet (the "
                        "driver must own the daemon processes to kill one)")
                kill_name = router.ring.nodes[args.kill_node]
                kill_frame = max(1, int(len(frames) * args.kill_at))
            event_frame = (max(1, int(len(frames) * args.reconfig_at))
                           if (reconfig or add_node) else len(frames))
            reconfig_report = None
            add_report = None
            old_fcfg = dict(info["filter"])
            old_fcfg.pop("fail_policy")
            began = _time.perf_counter()
            if reconfig or add_node:
                masks = router.filter_batches(frames[:event_frame],
                                              window=args.window)
                if reconfig:
                    from repro.core.bitmap_filter import FilterConfig

                    new_fcfg = dict(old_fcfg, order=reconfig)
                    reconfig_report = manager.rolling_reconfig(
                        FilterConfig(**new_fcfg, fail_policy=fail_policy))
                else:
                    add_report = manager.add_node(router)
                masks += router.filter_batches(frames[event_frame:],
                                               window=args.window)
            else:
                masks = router.filter_batches(frames[:kill_frame],
                                              window=args.window)
                if kill_name is not None:
                    manager.kill(kill_name)
                    masks += router.filter_batches(frames[kill_frame:],
                                                   window=args.window)
            elapsed = _time.perf_counter() - began
        verdicts = (np.concatenate(masks) if masks
                    else np.zeros(0, dtype=bool))
        pps = len(packets) / elapsed if elapsed > 0 else float("inf")
        owner_names = np.asarray(router.owner_names(packets))
        lines = [
            f"fleet: {len(specs)} nodes, policy {fail_policy.value}, "
            f"clock {info['clock']}",
            f"streamed {len(packets)} packets in {len(frames)} frames "
            f"over {elapsed:.3f}s ({pps:,.0f} packets/s)",
            f"passed: {int(verdicts.sum())}  "
            f"dropped: {int((~verdicts).sum())}",
        ]
        for spec in router.nodes:
            owned = int((owner_names == spec.name).sum())
            suffix = "  [KILLED]" if spec.name == kill_name else ""
            lines.append(f"  {spec.name:<8} {spec.endpoint:<22} "
                         f"{owned:>8} packets{suffix}")
        if reconfig_report is not None:
            lines.append(
                f"rolling reconfig: order -> {reconfig} on "
                f"{len(reconfig_report.nodes)} nodes at shared boundary "
                f"t={reconfig_report.rebuild_at:g}")
        if add_report is not None:
            health = manager.healthz(add_report.spec.name)
            stolen = ", ".join(f"{donor}:{count}" for donor, count
                               in sorted(add_report.stolen.items()))
            source = (f"warm from {add_report.restored_from.path.name}"
                      if add_report.warm else "cold (store was empty)")
            lines.append(
                f"scale-out: {add_report.spec.name} joined {source}; "
                f"stolen share by donor: {stolen}; "
                f"restored_arrivals={health['restored_arrivals']}")
        if args.verify:
            if info["clock"] != "packet":
                lines.append(
                    "verify: SKIPPED — fleet daemons stamp arrival times "
                    "(clock=wall); run them with --clock packet to verify")
                return "\n".join(lines)
            if reconfig_report is not None:
                from repro.core.bitmap_filter import FilterConfig
                from repro.sim.pipeline import run_filter_with_reconfig

                reference = np.asarray(run_filter_with_reconfig(
                    FilterConfig(**old_fcfg, fail_policy=fail_policy),
                    reconfig_report.config,
                    Trace(packets, trace.protected),
                    reconfig_report.rebuild_at,
                    exact=info["exact"]), dtype=bool)
                if np.array_equal(verdicts, reference):
                    lines.append(
                        f"verify: OK — {len(verdicts)} fleet verdicts "
                        "byte-identical to offline replay through the "
                        "rolling reconfig (rebuild at shared boundary "
                        f"t={reconfig_report.rebuild_at:g})")
                else:
                    diff = int((verdicts != reference).sum())
                    lines.append(f"verify: MISMATCH on {diff} of "
                                 f"{len(verdicts)} verdicts across the "
                                 "rolling reconfig")
                    raise SystemExit("\n".join(lines))
                return "\n".join(lines)
            reference = _offline_reference(info, packets)
            if add_report is not None:
                cut = sum(len(frame) for frame in frames[:event_frame])
                diverged = np.flatnonzero(verdicts != reference)
                foreign = [i for i in diverged
                           if i < cut
                           or owner_names[i] != add_report.spec.name]
                if foreign:
                    lines.append(
                        f"verify: FAIL — {len(foreign)} diverged verdicts "
                        "outside the arrival's stolen share (e.g. packet "
                        f"{foreign[0]} owned by {owner_names[foreign[0]]})")
                    raise SystemExit("\n".join(lines))
                if diverged.size == 0:
                    lines.append(
                        f"verify: OK — {len(verdicts)} verdicts identical "
                        "to offline replay straight through the scale-out")
                else:
                    lines.append(
                        f"verify: DEGRADED-CONSISTENT — {len(diverged)} "
                        "verdicts diverged, all on the stolen share "
                        f"{add_report.spec.name} now owns (warm-started "
                        "state approximates the donors' marks)")
                return "\n".join(lines)
            if kill_name is None:
                if np.array_equal(verdicts, reference):
                    lines.append(
                        f"verify: OK — {len(verdicts)} fleet verdicts "
                        "byte-identical to single-filter offline replay")
                else:
                    diff = int((verdicts != reference).sum())
                    lines.append(f"verify: MISMATCH on {diff} of "
                                 f"{len(verdicts)} verdicts")
                    raise SystemExit("\n".join(lines))
            else:
                diverged = np.flatnonzero(verdicts != reference)
                foreign = [i for i in diverged
                           if owner_names[i] != kill_name]
                policy_ref = policy_verdicts(packets, trace.protected,
                                             fail_policy)
                inconsistent = [i for i in diverged
                                if verdicts[i] != policy_ref[i]]
                if foreign:
                    lines.append(
                        f"verify: FAIL — {len(foreign)} diverged verdicts "
                        f"belong to surviving nodes (e.g. packet "
                        f"{foreign[0]} owned by {owner_names[foreign[0]]})")
                    raise SystemExit("\n".join(lines))
                if inconsistent:
                    lines.append(
                        f"verify: FAIL — {len(inconsistent)} diverged "
                        "verdicts do not match the fail policy")
                    raise SystemExit("\n".join(lines))
                lines.append(
                    f"verify: DEGRADED-CONSISTENT — {len(diverged)} "
                    f"verdicts diverged after killing {kill_name}, all "
                    f"owned by it and all equal to the "
                    f"{fail_policy.value} policy answer")
        return "\n".join(lines)
    finally:
        if manager is not None:
            manager.shutdown()


def _offline_reference(info: dict, packets) -> "np.ndarray":
    """Single-filter offline verdicts for a daemon self-description."""
    import numpy as np

    from repro.core.bitmap_filter import FilterConfig
    from repro.core.filter_api import build_filter
    from repro.core.resilience import FailPolicy
    from repro.net.address import AddressSpace
    from repro.sim.pipeline import run_filter_on_trace
    from repro.traffic.trace import Trace

    # The self-description carries the whole stack (geometry + layers), so
    # the twin reproduces a hybrid daemon's verification tier too.
    fcfg = dict(info["filter"])
    policy = FailPolicy(fcfg.pop("fail_policy"))
    twin = build_filter(FilterConfig(**fcfg), AddressSpace(info["protected"]),
                        fail_policy=policy)
    offline = run_filter_on_trace(
        twin, Trace(packets, AddressSpace(info["protected"])),
        exact=info["exact"])
    return np.asarray(offline.verdicts, dtype=bool)


def _cmd_replay_to(args: argparse.Namespace) -> str:
    """Stream a saved trace through a live daemon (the load driver).

    With ``--verify`` the daemon's verdicts are compared bit-for-bit
    against an offline ``run_filter_on_trace`` twin built from the
    daemon's own FT_CONFIG self-description — the online-equals-offline
    differential check.
    """
    import time as _time

    import numpy as np

    from repro.serve.client import FilterClient
    from repro.traffic.trace import Trace

    trace = Trace.load_npz(args.trace)
    packets = trace.packets.sorted_by_time()
    if args.unix:
        client = FilterClient.connect_unix(args.unix)
    else:
        client = FilterClient.connect(args.host, args.port)
    with client:
        info = client.config()
        step = args.frame_packets
        frames = [packets[i:i + step] for i in range(0, len(packets), step)]
        began = _time.perf_counter()
        masks: List[np.ndarray] = []
        for _ in range(args.repeat):
            masks = list(client.filter_stream(frames, window=args.window))
        elapsed = _time.perf_counter() - began
    verdicts = (np.concatenate(masks) if masks
                else np.zeros(0, dtype=bool))
    total = len(packets) * args.repeat
    pps = total / elapsed if elapsed > 0 else float("inf")
    lines = [
        f"streamed {total} packets in {len(frames) * args.repeat} frames "
        f"over {elapsed:.3f}s ({pps:,.0f} packets/s)",
        f"daemon: clock={info['clock']} backpressure={info['backpressure']}",
        f"passed: {int(verdicts.sum())}  dropped: {int((~verdicts).sum())}",
    ]
    if args.verify:
        if info["clock"] != "packet":
            lines.append(
                "verify: SKIPPED — the daemon stamps arrival times "
                "(clock=wall), so offline replay is not comparable; "
                "run the daemon with --clock packet to verify")
        else:
            from repro.core.bitmap_filter import FilterConfig
            from repro.core.filter_api import build_filter
            from repro.core.resilience import FailPolicy
            from repro.net.address import AddressSpace
            from repro.sim.pipeline import run_filter_on_trace

            fcfg = dict(info["filter"])
            policy = FailPolicy(fcfg.pop("fail_policy"))
            twin = build_filter(
                FilterConfig(**fcfg), AddressSpace(info["protected"]),
                fail_policy=policy)
            offline = run_filter_on_trace(
                twin, Trace(packets, AddressSpace(info["protected"])),
                exact=info["exact"])
            reference = np.asarray(offline.verdicts, dtype=bool)
            if args.repeat != 1:
                lines.append("verify: SKIPPED — --repeat reuses filter "
                             "state across passes; verify with --repeat 1")
            elif np.array_equal(verdicts, reference):
                lines.append(f"verify: OK — {len(verdicts)} verdicts "
                             "byte-identical to offline replay")
            else:
                diff = int((verdicts != reference).sum())
                lines.append(f"verify: MISMATCH on {diff} of "
                             f"{len(verdicts)} verdicts")
                raise SystemExit("\n".join(lines))
    return "\n".join(lines)


def _cmd_fleet_stats(args: argparse.Namespace) -> str:
    """Scrape every node's /metrics page and merge into one fleet view.

    Counters and histograms sum across nodes (the fleet-wide totals);
    every instrument also appears under a ``node`` label for the
    per-node breakdown.  Gauges stay per-node only — summing uptimes is
    not a fleet uptime.
    """
    import urllib.request

    from repro.telemetry.exporters import summarize_prometheus, to_prometheus
    from repro.telemetry.merge import aggregate_fleet

    pages: Dict[str, str] = {}
    down: List[str] = []
    for index, endpoint in enumerate(args.nodes.split(",")):
        url = endpoint.strip()
        if not url.startswith("http://") and not url.startswith("https://"):
            url = "http://" + url
        url = url.rstrip("/")
        if not url.endswith("/metrics"):
            url += "/metrics"
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as resp:
                pages[f"node{index}"] = resp.read().decode()
        except OSError as exc:
            # One sick node must not abort the whole scrape: report it
            # DOWN and merge whoever answered.
            down.append(f"node{index} ({url}): {exc}")
    if not pages:
        raise SystemExit("fleet-stats: every node unreachable:\n  "
                         + "\n  ".join(down))
    merged = to_prometheus(aggregate_fleet(pages))
    summary = summarize_prometheus(merged, args.prefix).splitlines()
    unified = [line for line in summary if 'node="' not in line]
    per_node = [line for line in summary if 'node="' in line]
    header = f"fleet: {len(pages)} nodes scraped"
    if down:
        header += f", {len(down)} DOWN"
    lines = [header]
    lines += [f"  DOWN {entry}" for entry in down]
    lines += ["", "fleet-wide:"]
    lines += ["  " + line for line in unified] or ["  (no metrics)"]
    lines += ["", "per-node breakdown:"]
    lines += ["  " + line for line in per_node] or ["  (no metrics)"]
    return "\n".join(lines)


def _multisite_args(parser: argparse.ArgumentParser) -> None:
    """The scenario-engine options layered on the multisite experiment."""
    parser.add_argument("--topologies", default="fat-tree,multi-isp,cross-dc",
                        help="comma-separated topology kinds to run")
    parser.add_argument("--mixes", default="web-search,data-mining",
                        help="comma-separated traffic mixes to run")
    parser.add_argument("--num-sites", type=int, default=3,
                        help="client sites per scenario")
    parser.add_argument("--scenario", default=None, metavar="PATH",
                        help="run one TOML scenario spec instead of the "
                             "topology x mix matrix")
    parser.add_argument("--preset", default=None, metavar="NAME",
                        help="run one named preset scenario "
                             "(see repro.scenarios.PRESETS)")
    parser.add_argument("--online", default=None, metavar="DIR",
                        help="replay each scenario against a live per-site "
                             "daemon fleet (one ephemeral daemon per site); "
                             "DIR holds fleet workdirs + the snapshot store")
    parser.add_argument("--verify", action="store_true",
                        help="with --online: assert verdict byte-identity "
                             "against the offline twin (including roaming "
                             "snapshot handoffs)")


def _cmd_multisite(args: argparse.Namespace) -> str:
    """Run scenarios (matrix, preset, or TOML file), offline or online."""
    from pathlib import Path

    from repro.experiments.multisite import scenario_matrix
    from repro.scenarios import PRESETS, build_scenario, load_scenario
    from repro.scenarios.runner import ScenarioOutcome, run_offline

    if args.verify and args.online is None:
        raise SystemExit("multisite: --verify requires --online")
    if args.scenario is not None:
        specs = [load_scenario(args.scenario)]
    elif args.preset is not None:
        try:
            specs = [PRESETS[args.preset]]
        except KeyError:
            raise SystemExit(
                f"multisite: unknown preset {args.preset!r}; known: "
                f"{', '.join(sorted(PRESETS))}") from None
    else:
        specs = scenario_matrix(
            _resolve_scale(args),
            topologies=tuple(t.strip() for t in args.topologies.split(",")),
            mixes=tuple(m.strip() for m in args.mixes.split(",")),
            num_sites=args.num_sites)

    reports = []
    for spec in specs:
        run = build_scenario(spec)
        if args.online is not None:
            from repro.scenarios.online import run_online

            workdir = Path(args.online) / spec.name.replace("/", "-")
            online = run_online(run, workdir=workdir, verify=args.verify)
            text = ScenarioOutcome(
                spec=spec, sites=online.sites, roamers=online.roamers,
                aggregate=online.aggregate).report()
            text += "\nonline: one daemon per site (packet clock)"
            if online.verified:
                total = sum(s.packets for s in online.sites) + sum(
                    len(r.verdicts) for r in online.roamers)
                text += (f"\nverify: OK — {total} verdicts byte-identical "
                         "to offline replay")
            reports.append(text)
        else:
            reports.append(run_offline(run).report())
    return "\n\n".join(reports)


def _cmd_advise(args: argparse.Namespace) -> str:
    """Recommend (k, n, m, dt) for an observed per-site connection count."""
    from repro.core.parameters import ParameterAdvisor

    advisor = ParameterAdvisor(expiry_timer=args.te,
                               rotation_interval=args.dt)
    params = advisor.recommend(
        args.connections, target_penetration=args.target_p,
        max_num_hashes=args.max_m)
    return (f"for c={args.connections:g} connections per Te={args.te:g}s "
            f"window (target p<={args.target_p:g}):\n"
            f"  {params.describe()}")


def _cmd_trace_info(args: argparse.Namespace) -> str:
    from repro.analysis.composition import composition
    from repro.traffic.trace import Trace

    trace = Trace.load_npz(args.path)
    nets = ", ".join(str(net) for net in trace.protected.networks)
    report = composition(trace.packets, trace.protected)
    return (f"{args.path}: {trace.summary().describe()}\n"
            f"protected networks: {nets}\n"
            f"metadata: {trace.metadata}\n"
            f"\ncomposition:\n{report.describe()}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of 'Mitigating Active Attacks "
            "Towards Client Networks Using the Bitmap Filter' (DSN 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for spec in EXPERIMENTS.values():
        p = sub.add_parser(spec.name, help=spec.help)
        _experiment_args(p, spec.default_scale)
        if spec.name == "multisite":
            _multisite_args(p)
    p = sub.add_parser("all", help="regenerate every experiment")
    _experiment_args(p, "small")

    stats = sub.add_parser(
        "stats",
        help="run an experiment with live telemetry and export the metrics",
    )
    stats.add_argument("--experiment", dest="experiment_name", default=None,
                       choices=tuple(EXPERIMENTS),
                       help="which experiment to instrument")
    stats.add_argument("--from-url", default=None, metavar="URL",
                       help="fetch and pretty-print a live daemon's /metrics "
                            "page instead of running an experiment "
                            "(e.g. 127.0.0.1:9100)")
    stats.add_argument("--prefix", default="",
                       help="with --from-url: only show metrics whose name "
                            "starts with this prefix (e.g. repro_serve_)")
    stats.add_argument("--every", type=int, default=1,
                       help="print a live summary every N simulated Δt ticks")
    stats.add_argument("--prom-out", default=None,
                       help="write Prometheus text-format metrics here "
                            "(default: inline)")
    stats.add_argument("--jsonl-out", default=None,
                       help="write the JSON-lines time series here "
                            "(default: inline)")
    _experiment_args(stats, "small")

    gen = sub.add_parser("trace-gen", help="generate a synthetic trace file")
    gen.add_argument("--duration", type=float, default=60.0)
    gen.add_argument("--pps", type=float, default=400.0)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", default="trace.npz")
    gen.add_argument("--pcap", default=None,
                     help="also export a libpcap capture (opens in Wireshark)")

    info = sub.add_parser("trace-info", help="summarize a saved trace")
    info.add_argument("path")

    filt = sub.add_parser(
        "filter", help="run a bitmap filter over a saved trace or pcap"
    )
    filt.add_argument("input", help=".npz trace or .pcap capture")
    filt.add_argument("--out", default=None,
                      help="write surviving packets here (.npz or .pcap)")
    filt.add_argument("--protected", default=None,
                      help="comma-separated CIDRs (required for pcap input)")
    filt.add_argument("--order", "-n", type=int, default=20)
    filt.add_argument("--k", type=int, default=4)
    filt.add_argument("--m", type=int, default=3)
    filt.add_argument("--dt", type=float, default=5.0)
    filt.add_argument("--hash-seed", type=int, default=0x5EED)
    _filter_arg(filt)

    export = sub.add_parser("export", help="dump every figure's data as CSV")
    export.add_argument("--out", default="figures")
    _scale_arg(export, "small")

    serve = sub.add_parser(
        "serve",
        help="run the online filtering daemon (see docs/serving.md)",
    )
    serve.add_argument("--protected", required=True,
                       help="comma-separated protected CIDRs "
                            "(e.g. 172.16.0.0/24,172.16.1.0/24)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9000,
                       help="data port (0 = ephemeral)")
    serve.add_argument("--unix", default=None, metavar="PATH",
                       help="additionally listen on a Unix socket")
    serve.add_argument("--http-host", default="127.0.0.1")
    serve.add_argument("--http-port", type=int, default=9100,
                       help="metrics/health/snapshot port (0 = ephemeral)")
    serve.add_argument("--no-http", action="store_true",
                       help="disable the embedded HTTP endpoint")
    serve.add_argument("--backend", choices=("serial",), default="serial",
                       help="accepted for existing command lines; the "
                            "filter always runs in the daemon process")
    serve.add_argument("--clock", choices=("wall", "packet"), default="wall",
                       help="wall: rotations every dt of real time (live "
                            "default); packet: rotations follow packet "
                            "timestamps (deterministic replay)")
    serve.add_argument("--backpressure", choices=("block", "shed"),
                       default="block",
                       help="full-queue behaviour: block the sender (exact) "
                            "or shed via the fail policy (responsive)")
    serve.add_argument("--queue-frames", type=int, default=64)
    serve.add_argument("--batch-max-packets", type=int, default=65536)
    serve.add_argument("--windowed", action="store_true",
                       help="use the approximate windowed batch path "
                            "instead of the exact path")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="write a final snapshot here on graceful exit")
    serve.add_argument("--restore", default=None, metavar="PATH",
                       help="warm-start from this snapshot file")
    serve.add_argument("--reload-config", default=None, metavar="PATH",
                       help="SIGHUP re-reads this JSON filter config")
    serve.add_argument("--fail-policy", choices=("fail_closed", "fail_open"),
                       default="fail_closed")
    serve.add_argument("--order", "-n", type=int, default=20)
    serve.add_argument("--k", type=int, default=4)
    serve.add_argument("--m", type=int, default=3)
    serve.add_argument("--dt", type=float, default=5.0)
    serve.add_argument("--hash-seed", type=int, default=0x5EED)
    _filter_arg(serve)

    replay = sub.add_parser(
        "replay-to",
        help="stream a saved trace through a live daemon (load driver)",
    )
    replay.add_argument("trace", help=".npz trace file")
    replay.add_argument("--host", default="127.0.0.1")
    replay.add_argument("--port", type=int, default=9000)
    replay.add_argument("--unix", default=None, metavar="PATH",
                        help="connect over a Unix socket instead of TCP")
    replay.add_argument("--frame-packets", type=int, default=1000,
                        help="packets per FT_PACKETS frame")
    replay.add_argument("--window", type=int, default=8,
                        help="frames pipelined in flight")
    replay.add_argument("--repeat", type=int, default=1,
                        help="stream the trace this many times (load tests)")
    replay.add_argument("--verify", action="store_true",
                        help="compare daemon verdicts against an offline "
                             "run_filter_on_trace twin (requires a "
                             "--clock packet daemon)")
    fleet = replay.add_argument_group(
        "fleet", "drive a whole daemon fleet instead of one daemon")
    fleet.add_argument("--fleet", type=int, default=None, metavar="N",
                       help="spawn an ephemeral N-daemon fleet (packet "
                            "clock) and route the trace across it")
    fleet.add_argument("--fleet-nodes", default=None, metavar="HOST:PORT,...",
                       help="route across these already-running daemons "
                            "instead of spawning a fleet")
    fleet.add_argument("--fail-policy", choices=("fail_closed", "fail_open"),
                       default="fail_closed",
                       help="fleet degraded policy for flows whose node "
                            "is unreachable")
    _filter_arg(fleet)
    fleet.add_argument("--kill-node", type=int, default=None, metavar="I",
                       help="SIGKILL the I-th node mid-replay "
                            "(requires --fleet)")
    fleet.add_argument("--kill-at", type=float, default=0.5,
                       help="fraction of frames streamed before the kill")
    fleet.add_argument("--reconfig-order", type=int, default=None,
                       metavar="N",
                       help="run a rolling geometry reconfig to bitmap "
                            "order N mid-replay (requires --fleet); with "
                            "--verify, proves byte-identity to an offline "
                            "twin rebuilding at the same shared boundary")
    fleet.add_argument("--add-node", action="store_true",
                       help="scale the fleet out by one store-pre-warmed "
                            "node mid-replay (requires --fleet)")
    fleet.add_argument("--reconfig-at", type=float, default=0.5,
                       help="fraction of frames streamed before the "
                            "reconfig / scale-out")
    fleet.add_argument("--fleet-timeout", type=float, default=10.0,
                       help="per-node connect and per-request deadline")

    fstats = sub.add_parser(
        "fleet-stats",
        help="scrape every fleet node's /metrics and print one merged view",
    )
    fstats.add_argument("--nodes", required=True, metavar="URL,...",
                        help="comma-separated node metrics endpoints "
                             "(e.g. 127.0.0.1:9100,127.0.0.1:9101)")
    fstats.add_argument("--prefix", default="repro_",
                        help="only show metrics whose name starts with "
                             "this prefix")
    fstats.add_argument("--timeout", type=float, default=5.0,
                        help="per-node scrape deadline")

    route = sub.add_parser(
        "route",
        help="consistent-hash ring math: node shares and remap on churn",
    )
    route.add_argument("--nodes", required=True,
                       help="comma-separated node names (e.g. a,b,c)")
    route.add_argument("--replicas", type=int, default=128,
                       help="virtual nodes per real node")
    route.add_argument("--ring-seed", type=int, default=0x5EED)
    source = route.add_mutually_exclusive_group()
    source.add_argument("--addr", default=None, metavar="IP[,IP...]",
                        help="show the owner of these specific addresses")
    source.add_argument("--trace", default=None, metavar="PATH",
                        help="key the ring with a saved trace's "
                             "local addresses")
    source.add_argument("--sample", type=int, default=100000, metavar="N",
                        help="key the ring with N uniform random addresses "
                             "(default source)")
    route.add_argument("--sample-seed", type=int, default=0)
    route.add_argument("--drop", default=None, metavar="NODE",
                       help="also show the remap caused by this node leaving")

    advise = sub.add_parser(
        "advise",
        help="recommend bitmap geometry (m, n, dt) from observed demand",
    )
    advise.add_argument("--connections", "-c", type=float, required=True,
                        help="expected max connections per expiry window "
                             "(the c_obs column of a multisite run)")
    advise.add_argument("--target-p", type=float, default=0.01,
                        help="tolerable penetration probability (Eq. 2)")
    advise.add_argument("--te", type=float, default=20.0,
                        help="expiry timer Te in seconds")
    advise.add_argument("--dt", type=float, default=5.0,
                        help="rotation interval in seconds")
    advise.add_argument("--max-m", type=int, default=8,
                        help="cap on the number of hash functions")
    return parser


def _layer_scope(args: argparse.Namespace):
    """The ambient layer stack the run executes under.

    ``--filter hybrid`` installs the ``("verify",)`` stack, so the
    experiments wrap every filter they build; otherwise this is a no-op
    scope.  The daemon builds its own stack from ``ServeConfig`` / the
    fleet's filter args, so ``serve`` and ``replay-to`` get none.
    """
    from contextlib import nullcontext

    if (args.experiment in ("serve", "replay-to")
            or getattr(args, "filter", "bitmap") != "hybrid"):
        return nullcontext()
    from repro.core.filter_api import use_layers

    return use_layers(("verify",))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with _layer_scope(args):
        return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment == "trace-gen":
        print(_cmd_trace_gen(args))
        return 0
    if args.experiment == "trace-info":
        print(_cmd_trace_info(args))
        return 0
    if args.experiment == "filter":
        print(_cmd_filter(args))
        return 0
    if args.experiment == "stats":
        print(_cmd_stats(args))
        return 0
    if args.experiment == "serve":
        print(_cmd_serve(args))
        return 0
    if args.experiment == "replay-to":
        if args.fleet is not None or args.fleet_nodes is not None:
            print(_cmd_replay_fleet(args))
        else:
            print(_cmd_replay_to(args))
        return 0
    if args.experiment == "route":
        print(_cmd_route(args))
        return 0
    if args.experiment == "fleet-stats":
        print(_cmd_fleet_stats(args))
        return 0
    if args.experiment == "advise":
        print(_cmd_advise(args))
        return 0
    if args.experiment == "multisite":
        print(_cmd_multisite(args))
        return 0
    if args.experiment == "export":
        from repro.experiments.export import export_figures

        files = export_figures(args.out, _resolve_scale(args))
        print(f"wrote {len(files)} files to {args.out}:")
        for name in files:
            print(f"  {name}")
        return 0
    if args.experiment == "all":
        for name in EXPERIMENTS:
            print(f"\n{'=' * 72}\n>> {name}\n{'=' * 72}")
            print(_run_one(name, args))
        return 0
    print(_run_one(args.experiment, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
