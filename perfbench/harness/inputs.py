"""Workload inputs: generated from a seed, cached by (workload, scale, seed).

Generation runs in its own process (``python -m harness.inputs``) and is
never timed; the measured processes only load the cached packet table.
The program under test receives nothing but these generated packets.

Run directly to fill the cache::

    PYTHONPATH=src:perfbench python3 -m harness.inputs \\
        --workload offline-fig5 --seed 42 --cache-dir .perfbench_cache
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import replace
from pathlib import Path

WORKLOADS = ("offline-fig5", "hybrid-insider", "serve-clean")

#: The seed whose outputs are pinned in :mod:`harness.checks`.
DEFAULT_SEED = 42

#: Packets ``hybrid-insider`` keeps.  The clean trace's length varies by a
#: fifth between seeds even within its nominal duration; a fixed count
#: makes every seed measure the same amount of work.
HYBRID_PACKETS = {"medium": 350_000, "tiny": 8_000}


def scale_for(name: str, seed: int):
    """The experiment scale a workload runs at, re-seeded.

    ``medium`` is the benchmark's scale (the paper ratios at the repo's
    default size); ``tiny`` exists only for the benchmark's self-tests.
    """
    from repro.experiments.config import MEDIUM, ExperimentScale

    scales = {
        "medium": MEDIUM,
        "tiny": ExperimentScale(name="tiny", duration=40.0, normal_pps=150.0,
                                bitmap_order=13),
    }
    try:
        return replace(scales[name], seed=seed)
    except KeyError:
        raise SystemExit(f"unknown scale {name!r}; choose from "
                         f"{sorted(scales)}") from None


def insider_attack(scale, protected):
    """The Sec. 5.2 insider at 1x the normal packet rate, whole trace long."""
    from repro.attacks.insider import InsiderAttack

    return InsiderAttack(
        attacker_addr=protected.networks[0].host(10),
        rate_pps=scale.normal_pps,
        start=0.0,
        duration=scale.duration,
        seed=scale.seed ^ 0x1221,
    )


def generate(workload: str, scale):
    """Build the workload's trace from the scale's seed."""
    from repro.experiments.fig2 import generate_trace
    from repro.experiments.fig5 import build_attack_trace
    from repro.traffic.trace import Trace

    clean = generate_trace(scale)
    if workload == "offline-fig5":
        return build_attack_trace(scale, clean)
    # A third of the clean trace is a sparse tail of long-lived sessions
    # reaching hours past its nominal duration, as far as the seed has it;
    # the other workloads keep the nominal duration only.
    clean = clean.time_slice(0.0, scale.duration)
    if workload == "serve-clean":
        return clean
    if workload == "hybrid-insider":
        pollution = insider_attack(scale, clean.protected).generate(
            clean.protected)
        merged = clean.merged_with(
            Trace(pollution, clean.protected, {"duration": scale.duration}))
        return Trace(merged.packets[:HYBRID_PACKETS[scale.name]],
                     clean.protected, merged.metadata)
    raise ValueError(f"unknown workload {workload!r}")


def cache_path(cache_dir: Path, workload: str, scale_name: str,
               seed: int) -> Path:
    return Path(cache_dir) / f"{workload}-{scale_name}-{seed}.npy"


def save(trace, path: Path) -> None:
    """Write the packet table (``.npy``) and its metadata (``.json``)
    atomically, so a killed generator never leaves a torn cache entry."""
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "protected": [str(net) for net in trace.protected.networks],
        "duration": trace.duration,
        "packets": len(trace),
        "digest": trace.digest(),
    }
    tmp = path.with_suffix(f".tmp{os.getpid()}.npy")
    np.save(tmp, trace.packets.data, allow_pickle=False)
    meta_path = path.with_suffix(".json")
    meta_tmp = meta_path.with_suffix(f".tmp{os.getpid()}")
    meta_tmp.write_text(json.dumps(meta))
    os.replace(meta_tmp, meta_path)
    os.replace(tmp, path)


def load(path: Path):
    """Load a cached trace back into a :class:`~repro.traffic.trace.Trace`."""
    import numpy as np

    from repro.net.address import AddressSpace, IPv4Network
    from repro.net.packet import PACKET_DTYPE, PacketArray
    from repro.traffic.trace import Trace

    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    data = np.load(path, allow_pickle=False)
    if data.dtype != PACKET_DTYPE:
        raise ValueError(f"unexpected packet dtype in {path}: {data.dtype}")
    protected = AddressSpace([IPv4Network.parse(t) for t in meta["protected"]])
    return Trace(PacketArray(data), protected, {"duration": meta["duration"]})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="medium")
    parser.add_argument("--cache-dir", required=True)
    args = parser.parse_args(argv)
    path = cache_path(Path(args.cache_dir), args.workload, args.scale,
                      args.seed)
    if not path.exists():
        save(generate(args.workload, scale_for(args.scale, args.seed)), path)


if __name__ == "__main__":
    main()
