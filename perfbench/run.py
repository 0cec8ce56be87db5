"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload offline-fig5 --seed 42 --seconds 20 --trace 0

Run from the root of a checkout.  Generates (or reuses) the workload's
input for ``--seed``, measures the program for ``--seconds``, checks its
verdicts, prints a human-readable table and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones of a
separate traced run.  A fuller report (machine fingerprint, every layer
metric, spans) goes to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import inputs, layers, machine  # noqa: E402
from harness.procs import child_env, reap, spawn  # noqa: E402

#: Program start-ups timed per run before and after the measurement; the
#: median of all of them is ``setup_s``.  The measured process's own
#: start-up is the last of those before.  One untimed start-up precedes
#: them, so the first spawn of a run (cold caches) does not count.
SETUP_BEFORE, SETUP_AFTER = 6, 5
CACHE_DIR = ROOT / ".perfbench_cache"
OUT_DIR = ROOT / ".perfbench_out"


def _terminate(signum, frame):  # pragma: no cover - signal path
    raise SystemExit(128 + signum)


def cpus():
    """(measured-process CPU, client CPU): distinct when there are two."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


def ensure_input(workload: str, seed: int, scale: str) -> Path:
    path = inputs.cache_path(CACHE_DIR, workload, scale, seed)
    if not path.exists():
        proc = spawn([sys.executable, "-m", "harness.inputs",
                      "--workload", workload, "--seed", str(seed),
                      "--scale", scale, "--cache-dir", str(CACHE_DIR)],
                     stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=600)
        finally:
            reap(proc)
        if code != 0 or not path.exists():
            raise SystemExit(f"input generation failed (exit {code})")
    return path


def _offline_child(args, cache: Path, cpu: int, extra=()):
    cmd = [sys.executable, "-m", "harness.offline",
           "--workload", args.workload, "--cache", str(cache),
           "--scale", args.scale, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cpu", str(cpu), *extra]
    began = time.perf_counter()
    proc = spawn(cmd, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready = time.perf_counter() - began
    if line.strip() != "READY":
        reap(proc)
        raise SystemExit(f"offline child failed during set-up: {line!r}")
    return proc, ready


def _setup_only(args, cache: Path, cpu: int, count: int):
    """Start-up times of ``count`` children that exit after ``READY``."""
    setups = []
    for _ in range(count):
        proc, ready = _offline_child(args, cache, cpu, ["--setup-only"])
        try:
            proc.wait(timeout=120)
        finally:
            reap(proc)
        setups.append(ready)
    return setups


def run_offline(args, cache: Path) -> dict:
    cpu, _ = cpus()
    _setup_only(args, cache, cpu, 1)
    setups = _setup_only(args, cache, cpu, SETUP_BEFORE - 1)
    spans = OUT_DIR / f"spans-{args.workload}-{args.scale}-{args.seed}.json"
    proc, ready = _offline_child(
        args, cache, cpu, ["--spans", str(spans)] if args.trace else [])
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=170)
    finally:
        reap(proc)
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"offline child exited {proc.returncode}")
    setups += _setup_only(args, cache, cpu, SETUP_AFTER)
    result = json.loads(out.strip().splitlines()[-1])
    packets = result["packets"] * len(result["passes"])
    return {
        "attempted": packets,
        "failed": result["failed"],
        "check": result["check"],
        "metrics": {
            "pps": result["pps"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "layers": result.get("layers"),
        "notes": result.get("notes", []),
        "detail": {"passes_s": result["passes"], "setup_samples_s": setups,
                   "confusion": result["confusion"],
                   "verdict_sha256": result["verdict_sha256"],
                   "transport": "in-process"},
    }


def run_serve(args, cache: Path) -> dict:
    from harness import serve

    cpu, client_cpu = cpus()
    return serve.run(cache=cache, scale_name=args.scale, seed=args.seed,
                     seconds=args.seconds, trace=bool(args.trace),
                     daemon_cpu=cpu, client_cpu=client_cpu,
                     setup_before=SETUP_BEFORE, setup_after=SETUP_AFTER,
                     spans_path=OUT_DIR / f"spans-{args.workload}-"
                                          f"{args.scale}-{args.seed}.json")


#: End-to-end metrics of the result line (BENCHMARK.json ``end_to_end``):
#: every workload reports them and none of them is ever 0.
END_TO_END = {"pps": "packets/s", "setup_s": "s", "peak_rss_mb": "MiB"}
#: Also printed: the error rate (its failures are the result line's
#: ``failed``) and, on serve-clean, the open-loop latency pair.
REPORTED_UNITS = {**END_TO_END, "error_rate": "ratio",
                  "verdict_p50_ms": "ms", "verdict_p99_ms": "ms"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="medium",
                        help="input size; 'tiny' is for the self-tests only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print("perfbench: no program to measure (src/repro is missing); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    fingerprint = machine.fingerprint(
        ROOT, loopback=args.workload == "serve-clean")
    OUT_DIR.mkdir(exist_ok=True)
    os.environ.update(child_env(ROOT))

    cache = ensure_input(args.workload, args.seed, args.scale)
    if args.workload == "serve-clean":
        run = run_serve(args, cache)
    else:
        run = run_offline(args, cache)

    attempted, failed = int(run["attempted"]), int(run["failed"])
    end_to_end = dict(run["metrics"])
    end_to_end["error_rate"] = failed / attempted
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "machine": fingerprint,
        "end_to_end": end_to_end, "layers": run.get("layers"),
        "attempted": attempted, "failed": failed, "check": run["check"],
        "detail": run.get("detail", {}),
    }
    name = f"{args.workload}-{args.scale}-{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1))

    print(f"# machine {json.dumps(report['machine'], sort_keys=True)}")
    for key, value in end_to_end.items():
        print(f"{key:>34} {value:>16.6g} {REPORTED_UNITS[key]}")
    for note in run.get("notes", ()):
        print(f"# {note}")
    for problem in run["check"]:
        print(f"# CHECK FAILED: {problem}")
    if args.trace:
        for key, value in sorted(run["layers"].items()):
            print(f"{key:>34} {value:>16.6g} {layers.UNITS[key]}")
        metrics = {k: {"value": run["layers"][k], "unit": unit}
                   for k, unit in layers.COMMON.items()}
    else:
        metrics = {k: {"value": run["metrics"][k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
