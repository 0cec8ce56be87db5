"""Steadiness mode: two separated sets of runs of the same code.

    python3 perfbench/steadiness.py

Runs ``perfbench/run.py`` for every workload in BENCHMARK.json, for
:data:`RUNS` seeds per set and ``run_seconds`` per run (the same seeds in
both sets, workloads interleaved), one set after the other.  Per workload
and end-to-end metric it prints each set's median, the within-set spread
(interquartile range over the median), the drift of the second set's
median from the first's, and the bound in BENCHMARK.json next to them.
Bounds come from the drift between sets, not from the within-set spread;
the report flags every metric whose drift or spread exceeds its bound.
The full record goes to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seeds per set; set 2 repeats set 1's seeds.
RUNS = 10


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"sets": []}
    for _ in range(2):
        results = {w: [] for w in workloads}
        began = time.time()
        for seed in range(1, RUNS + 1):
            for workload in workloads:
                result = run_once(workload, seed, bench["run_seconds"])
                if not result["correct"]:
                    print(f"# {workload} seed {seed}: "
                          f"{result['failed']} failed", file=sys.stderr)
                results[workload].append(result)
        record["sets"].append({"started": began, "results": results})

    report = {}
    print(f"{'workload':<15} {'metric':<15} {'set medians':>28} "
          f"{'spread':>14} {'drift':>7} {'bound':>6}")
    for workload in workloads:
        for name, bound in bounds.items():
            sums = [summarize([r["metrics"][name]["value"]
                               for r in st["results"][workload]])
                    for st in record["sets"]]
            medians = [x["median"] for x in sums]
            drift = abs(medians[1] - medians[0]) / medians[0]
            spread = max(x["spread"] for x in sums)
            report[f"{workload}/{name}"] = {"sets": sums, "drift": drift,
                                            "max_spread": spread,
                                            "bound": bound}
            covered = drift <= bound and spread <= bound
            print(f"{workload:<15} {name:<15} "
                  f"{' '.join(f'{m:>13.6g}' for m in medians):>28} "
                  f"{spread:>14.4f} {drift:>7.4f} {bound:>6.3f}"
                  f"{'' if covered else '  NOT COVERED'}")
    record["report"] = report
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
