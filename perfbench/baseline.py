"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout)::

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --trace-seeds 1 --out perfbench/BENCH_baseline.json

Runs ``run.py`` once per workload and seed with the ``run_seconds`` of
``BENCHMARK.json``, one run at a time, and records for each metric its
values, median, quartiles (``statistics.quantiles(values, n=4)``) and
the quartile distance as a share of the median.  Traced runs on
``--trace-seeds`` add the per-layer metrics.  Stops at the first run
that fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    command = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: " + ", ".join(
        f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
    ), flush=True)
    return report


def summarise(reports: list[dict]) -> dict:
    out = {}
    for name, first in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        entry = {"unit": first["unit"], "values": values, "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if entry["median"]:
                entry["iqr_share"] = (q3 - q1) / abs(entry["median"])
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    summary = {"run_seconds": BENCHMARK["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        reports = [run(workload, seed, 0) for seed in args.seeds]
        traced = [run(workload, seed, 1) for seed in args.trace_seeds]
        summary["environment"] = reports[-1]["environment"]
        summary["workloads"][workload] = {
            "end_to_end": summarise(reports),
            "per_layer": summarise(traced) if traced else {},
        }
        for name, entry in summary["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {entry['median']:.4g} iqr/median {entry.get('iqr_share', 0):.3f}")
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
