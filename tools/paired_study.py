"""Compare two source trees on the same simulated replications.

Runs one fixed study grid under the ``src`` of each of two checkouts:
the condition of acceptance criterion 04 (n = 500, p = 56, continuous
items, no noise factors) with ``pcr-vbv`` q=7, ``quickpred`` and
``oracle`` under the default settings and seed 11.  Both trees therefore
impute the same amputed datasets with the same seeds (common random
numbers), and their pooled results can be compared replication by
replication.  For each method entry and parameter it prints, over the
replications both trees completed:

* the spread (SD) of the first tree's estimates, as the scale of a gap;
* the largest and the mean paired estimate difference (second minus
  first), with the mean's standard error;
* the mean paired difference of CI widths, with its standard error;
* the coverage of each tree and the count of replications whose coverage
  verdict flipped each way (the discordant pairs of a McNemar test).

Run it from a checkout, naming the two ``src`` directories:

    python tools/paired_study.py ../parent/src src

Each tree runs in a child process whose ``PYTHONPATH`` is that tree's
``src`` alone.  With its 60 replications and 2 workers the two trees
take about 35 s together on 2 vCPUs.  Uses the standard library and numpy
only; it does not replace the acceptance tier.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 11
REPS = 60
WORKERS = 2
FIELDS = ("estimate", "ci_lower", "ci_upper", "full_estimate")


def emit(path: Path) -> None:
    """Run the grid under the ``pcimpute`` on ``sys.path`` and write its estimates as JSON."""
    import pcimpute

    methods = [
        pcimpute.MethodSetting("pcr-vbv", 7),
        pcimpute.MethodSetting("quickpred"),
        pcimpute.MethodSetting("oracle"),
    ]
    result = pcimpute.run_study(
        [pcimpute.SimulationCondition(n_rows=500)],
        methods,
        reps=REPS,
        seed=SEED,
        workers=WORKERS,
        settings=pcimpute.StudySettings(),
    )
    rows = [
        [r.method, r.n_components, r.parameter, r.rep, *(getattr(r, f) for f in FIELDS)]
        for r in result.estimates
    ]
    path.write_text(json.dumps({"rows": rows, "failures": result.failures}))


def run_tree(src: str, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    subprocess.run([sys.executable, __file__, "--emit", str(out)], env=env, check=True)
    return json.loads(out.read_text())


def compare(first: dict, second: dict) -> list[str]:
    """One line per method entry and parameter, then a summary line."""
    groups: dict[tuple, dict[int, list]] = {}
    for label, run in (("first", first), ("second", second)):
        for method, q, parameter, rep, *values in run["rows"]:
            pair = groups.setdefault((method, q, parameter), {}).setdefault(rep, {})
            pair[label] = values
    lines, largest, flips = [], 0.0, 0
    for (method, q, parameter), reps in groups.items():
        paired = [pair for pair in reps.values() if len(pair) == 2]
        a, b = (np.array([pair[label] for pair in paired]) for label in ("first", "second"))
        # Coverage of the mean full-data estimate, as the study's CIC counts it.
        covered = [(x[:, 1] <= x[:, 3].mean()) & (x[:, 3].mean() <= x[:, 2]) for x in (a, b)]
        gap = b[:, 0] - a[:, 0]
        width = (b[:, 2] - b[:, 1]) - (a[:, 2] - a[:, 1])
        lost = int((covered[0] & ~covered[1]).sum())
        gained = int((~covered[0] & covered[1]).sum())
        root_s, worst = np.sqrt(len(gap)), float(np.abs(gap).max(initial=0.0))
        largest, flips = max(largest, worst), flips + lost + gained
        name = method if q is None else f"{method} q={q}"
        lines.append(
            f"{name} {parameter}: S={len(gap)} (unpaired {len(reps) - len(gap)}), "
            f"estimate SD {a[:, 0].std(ddof=1):.3g}; estimate gap largest "
            f"{worst:.3g}, mean {gap.mean():.3g} (SE {gap.std(ddof=1) / root_s:.2g}); "
            f"CI width gap mean {width.mean():.3g} (SE {width.std(ddof=1) / root_s:.2g}); "
            f"coverage {covered[0].mean():.3f} -> {covered[1].mean():.3f}, "
            f"flips {lost} lost, {gained} gained"
        )
    failures = [len(first["failures"]), len(second["failures"])]
    lines.append(
        f"largest estimate gap {largest:.3g}; {flips} coverage verdict(s) flipped; "
        f"failed replication-method pairs {failures[0]} and {failures[1]}"
    )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="SRC", help="the two src directories")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        emit(args.emit)
        return 0
    if len(args.trees) != 2:
        parser.error("name two src directories")
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_tree(src, Path(tmp) / f"tree{i}.json") for i, src in enumerate(args.trees)]
    print(f"first {args.trees[0]}, second {args.trees[1]}; {REPS} replications, seed {SEED}")
    for line in compare(*runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
