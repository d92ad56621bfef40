"""One benchmark process: set up a workload, then optionally run the timed loop.

Started by ``run.py``; prints one JSON object as its last stdout line.

Each process imports, builds the inputs and runs one warm-up operation
(the set-up time), then runs operations one at a time (a closed loop
with one client) for about ``--seconds``; with ``--seconds 0`` it runs
none.  ``--phase run`` marks the last process of a benchmark run: it
runs at least one operation and then repeats the warm-up operation and
compares digests.  With ``--trace 1`` every loop operation runs twice,
untraced and then traced, so the difference is the tracing overhead;
the per-layer numbers come from the traced runs.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pcimpute  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed  # noqa: E402


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Runner:
    """Runs operations of one workload and keeps the tallies."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.errors: list[str] = []

    def operation(self, index: int, tracer: Tracer | None = None):
        """Run and check one operation; return (wall_s, cpu_s, digest or None)."""
        workload = self.workload
        self.attempted += 1
        wall = cpu = 0.0
        try:
            if tracer is not None and workload.in_process:
                tracer.install()
            try:
                cpu0, wall0 = cpu_seconds(), time.perf_counter()
                if tracer is None:
                    result = workload.execute(index)
                else:
                    with tracer.operation(index) as root:
                        result = workload.execute(index, tracer, root)
                wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
            finally:
                if tracer is not None and workload.in_process:
                    tracer.uninstall()
            return wall, cpu, workload.verify(index, result)
        except CheckFailed as err:
            self.errors.append(f"operation {index}: {err}")
        except Exception as err:  # noqa: BLE001 - a raising operation is a counted failure
            self.errors.append(f"operation {index} raised {type(err).__name__}: {err}")
        return wall, cpu, None


def blas_info() -> dict:
    """Which BLAS numpy uses and how many threads each loaded OpenBLAS runs (read only)."""
    import ctypes

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"), "threads": {}}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"][Path(path).name] = getter()
                break
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()

    source = Path(pcimpute.__file__).resolve().parent
    if source != ROOT / "src" / "pcimpute":
        print(f"pcimpute was imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.scale], args.workdir)
    runner = Runner(workload)
    workload.setup()
    _, _, first_digest = runner.operation(0)  # warm-up; repeated at the end
    report = {"setup_s": time.perf_counter() - STARTED}
    last = args.phase == "run"
    tracer = Tracer() if args.trace else None
    walls, cpus = [], []
    # Start another loop step while more than half a step's time is left,
    # so the loop ends, on average, when its share of the run is up.
    deadline = time.perf_counter() + args.seconds
    step = 0.0
    index = 1
    while (last and index == 1) or time.perf_counter() + step / 2 < deadline:
        step_started = time.perf_counter()
        wall, cpu, digest = runner.operation(index)
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            _, _, traced_digest = runner.operation(index, tracer)
            if digest is not None and traced_digest not in (None, digest):
                runner.errors.append(f"operation {index}: traced run gave another result")
        step = time.perf_counter() - step_started
        index += 1
    if last:
        _, _, repeat_digest = runner.operation(0)
        if first_digest is not None and repeat_digest not in (None, first_digest):
            runner.errors.append("operation 0 repeated at the end gave another result")
        report["blas"] = blas_info()
    usage = resource.RUSAGE_CHILDREN if not workload.in_process else resource.RUSAGE_SELF
    report.update(
        walls=walls,
        cpus=cpus,
        completions=len(walls) * workload.completions_per_op,
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
    )
    if tracer is not None and walls:
        report["per_layer"] = layer_metrics(tracer.spans, walls)
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps(tracer.dump()))
    report.update(attempted=runner.attempted, errors=runner.errors)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
