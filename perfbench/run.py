"""pcimpute benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-wide --seed 1 --seconds 30 --trace 0

Workloads: ``study-wide``, ``cli-tall-pmm`` (see
``workloads.py`` for what each runs and why).  Each run sets the
workload up ``SETUP_REPEATS`` times, each time in a fresh process
(imports, inputs from the seed, one warm-up operation), and reports the
median as ``setup_s``.  Each of those processes then runs the closed
loop for an equal share of ``--seconds`` and checks every output, so the
timed operations are spread over the whole run rather than one stretch
of it: the speed of a shared host drifts over tens of seconds.  The
end-to-end metrics pool the operations of all processes.  With
``--trace 1`` only the last process runs the loop, for all of
``--seconds``.  The benchmark sets no BLAS or thread environment
variables.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from traced
operations, plus the tracing overhead.  The lines before it give the
environment and every metric with its unit and sample count, including
``fail_rate``.  A full report (and with ``--trace 1`` the spans) is
written under ``.perfbench_out/``.  The exit status is 1 when any
output check fails and 2 when the benchmark cannot run at all, for
example outside a checkout of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("study-wide", "cli-tall-pmm")
SETUP_REPEATS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "completions_per_s": "1/s",
    "op_s_p50": "s",
    "cpu_s_per_completion": "s",
    "peak_rss_mb": "MB",
}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    found = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return found.stdout.strip() or None


def spawn_worker(
    args, phase: str, seconds: float, workdir: Path, deadline: float, spans_out: Path | None
) -> dict:
    """Run one worker process to completion and return its JSON report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--phase", phase,
        "--scale", args.scale,
        "--workdir", str(workdir),
    ]  # fmt: skip
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # A session of its own, so a timeout can stop the worker and any CLI child.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{phase} worker did not finish before the deadline") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RuntimeError(f"{phase} worker exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(reports: list[dict]) -> dict:
    walls = [wall for r in reports for wall in r["walls"]]
    cpus = [cpu for r in reports for cpu in r["cpus"]]
    completions = sum(r["completions"] for r in reports)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), len(reports)),
        "completions_per_s": (completions / sum(walls), len(walls)),
        "op_s_p50": (statistics.median(walls), len(walls)),
        "cpu_s_per_completion": (sum(cpus) / completions, len(walls)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), len(reports)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: for the benchmark's tests"
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "pcimpute" / "__init__.py").is_file():
        print(f"no pcimpute source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = out_dir / f"{label}-spans.json" if args.trace else None
    reports = []
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as scratch:
        try:
            for k in range(SETUP_REPEATS):
                phase = "run" if k == SETUP_REPEATS - 1 else "setup"
                if args.trace:
                    seconds = args.seconds if phase == "run" else 0.0
                else:
                    seconds = args.seconds / SETUP_REPEATS
                workdir = Path(scratch) / f"{phase}{k}"
                workdir.mkdir()
                reports.append(spawn_worker(args, phase, seconds, workdir, deadline, spans_out))
        except (RuntimeError, json.JSONDecodeError, IndexError) as err:
            print(f"benchmark could not run: {err}", file=sys.stderr)
            return 2
    main_report = reports[-1]
    attempted = sum(r["attempted"] for r in reports)
    errors = [e for r in reports for e in r["errors"]]
    failed = min(len(errors), attempted)

    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": main_report["blas"],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    if args.trace:
        from tracing import PER_LAYER, UNITS

        samples = len(main_report["walls"])
        measured = {name: (value, samples) for name, value in main_report["per_layer"].items()}
        units, carried = UNITS, PER_LAYER
    else:
        measured = end_to_end(reports)
        units = carried = END_TO_END_UNITS

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} scale {args.scale}")
    print("environment " + json.dumps(environment))
    for error in errors:
        print(f"FAILED {error}")
    for name, (value, samples) in measured.items():
        print(f"metric {name} = {value!r} {units[name]} (n={samples})")
    print(f"metric fail_rate = {failed / attempted!r} ratio (n={attempted})")
    metrics = {name: {"value": measured[name][0], "unit": units[name]} for name in carried}
    (out_dir / f"{label}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "scale": args.scale,
                "environment": environment,
                "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in measured.items()},
                "samples": {name: samples for name, (_, samples) in measured.items()},
                "setup_s_samples": [r["setup_s"] for r in reports],
                "op_walls": [wall for r in reports for wall in r["walls"]],
                "attempted": attempted,
                "failed": failed,
                "errors": errors,
            },
            indent=1,
        )
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
