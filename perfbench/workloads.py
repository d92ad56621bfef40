"""The benchmark's workloads: inputs made from the seed, one operation, output checks.

Each workload builds its inputs in ``setup`` from the benchmark seed and
exposes ``execute`` (one operation, the part that is timed) and
``verify`` (the output checks, untimed).  ``verify`` raises
``CheckFailed`` on any wrong output and otherwise returns a digest of
the operation's result, which the worker compares when it repeats an
operation.

Why each workload exists:

* ``study-wide``: one Monte Carlo replication at p = 242 with every
  strategy: quickpred, pcr-all, pcr-aux, oracle and pcr-vbv, the paper's
  most faithful and most expensive one.  pcr-vbv re-extracts components
  at every column visit (400 PCA calls on 500 x 241 blocks per
  replication), so per-visit PCA work shows here; pcr-all and pcr-aux
  run PCA once each, and the other strategies spend their time in wide
  ridged regression draws, the pre-pass and the correlation screen.  It
  also runs data generation, amputation and pooling.
* ``cli-tall-pmm``: the file workflow a user runs, one fresh
  ``pcimpute impute`` process on a tall CSV with the default pmm
  imputer.  Donor matching dominates, then CSV I/O and the import; PCA
  and wide regressions take almost no part.

Two workloads, not more: they share the time budget of all runs, and on
a shared host longer runs of fewer workloads measure steadier.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pcimpute

PERFBENCH_DIR = Path(__file__).resolve().parent
NA_TOKEN = "NA"


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Size:
    wide_rows: int
    wide_factors: int
    wide_items: int
    tall_rows: int
    tall_items: int
    chains: int
    iterations: int
    components: int


SIZES = {
    # wide: p = 8 + 6 * 39 = 242 columns; tall: p = 8 + 6 * 8 = 56 columns.
    "full": Size(500, 7, 39, 1000, 8, 5, 20, 7),
    # A seconds-long version of every workload for the benchmark's own tests.
    "tiny": Size(60, 3, 2, 60, 2, 2, 2, 3),
}


def derived_seed(seed: int, *key: int) -> int:
    """A stable 32-bit seed for one input or operation of the run."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def make_dataset(cond: pcimpute.SimulationCondition, seed: int) -> pcimpute.IncompleteData:
    rng = np.random.default_rng(seed)
    values, roles = pcimpute.generate_complete(cond, rng)
    return pcimpute.ampute(values, roles, cond, rng)


def check_completions(values: np.ndarray, mask: np.ndarray, completions, chains: int) -> str:
    """Check completed matrices against their input and return their digest.

    Every completion must have the input's shape, hold only finite
    values and keep every observed cell bit for bit.
    """
    if len(completions) != chains:
        raise CheckFailed(f"expected {chains} completions, got {len(completions)}")
    digest = hashlib.sha256()
    observed = np.ascontiguousarray(values[mask]).tobytes()
    for k, completion in enumerate(completions, start=1):
        completion = np.asarray(completion)
        if completion.shape != values.shape:
            raise CheckFailed(f"completion {k} has shape {completion.shape}, expected {values.shape}")
        if not np.isfinite(completion).all():
            raise CheckFailed(f"completion {k} holds a missing or non-finite cell")
        if np.ascontiguousarray(completion[mask]).tobytes() != observed:
            raise CheckFailed(f"completion {k} changed an observed cell")
        digest.update(np.ascontiguousarray(completion, dtype=float).tobytes())
    return digest.hexdigest()


class StudyWide:
    """One ``run_study`` replication at p = 242 with all five strategies, one worker."""

    name = "study-wide"
    in_process = True

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        q = size.components
        self.methods = [
            pcimpute.MethodSetting("quickpred"),
            pcimpute.MethodSetting("pcr-all", q),
            pcimpute.MethodSetting("pcr-aux", q),
            pcimpute.MethodSetting("oracle"),
            pcimpute.MethodSetting("pcr-vbv", q),
        ]
        self.completions_per_op = len(self.methods) * size.chains

    def setup(self) -> None:
        size = self.size
        self.condition = pcimpute.SimulationCondition(
            n_rows=size.wide_rows, factors=size.wide_factors, items_per_factor=size.wide_items
        )
        # At full size these equal the StudySettings() defaults.
        self.settings = pcimpute.StudySettings(
            chains=size.chains, iterations=size.iterations, prepass_iterations=size.iterations
        )
        self.parameters = len(pcimpute.moment_parameter_ids(range(4)))

    def execute(self, index: int, tracer=None, root=None):
        return pcimpute.run_study(
            [self.condition],
            self.methods,
            reps=1,
            seed=derived_seed(self.seed, 1, index),
            workers=1,
            settings=self.settings,
        )

    def verify(self, index: int, result) -> str:
        if result.failures:
            raise CheckFailed(f"replication failed: {result.failures[0]}")
        expected = len(self.methods) * self.parameters
        if len(result.metrics) != expected:
            raise CheckFailed(f"expected {expected} metric records, got {len(result.metrics)}")
        for record in result.metrics:
            for name in ("prb", "cic", "ciw"):
                if not math.isfinite(getattr(record, name)):
                    raise CheckFailed(f"{record.method} {record.parameter}: {name} is not finite")
        digest = hashlib.sha256()
        for row in result.estimates:
            digest.update(
                repr((row.method, row.parameter, row.estimate, row.ci_lower, row.ci_upper)).encode()
            )
        return digest.hexdigest()


def write_input_csv(path: Path, data: pcimpute.IncompleteData) -> None:
    """Write the CLI input with the standard library, floats as ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.names)
        for values, observed in zip(data.values.tolist(), data.mask.tolist()):
            writer.writerow([repr(v) if o else NA_TOKEN for v, o in zip(values, observed)])


def read_completion_csv(path: Path, names: list[str]) -> np.ndarray:
    """Reload one completed CSV; a missing or non-finite cell fails the check."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as err:
        raise CheckFailed(f"cannot read {path.name}: {err}") from None
    if not rows or rows[0] != names:
        raise CheckFailed(f"{path.name}: header does not match the input")
    try:
        return np.array([[float(cell) for cell in row] for row in rows[1:]], dtype=float)
    except ValueError as err:
        raise CheckFailed(f"{path.name}: {err}") from None


class CliTallPmm:
    """One fresh ``pcimpute impute`` process: pcr-all, pmm, on a tall CSV."""

    name = "cli-tall-pmm"
    in_process = False

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.completions_per_op = size.chains

    def setup(self) -> None:
        size = self.size
        cond = pcimpute.SimulationCondition(n_rows=size.tall_rows, items_per_factor=size.tall_items)
        self.data = make_dataset(cond, derived_seed(self.seed, 0, 0))
        self.input = self.workdir / "input.csv"
        write_input_csv(self.input, self.data)

    def command(self, index: int, traced: bool) -> list[str]:
        size = self.size
        program = [str(PERFBENCH_DIR / "cli_child.py"), str(self._spans(index))] if traced else [
            "-m",
            "pcimpute.cli",
        ]
        return [sys.executable, *program, "impute",
                "--input", str(self.input),
                "--method", "pcr-all",
                "--npc", str(size.components),
                "--m", str(size.chains),
                "--maxit", str(size.iterations),
                "--seed", str(derived_seed(self.seed, 1, index)),
                "--out-dir", str(self._out_dir(index)),
                "--out-prefix", "completed"]  # fmt: skip

    def _out_dir(self, index: int) -> Path:
        return self.workdir / f"op{index}"

    def _spans(self, index: int) -> Path:
        return self.workdir / f"op{index}-spans.json"

    def execute(self, index: int, tracer=None, root=None):
        out_dir = self._out_dir(index)
        for stale in out_dir.glob("*"):
            stale.unlink()
        log = self.workdir / "cli.log"
        with open(log, "wb") as handle:
            status = subprocess.run(
                self.command(index, tracer is not None),
                stdout=handle,
                stderr=subprocess.STDOUT,
                timeout=150,
                check=False,
            ).returncode
        if tracer is not None and status == 0:
            tracer.extend(json.loads(self._spans(index).read_text()), index, root)
        return status, log.read_text(errors="replace")

    def verify(self, index: int, result) -> str:
        status, log = result
        if status != 0:
            raise CheckFailed(f"pcimpute impute exited {status}: {log.strip()[-300:]}")
        out_dir = self._out_dir(index)
        paths = [out_dir / f"completed_{k}.csv" for k in range(1, self.size.chains + 1)]
        completions = [read_completion_csv(path, self.data.names) for path in paths]
        return check_completions(self.data.values, self.data.mask, completions, self.size.chains)


WORKLOADS = {w.name: w for w in (StudyWide, CliTallPmm)}
