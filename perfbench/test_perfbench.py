"""Tests of the benchmark itself: tiny runs of every workload and its output checks.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pcimpute  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import UNITS  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import SIZES, CheckFailed, check_completions, make_dataset, read_completion_csv  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [*BENCHMARK["command"], "--workload", workload, "--seed", "3", "--seconds", "1"]
    command += ["--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def printed_metrics(stdout: str) -> dict[str, str]:
    units = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, rest = line[len("metric ") :].split(" = ", 1)
            units[name] = rest.split()[1]
    return units


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_tiny(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    expected = {**(UNITS if trace else END_TO_END_UNITS), "fail_rate": "ratio"}
    assert printed_metrics(done.stdout) == expected
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_traced_counts_are_exact():
    done = run_tiny("study-wide", 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    size = SIZES["tiny"]
    visits = size.chains * size.iterations * 4  # four incomplete target columns
    # pcr-vbv extracts components at every visit, pcr-all and pcr-aux once;
    # each of the five strategies draws once per visit.
    assert metrics["pca.pca_calls"]["value"] == visits + 2
    assert metrics["imputers.draw_linear_params_calls"]["value"] == 5 * visits
    assert metrics["imputers.nearest_donors_calls"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_tiny("study-wide", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture()
def completed():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((6, 3))
    mask = rng.random((6, 3)) > 0.3
    values[~mask] = np.nan
    completions = [np.where(mask, values, rng.standard_normal((6, 3))) for _ in range(2)]
    return values, mask, completions


def test_check_accepts_faithful_completions(completed):
    values, mask, completions = completed
    assert check_completions(values, mask, completions, 2) == check_completions(values, mask, completions, 2)


@pytest.mark.parametrize("fault", ["observed", "nan", "chains", "shape"])
def test_check_rejects_faults(completed, fault):
    values, mask, completions = completed
    observed = np.argwhere(mask)[0]
    if fault == "observed":
        completions[1][tuple(observed)] = np.nextafter(completions[1][tuple(observed)], np.inf)
    elif fault == "nan":
        completions[0][tuple(np.argwhere(~mask)[0])] = np.nan
    elif fault == "chains":
        completions = completions[:1]
    else:
        completions[0] = completions[0][:, :2]
    with pytest.raises(CheckFailed):
        check_completions(values, mask, completions, 2)


def test_reloaded_csv_with_missing_cell_fails(tmp_path):
    path = tmp_path / "completed_1.csv"
    path.write_text("a,b\n1.0,NA\n")
    with pytest.raises(CheckFailed):
        read_completion_csv(path, ["a", "b"])


class TinyImpute:
    """One library ``run_impute`` checked the way the workloads check completions."""

    in_process = True
    chains = 2

    def __init__(self) -> None:
        cond = pcimpute.SimulationCondition(n_rows=60, factors=3, items_per_factor=2)
        self.data = make_dataset(cond, 1)

    def execute(self, index: int, tracer=None, root=None):
        spec = pcimpute.ImputationSpec(
            strategy="pcr-vbv", n_components=3, chains=self.chains, iterations=2, seed=index
        )
        return pcimpute.run_impute(spec, self.data)

    def verify(self, index: int, result) -> str:
        return check_completions(self.data.values, self.data.mask, result.completions, self.chains)


def test_corrupted_operation_counts_as_failed(monkeypatch):
    runner = Runner(TinyImpute())
    assert runner.operation(0)[2] is not None
    honest = pcimpute.run_impute

    def corrupting(spec, data):
        result = honest(spec, data)
        observed = np.argwhere(data.mask)[0]
        result.completions[0][tuple(observed)] += 1.0
        return result

    monkeypatch.setattr(pcimpute, "run_impute", corrupting)
    assert runner.operation(1)[2] is None
    assert runner.attempted == 2 and len(runner.errors) == 1
    assert "changed an observed cell" in runner.errors[0]
