"""Acceptance suite: one test per documented acceptance criterion.

Each test prints a single ``criterion NN <label>: PASS/FAIL (...)`` line
with the measured quantities, then asserts.  The Monte Carlo studies are
desk-scale (n = 500, p = 56, S = 100-200, m = 5, K = 20) versions of the
documented study design; seeds are fixed constants chosen up front.  The
full-scale grids (S = 500 across every cell, all component counts, and
the 242-variable grid) are out of scope by design; the wide configuration
is exercised once at S = 5 for the runtime ordering and the component
threshold spot check.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

import numpy as np
import pytest

from pcimpute.data import ROLE_MAR
from pcimpute.engine import (
    STRATEGIES,
    STRATEGY_ALL,
    STRATEGY_AUX,
    STRATEGY_ORACLE,
    STRATEGY_QUICKPRED,
    STRATEGY_VBV,
    ImputationSpec,
    quickpred_select,
    run_impute,
)
from pcimpute.imputers import ridged_least_squares
from pcimpute.pca import EnumerationRule, correlation_eigenvalues, enumerate_components, pca
from pcimpute.pooling import rubin_pool
from pcimpute.simulation import (
    MethodSetting,
    SimulationCondition,
    StudySettings,
    compute_prb,
    mar_diagnostics,
    run_study,
    write_metrics_csv,
)
from tests.helpers import assert_observed_preserved, make_incomplete, study_dataset
from tests.oracles import correlation_eigen_jacobi, pool_reference

FOCAL = "corr(x1,x2)"
SETTINGS = StudySettings()  # m=5, K=20, bayesian-normal, threshold 0.1

VBV1 = MethodSetting(strategy=STRATEGY_VBV, n_components=1)
VBV6 = MethodSetting(strategy=STRATEGY_VBV, n_components=6)
VBV7 = MethodSetting(strategy=STRATEGY_VBV, n_components=7)
AUX7 = MethodSetting(strategy=STRATEGY_AUX, n_components=7)
ALL7 = MethodSetting(strategy=STRATEGY_ALL, n_components=7)
QP = MethodSetting(strategy=STRATEGY_QUICKPRED)
ORACLE = MethodSetting(strategy=STRATEGY_ORACLE)


def _cell(noise_fraction, categories):
    return SimulationCondition(
        n_rows=500, noise_fraction=noise_fraction, categories=categories
    )


@pytest.fixture(scope="session")
def study_collinear():
    """No noise factors, continuous predictors, S=200."""
    return run_study(
        [_cell(0.0, None)], [VBV7, QP, ORACLE], reps=200, seed=11, workers=2,
        settings=SETTINGS,
    )


@pytest.fixture(scope="session")
def study_dichotomized():
    """Dichotomized predictors at both noise levels, S=200."""
    return run_study(
        [_cell(0.0, 2), _cell(1.0, 2)], [VBV7, ORACLE], reps=200, seed=22, workers=2,
        settings=SETTINGS,
    )


@pytest.fixture(scope="session")
def study_noise():
    """All non-anchor factors weak, continuous predictors, S=100."""
    return run_study(
        [_cell(1.0, None)], [VBV1, VBV7, ORACLE], reps=100, seed=33, workers=2,
        settings=SETTINGS,
    )


@pytest.fixture(scope="session")
def study_wide():
    """242-column configuration, S=5, wall-clock timers enabled, serial so
    that the timed replications do not share the cores."""
    return run_study(
        [SimulationCondition(n_rows=500, items_per_factor=39)],
        [AUX7, ALL7, VBV6, VBV7],
        reps=5,
        seed=44,
        settings=SETTINGS,
    )


def _metric(result, method, npc, parameter=FOCAL, noise=None, categories="any"):
    rows = [
        record
        for record in result.metrics
        if record.method == method
        and record.n_components == npc
        and record.parameter == parameter
        and (noise is None or record.noise_fraction == noise)
        and (categories == "any" or record.categories == categories)
    ]
    assert len(rows) == 1, f"expected one metric row, found {len(rows)}"
    return rows[0]


def _sliced_prb(result, method, npc, max_reps, parameter=FOCAL):
    rows = [
        record
        for record in result.estimates
        if record.method == method
        and record.n_components == npc
        and record.parameter == parameter
        and record.rep < max_reps
    ]
    assert len(rows) == max_reps
    return compute_prb(
        [record.estimate for record in rows],
        [record.full_estimate for record in rows],
    )


def _coverage(record):
    """``record``'s CIC with its Monte Carlo SE, sqrt(c (1 - c) / S) (Morris, White
    & Crowther 2019), where S = ``reps``, the replications that completed."""
    mcse = math.sqrt(record.cic * (1.0 - record.cic) / record.reps)
    return f"{record.cic:.3f} (MCSE {mcse:.3f}, S={record.reps})"


def _spread(counts):
    """How many datasets gave each count, as ``count:datasets`` pairs."""
    return " ".join(f"{count}:{n}" for count, n in sorted(Counter(counts).items()))


def _report(number, label, passed, detail):
    line = f"criterion {number:02d} {label}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def test_criterion_01_few_components_failure(study_noise):
    """One retained component cannot carry the anchor structure."""
    prb = _metric(study_noise, STRATEGY_VBV, 1).prb
    line = _report(1, "few-components failure", prb > 12.0, f"PRB={prb:.2f}, need > 12")
    assert prb > 12.0, line


def test_criterion_02_enough_components_success(study_collinear, study_noise):
    """Seven components recover the correlation with small bias at S=100."""
    prb_dense = _sliced_prb(study_collinear, STRATEGY_VBV, 7, max_reps=100)
    prb_noise = _sliced_prb(study_noise, STRATEGY_VBV, 7, max_reps=100)
    passed = prb_dense < 5.0 and prb_noise < 5.0
    line = _report(
        2,
        "enough-components success",
        passed,
        f"PRB(noise=0)={prb_dense:.2f}, PRB(noise=1)={prb_noise:.2f}, need both < 5",
    )
    assert passed, line


def test_criterion_03_dichotomization_penalty(study_dichotomized):
    """Two-category predictors leave a moderate, bounded bias."""
    prb = _metric(study_dichotomized, STRATEGY_VBV, 7, noise=0.0, categories=2).prb
    passed = 2.0 <= prb <= 10.0
    line = _report(
        3, "dichotomization penalty", passed, f"PRB={prb:.2f}, need within [2, 10]"
    )
    assert passed, line


def test_criterion_04_coverage_contrast(study_collinear):
    """Component reduction covers near-nominally; threshold screening does not."""
    vbv = _metric(study_collinear, STRATEGY_VBV, 7)
    qp = _metric(study_collinear, STRATEGY_QUICKPRED, None)
    passed = 0.90 <= vbv.cic <= 0.99 and qp.cic < 0.90
    line = _report(
        4,
        "coverage contrast",
        passed,
        f"CIC(pcr-vbv q=7)={_coverage(vbv)} need [0.90, 0.99]; "
        f"CIC(quickpred)={_coverage(qp)} need < 0.90",
    )
    assert passed, line


def test_criterion_05_dichotomized_under_coverage(study_dichotomized):
    """Dichotomization drives the component method into under-coverage."""
    cic = _metric(study_dichotomized, STRATEGY_VBV, 7, noise=0.0, categories=2).cic
    line = _report(
        5, "dichotomized under-coverage", cic < 0.85, f"CIC={cic:.3f}, need < 0.85"
    )
    assert cic < 0.85, line


def test_criterion_06_width_ordering(study_collinear):
    """Component reduction yields narrower intervals than threshold screening."""
    ciw_vbv = _metric(study_collinear, STRATEGY_VBV, 7).ciw
    ciw_qp = _metric(study_collinear, STRATEGY_QUICKPRED, None).ciw
    passed = ciw_vbv < ciw_qp
    line = _report(
        6,
        "width ordering",
        passed,
        f"CIW(pcr-vbv q=7)={ciw_vbv:.4f} < CIW(quickpred)={ciw_qp:.4f}",
    )
    assert passed, line


def test_criterion_07_oracle_sanity(study_collinear, study_dichotomized, study_noise):
    """The oracle stays nearly unbiased and covers well in every cell."""
    cells = [
        ("noise=0 continuous", _metric(study_collinear, STRATEGY_ORACLE, None), False),
        (
            "noise=0 two-category",
            _metric(study_dichotomized, STRATEGY_ORACLE, None, noise=0.0, categories=2),
            True,
        ),
        (
            "noise=1 two-category",
            _metric(study_dichotomized, STRATEGY_ORACLE, None, noise=1.0, categories=2),
            True,
        ),
        ("noise=1 continuous", _metric(study_noise, STRATEGY_ORACLE, None), False),
    ]
    details = []
    passed = True
    for name, record, dichotomized in cells:
        cell_ok = record.prb < 5.0 and record.cic <= 0.99
        if not dichotomized:
            cell_ok = cell_ok and record.cic >= 0.90
        passed = passed and cell_ok
        details.append(f"{name}: PRB={record.prb:.2f} CIC={record.cic:.3f}")
    line = _report(7, "oracle sanity", passed, "; ".join(details))
    assert passed, line


def test_criterion_08_amputation_diagnostics():
    """The missingness mechanism has the documented measurable strength."""
    n_datasets = 25
    pseudo = {j: [] for j in range(4)}
    auc = {j: [] for j in range(4)}
    share = {j: [] for j in range(4)}
    for index in range(n_datasets):
        data, _, _ = study_dataset(seed=8000 + index)
        mar_ids = [j for j, role in enumerate(data.roles) if role == ROLE_MAR]
        for slot, report in enumerate(mar_diagnostics(data, data.values[:, mar_ids])):
            pseudo[slot].append(report["pseudo_r2"])
            auc[slot].append(report["auc"])
            share[slot].append(report["missing_proportion"])
    passed = True
    details = []
    for slot in range(4):
        r2 = float(np.mean(pseudo[slot]))
        area = float(np.mean(auc[slot]))
        prop = float(np.mean(share[slot]))
        slot_ok = (
            0.09 <= r2 <= 0.19 and 0.70 <= area <= 0.78 and 0.26 <= prop <= 0.34
        )
        passed = passed and slot_ok
        details.append(f"target {slot + 1}: R2={r2:.3f} AUC={area:.3f} miss={prop:.3f}")
    line = _report(8, "amputation diagnostics", passed, "; ".join(details))
    assert passed, line


def test_criterion_09_pca_oracle_equivalence():
    """Eigenpairs match a rotation-based eigensolver on random matrices."""
    rng = np.random.default_rng(909)
    worst_value = 0.0
    worst_vector = 0.0
    for _ in range(200):
        matrix = rng.standard_normal((30, 8))
        result = pca(matrix, 8)
        eigenvalues, vectors = correlation_eigen_jacobi(matrix)
        worst_value = max(worst_value, float(np.abs(result.eigenvalues - eigenvalues).max()))
        worst_vector = max(worst_vector, float(np.abs(result.weights - vectors).max()))
    passed = worst_value < 1e-8 and worst_vector < 1e-6
    line = _report(
        9,
        "pca oracle equivalence",
        passed,
        f"max eigenvalue gap={worst_value:.2e} (<1e-8), "
        f"max eigenvector gap={worst_vector:.2e} (<1e-6) over 200 matrices",
    )
    assert passed, line


def test_criterion_10_pooling_oracle():
    """Pooled fields match a step-by-step recomputation; z-transform round-trips."""
    rng = np.random.default_rng(1010)
    kinds = ("mean", "variance", "covariance", "correlation")
    worst = 0.0
    for index in range(1000):
        m = int(rng.integers(2, 11))
        kind = kinds[index % 4]
        estimates = rng.normal(0.3, 0.4, size=m).tolist()
        variances = rng.uniform(1e-4, 0.2, size=m).tolist()
        n_rows = int(rng.integers(10, 1000))
        pooled = rubin_pool(estimates, variances, kind, n_rows)
        ref = pool_reference(estimates, variances, kind, n_rows)
        gaps = [
            pooled.within_var - ref["within"],
            pooled.between_var - ref["between"],
            pooled.total_var - ref["total"],
            pooled.df - ref["df"],
        ]
        if kind == "correlation":
            gaps += [
                pooled.estimate - math.tanh(ref["estimate"]),
                pooled.ci_lower - math.tanh(ref["ci_lower"]),
                pooled.ci_upper - math.tanh(ref["ci_upper"]),
            ]
        else:
            gaps += [
                pooled.estimate - ref["estimate"],
                pooled.ci_lower - ref["ci_lower"],
                pooled.ci_upper - ref["ci_upper"],
            ]
        scale = max(1.0, abs(ref["df"]))
        worst = max(worst, max(abs(g) for g in gaps) / scale)
    round_trip = 0.0
    for r in np.linspace(-0.99, 0.99, 199):
        z = math.atanh(r)
        pooled = rubin_pool([z, z, z], [0.01] * 3, "correlation", 50)
        round_trip = max(round_trip, abs(pooled.estimate - r))
    passed = worst < 1e-12 and round_trip < 1e-12
    line = _report(
        10,
        "pooling oracle",
        passed,
        f"max field gap={worst:.2e} over 1000 inputs (<1e-12), "
        f"max z round-trip gap={round_trip:.2e} (<1e-12)",
    )
    assert passed, line


def test_criterion_11_engine_contracts(tmp_path):
    """Immutability, determinism, worker invariance, monotone screening, PCR=OLS."""
    data = make_incomplete(seed=1111)

    # observed cells never change, under every strategy
    immutable = True
    for strategy in STRATEGIES:
        spec = ImputationSpec(strategy=strategy, chains=2, iterations=2, seed=5)
        for completion in run_impute(spec, data).completions:
            try:
                assert_observed_preserved(data, completion)
            except AssertionError:
                immutable = False

    # bitwise determinism under a fixed seed
    spec = ImputationSpec(strategy=STRATEGY_VBV, chains=2, iterations=2, seed=6)
    first = run_impute(spec, data)
    second = run_impute(spec, data)
    deterministic = all(
        np.array_equal(a, b) for a, b in zip(first.completions, second.completions)
    )

    # worker count cannot change the metrics file
    micro = SimulationCondition(n_rows=80, factors=3, items_per_factor=2)
    methods = [ORACLE, MethodSetting(strategy=STRATEGY_VBV, n_components=2)]
    settings = StudySettings(chains=2, iterations=2)
    serial = run_study(
        [micro], methods, reps=2, seed=7, workers=1, settings=settings,
        deterministic_timer=True,
    )
    parallel = run_study(
        [micro], methods, reps=2, seed=7, workers=2, settings=settings,
        deterministic_timer=True,
    )
    write_metrics_csv(tmp_path / "serial.csv", serial.metrics)
    write_metrics_csv(tmp_path / "parallel.csv", parallel.metrics)
    worker_invariant = (
        (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()
    )

    # threshold screening is monotone
    monotone = True
    previous = None
    for threshold in (0.0, 0.1, 0.3, 0.5, 0.8):
        chosen = set(quickpred_select(data, 0, threshold).tolist())
        if threshold == 0.0:
            monotone = monotone and len(chosen) == data.values.shape[1] - 1
        if previous is not None:
            monotone = monotone and chosen <= previous
        previous = chosen
    # full-rank component regression reproduces raw least squares
    rng = np.random.default_rng(1112)
    predictors = rng.standard_normal((50, 5))
    outcome = predictors @ rng.uniform(-1, 1, 5) + rng.standard_normal(50)
    scores = pca(predictors, 5).scores
    raw_coef, _ = ridged_least_squares(predictors, outcome, ridge=0.0)
    pc_coef, _ = ridged_least_squares(scores, outcome, ridge=0.0)
    raw_fit = raw_coef[0] + predictors @ raw_coef[1:]
    pc_fit = pc_coef[0] + scores @ pc_coef[1:]
    fit_gap = float(np.abs(raw_fit - pc_fit).max())
    equivalent = fit_gap < 1e-6

    passed = immutable and deterministic and worker_invariant and monotone and equivalent
    line = _report(
        11,
        "engine contracts",
        passed,
        f"immutable={immutable}, deterministic={deterministic}, "
        f"worker_invariant={worker_invariant}, monotone={monotone}, "
        f"pcr-vs-ols gap={fit_gap:.2e}",
    )
    assert passed, line


def test_criterion_12_component_enumeration():
    """Retention rules behave as documented on the seven-factor design."""
    kaiser_counts = []
    pa_counts = []
    af_counts = []
    for index in range(100):
        data, _, _ = study_dataset(seed=12000 + index)
        complete = data.values[data.mask.all(axis=1)]
        eigenvalues = correlation_eigenvalues(complete)
        kaiser_counts.append(
            enumerate_components(complete, EnumerationRule("kaiser"))
        )
        pa_counts.append(
            enumerate_components(
                complete,
                EnumerationRule("parallel-analysis"),
                rng=np.random.default_rng(12000 + index),
            )
        )
        af_counts.append(
            enumerate_components(complete, EnumerationRule("acceleration-factor"))
        )
        assert eigenvalues.shape == (56,)
    med_kaiser = statistics.median(kaiser_counts)
    med_pa = statistics.median(pa_counts)
    med_af = statistics.median(af_counts)
    passed = med_kaiser >= 7 and med_pa >= 7 and med_af < 7
    line = _report(
        12,
        "component enumeration",
        passed,
        f"medians over 100 datasets: kaiser={med_kaiser} (>=7) [{_spread(kaiser_counts)}], "
        f"parallel-analysis={med_pa} (>=7) [{_spread(pa_counts)}], "
        f"acceleration-factor={med_af} (<7) [{_spread(af_counts)}]",
    )
    assert passed, line


def test_criterion_13_wide_configuration(study_wide):
    """At 242 columns: fixed-score methods are cheaper than per-visit
    extraction, and one component below the factor count is catastrophic
    while the factor count itself is not.  The full-scale grids stay out
    of scope at desk scale by design."""
    runtime_aux = _metric(study_wide, STRATEGY_AUX, 7).runtime_s
    runtime_all = _metric(study_wide, STRATEGY_ALL, 7).runtime_s
    runtime_vbv = _metric(study_wide, STRATEGY_VBV, 7).runtime_s
    prb_six = _metric(study_wide, STRATEGY_VBV, 6).prb
    prb_seven = _metric(study_wide, STRATEGY_VBV, 7).prb
    ordering = runtime_aux < runtime_all <= runtime_vbv
    threshold = prb_six > 10.0 and prb_seven < prb_six
    passed = ordering and threshold
    line = _report(
        13,
        "wide configuration",
        passed,
        f"runtime aux={runtime_aux:.3f}s < all={runtime_all:.3f}s "
        f"(margin {runtime_all - runtime_aux:.3f}s) <= vbv={runtime_vbv:.3f}s: {ordering}; "
        f"PRB(q=6)={prb_six:.1f} (>10) vs "
        f"PRB(q=7)={prb_seven:.1f} (<PRB(q=6)): {threshold}",
    )
    assert passed, line
