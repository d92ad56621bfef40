"""Synthetic-study generator, amputation, and harness tests."""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import itertools
import re
from collections import Counter

import numpy as np
import pytest

from pcimpute.data import ROLE_ANALYSIS, ROLE_AUXILIARY, ROLE_MAR
from pcimpute.engine import (
    STRATEGY_AUX,
    STRATEGY_ORACLE,
    STRATEGY_QUICKPRED,
    STRATEGY_VBV,
    ImputationSpec,
    _blas_threads,
    _openblas_thread_controls,
    run_impute,
)
from pcimpute.pooling import analyze_set, estimate_parameter, moment_parameter_ids
from pcimpute.simulation import (
    ANCHOR_ITEMS,
    MethodSetting,
    SimulationCondition,
    StudySettings,
    ampute,
    calibrate_intercept,
    coarsen,
    compute_cic,
    compute_ciw,
    compute_prb,
    condition_roles,
    factor_correlation_matrix,
    generate_complete,
    mar_diagnostics,
    mar_linear_scores,
    method_seed,
    run_study,
    write_estimates_csv,
    write_metrics_csv,
)
from tests.helpers import study_dataset
from tests.oracles import (
    auc_pair_count,
    cic_reference,
    ciw_reference,
    prb_reference,
    quantile_bin_scan,
)

MICRO = SimulationCondition(n_rows=80, factors=3, items_per_factor=2)


class TestCondition:
    def test_column_count(self):
        assert SimulationCondition().n_cols == 8 + 6 * 8
        assert MICRO.n_cols == 12

    def test_low_factor_count(self):
        assert SimulationCondition(noise_fraction=0.5).low_factor_count == 3
        assert SimulationCondition(noise_fraction=1.0).low_factor_count == 6

    def test_noise_fraction_must_mark_whole_factors(self):
        with pytest.raises(ValueError, match="whole number"):
            SimulationCondition(noise_fraction=0.4)

    def test_categories_validated(self):
        with pytest.raises(ValueError, match="categories"):
            SimulationCondition(categories=1)

    @pytest.mark.parametrize(
        ("field", "value", "noun"),
        [
            ("n_rows", 80.5, "an integer"),
            ("factors", 3.0, "an integer"),
            ("items_per_factor", True, "an integer"),
            ("categories", 2.5, "an integer"),
            ("categories", False, "an integer"),
            ("loading", True, "a number"),
            ("missing_proportion", "0.3", "a number"),
            ("target_mean", None, "a number"),
        ],
    )
    def test_field_types_validated(self, field, value, noun):
        with pytest.raises(ValueError, match=f"{field} must be {noun}, got {value!r}"):
            SimulationCondition(**{field: value})

    @pytest.mark.parametrize(
        ("field", "value"),
        [("target_mean", float("nan")), ("target_variance", float("inf")), ("loading", -np.inf)],
    )
    def test_non_finite_fields_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            SimulationCondition(**{field: value})

    def test_numpy_integers_accepted(self):
        assert SimulationCondition(n_rows=np.int64(80), categories=np.int64(3)).n_rows == 80

    def test_roles_layout(self):
        roles = condition_roles(MICRO)
        assert roles[:4] == [ROLE_ANALYSIS] * 4
        assert roles[4:8] == [ROLE_MAR] * 4
        assert roles[8:] == [ROLE_AUXILIARY] * 4


class TestFactorCorrelation:
    def test_high_block_and_weak_tail(self):
        cond = SimulationCondition(factors=4, noise_fraction=1.0 / 3.0)
        psi = factor_correlation_matrix(cond)
        assert psi.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(psi), 1.0)
        np.testing.assert_array_equal(psi, psi.T)
        assert psi[0, 1] == cond.high_corr
        assert psi[0, 3] == cond.low_corr  # trailing factor is the weak one
        assert psi[2, 3] == cond.low_corr

    def test_no_weak_factors_by_default(self):
        psi = factor_correlation_matrix(SimulationCondition(factors=3))
        off = psi[~np.eye(3, dtype=bool)]
        np.testing.assert_array_equal(off, 0.7)


class TestGenerateComplete:
    def test_exact_first_two_moments(self):
        values, roles = generate_complete(MICRO, np.random.default_rng(0))
        assert values.shape == (80, 12)
        assert len(roles) == 12
        np.testing.assert_allclose(values.mean(axis=0), 5.0, atol=1e-9)
        np.testing.assert_allclose(values.var(axis=0, ddof=1), 6.5, atol=1e-9)

    def test_reproducible(self):
        a, _ = generate_complete(MICRO, np.random.default_rng(3))
        b, _ = generate_complete(MICRO, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_anchor_items_share_a_factor(self):
        cond = SimulationCondition(n_rows=4000, factors=3, items_per_factor=2)
        values, _ = generate_complete(cond, np.random.default_rng(5))
        corr = np.corrcoef(values[:, :ANCHOR_ITEMS], rowvar=False)
        off = corr[~np.eye(ANCHOR_ITEMS, dtype=bool)]
        # loading^2 = 0.7225 with unit total variance
        assert abs(off.mean() - 0.7225) < 0.03

    def test_weak_factor_items_decouple(self):
        cond = SimulationCondition(
            n_rows=4000, factors=3, items_per_factor=2, noise_fraction=0.5
        )
        values, _ = generate_complete(cond, np.random.default_rng(7))
        anchor = values[:, 0]
        weak_item = values[:, -1]  # weak factors sit at the tail
        strong_item = values[:, ANCHOR_ITEMS]
        assert abs(np.corrcoef(anchor, weak_item)[0, 1]) < 0.15
        assert np.corrcoef(anchor, strong_item)[0, 1] > 0.35


class TestCoarsen:
    def test_targets_untouched_and_codes_in_range(self):
        values, roles = generate_complete(MICRO, np.random.default_rng(11))
        coarse = coarsen(values, roles, 3)
        for j, role in enumerate(roles):
            if role == ROLE_ANALYSIS:
                np.testing.assert_array_equal(coarse[:, j], values[:, j])
            else:
                codes = set(np.unique(coarse[:, j]).tolist())
                assert codes <= {1.0, 2.0, 3.0}

    def test_matches_quantile_scan_oracle(self):
        rng = np.random.default_rng(13)
        column = rng.standard_normal(120)
        values = np.column_stack([column, rng.standard_normal(120)])
        coarse = coarsen(values, [ROLE_AUXILIARY, ROLE_AUXILIARY], 5)
        expected = quantile_bin_scan(column, 5)
        np.testing.assert_array_equal(coarse[:, 0], expected)

    def test_balanced_shares(self):
        values, roles = generate_complete(
            SimulationCondition(n_rows=2000, factors=3, items_per_factor=2),
            np.random.default_rng(17),
        )
        coarse = coarsen(values, roles, 2)
        share = (coarse[:, ANCHOR_ITEMS] == 1.0).mean()
        assert abs(share - 0.5) < 0.03

    def test_none_returns_independent_copy(self):
        values, roles = generate_complete(MICRO, np.random.default_rng(19))
        coarse = coarsen(values, roles, None)
        np.testing.assert_array_equal(coarse, values)
        coarse[0, 0] = -99.0
        assert values[0, 0] != -99.0


class TestAmputation:
    def test_intercept_calibration_tolerance(self):
        rng = np.random.default_rng(23)
        scores = rng.standard_normal(500)
        from scipy.special import expit

        for target in (0.1, 0.3, 0.62):
            intercept = calibrate_intercept(scores, target)
            assert abs(float(expit(intercept + scores).mean()) - target) < 1e-6

    def test_intercept_monotone_in_target(self):
        scores = np.random.default_rng(29).standard_normal(300)
        assert calibrate_intercept(scores, 0.2) < calibrate_intercept(scores, 0.5)

    def test_linear_scores_unit_variance(self):
        block = np.random.default_rng(31).standard_normal((400, 4)) * [1.0, 5.0, 0.2, 2.0]
        scores = mar_linear_scores(block)
        assert scores.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        assert scores.mean() == pytest.approx(0.0, abs=1e-12)

    def test_only_targets_masked_and_share_near_nominal(self):
        data, _, cond = study_dataset(seed=101, n_rows=500, items_per_factor=2)
        for j, role in enumerate(data.roles):
            if role == ROLE_ANALYSIS:
                share = 1.0 - data.mask[:, j].mean()
                assert abs(share - cond.missing_proportion) < 0.08
            else:
                assert data.mask[:, j].all()

    def test_missingness_concentrates_in_right_tail(self):
        data, _, _ = study_dataset(seed=103, n_rows=500, items_per_factor=2)
        mar_ids = [j for j, role in enumerate(data.roles) if role == ROLE_MAR]
        scores = mar_linear_scores(data.values[:, mar_ids])
        for j in data.columns_with_role(ROLE_ANALYSIS):
            gone = ~data.mask[:, int(j)]
            assert scores[gone].mean() > scores[~gone].mean() + 0.3

    def test_requires_mar_columns(self):
        values = np.random.default_rng(37).standard_normal((50, 3))
        with pytest.raises(ValueError, match="MAR-predictor"):
            ampute(values, [ROLE_ANALYSIS] * 3, MICRO, np.random.default_rng(0))


class TestDiagnostics:
    def test_fields_and_ranges(self):
        data, _, _ = study_dataset(seed=107, n_rows=500, items_per_factor=2)
        mar_ids = [j for j, role in enumerate(data.roles) if role == ROLE_MAR]
        reports = mar_diagnostics(data, data.values[:, mar_ids])
        assert [report["column"] for report in reports] == [0, 1, 2, 3]
        for report in reports:
            assert 0.15 < report["missing_proportion"] < 0.45
            assert 0.0 < report["pseudo_r2"] < 0.6
            assert 0.55 < report["auc"] < 0.95

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(41)
        block = rng.standard_normal((60, 2))
        values = np.column_stack([rng.standard_normal(60), block])
        gone = rng.random(60) < 0.3
        masked = values.copy()
        masked[gone, 0] = np.nan
        from pcimpute.data import IncompleteData

        data = IncompleteData.from_matrix(masked).with_roles(
            analysis=["x1"], mar=["x2", "x3"]
        )
        report = mar_diagnostics(data, block)[0]
        from pcimpute.simulation import _logistic_fit

        beta, _ = _logistic_fit(block, gone.astype(float))
        fitted = block @ beta[1:] + beta[0]
        assert report["auc"] == pytest.approx(
            auc_pair_count(fitted, gone.astype(float)), abs=1e-12
        )


class TestMetrics:
    def test_prb_frozen_values(self):
        assert compute_prb([1.0, 1.2, 0.8], [1.1, 1.0, 0.9]) == 0.0
        assert compute_prb([1.02, 1.04, 1.0], [1.0, 1.0, 1.0]) == 2.0000000000000018

    def test_prb_matches_oracle(self):
        rng = np.random.default_rng(43)
        met = rng.normal(1.0, 0.1, size=20).tolist()
        full = rng.normal(1.0, 0.1, size=20).tolist()
        assert compute_prb(met, full) == pytest.approx(
            prb_reference(met, full), rel=1e-12
        )

    def test_prb_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            compute_prb([0.1], [0.0])

    def test_ciw_and_cic_frozen_values(self):
        lowers = [0.0, 0.1, -0.1]
        uppers = [0.3, 0.38, 0.2]
        assert compute_ciw(lowers, uppers) == pytest.approx(
            0.2933333333333334, abs=1e-15
        )
        assert compute_cic(lowers, uppers, [0.35, 0.35, 0.35]) == 0.3333333333333333
        assert compute_cic(lowers, uppers, [0.25, 0.25, 0.25]) == 0.6666666666666666
        assert compute_ciw(lowers, uppers) == pytest.approx(
            ciw_reference(lowers, uppers), rel=1e-12
        )
        assert compute_cic(lowers, uppers, [0.25] * 3) == cic_reference(
            lowers, uppers, [0.25] * 3
        )


class TestSeeds:
    def test_method_seed_is_stable_and_distinct(self):
        assert method_seed(7, 0, 0, 0) == method_seed(7, 0, 0, 0)
        seen = {
            method_seed(7, cond, rep, method)
            for cond in range(3)
            for rep in range(5)
            for method in range(4)
        }
        assert len(seen) == 60


class TestMethodSetting:
    def test_pcr_requires_components(self):
        with pytest.raises(ValueError, match="n_components"):
            MethodSetting(strategy=STRATEGY_VBV)
        with pytest.raises(ValueError, match="n_components must be a positive integer"):
            MethodSetting(strategy=STRATEGY_VBV, n_components=0)
        assert MethodSetting(strategy=STRATEGY_ORACLE).components_label == ""
        assert MethodSetting(strategy=STRATEGY_VBV, n_components=7).components_label == "7"


class TestEndToEndPooling:
    def test_oracle_recovers_full_data_moments(self):
        data, coarse, _ = study_dataset(seed=109, n_rows=300, items_per_factor=2)
        spec = ImputationSpec(
            strategy=STRATEGY_ORACLE, chains=3, iterations=5, seed=11
        )
        result = run_impute(spec, data)
        pids = moment_parameter_ids(data.columns_with_role(ROLE_ANALYSIS))
        pooled = analyze_set(result.completions, pids)
        for pid, estimate in pooled.items():
            full, _ = estimate_parameter(coarse, pid)
            reported = np.tanh(full) if pid.kind == "correlation" else full
            scale = max(abs(reported), 1.0)
            assert abs(estimate.estimate - reported) / scale < 0.25
            assert estimate.ci_lower < estimate.ci_upper
            assert estimate.m == 3


def _micro_study(**overrides):
    kwargs = dict(
        conditions=[MICRO],
        methods=[
            MethodSetting(strategy=STRATEGY_ORACLE),
            MethodSetting(strategy=STRATEGY_VBV, n_components=2),
        ],
        reps=2,
        seed=19,
        settings=StudySettings(chains=2, iterations=2),
        deterministic_timer=True,
    )
    kwargs.update(overrides)
    return run_study(**kwargs)


class TestRunStudy:
    N_PARAMS = 20  # 4 means + 4 variances + 6 covariances + 6 correlations

    def test_structure_and_counts(self):
        result = _micro_study()
        assert len(result.failures) == 0
        assert len(result.estimates) == 2 * 2 * self.N_PARAMS
        assert len(result.metrics) == 2 * self.N_PARAMS
        for record in result.metrics:
            assert record.reps == 2
            assert record.failures == 0
            assert record.runtime_s == 0.0
            assert np.isfinite(record.prb)
            assert 0.0 <= record.cic <= 1.0
            assert record.ciw > 0.0

    def test_byte_identical_rerun(self):
        a = _micro_study()
        b = _micro_study()
        for left, right in zip(a.estimates, b.estimates):
            assert left.estimate == right.estimate
            assert left.ci_lower == right.ci_lower
            assert left.full_estimate == right.full_estimate
        for left, right in zip(a.metrics, b.metrics):
            assert left.prb == right.prb
            assert left.cic == right.cic
            assert left.ciw == right.ciw

    def test_worker_count_does_not_change_results(self):
        a = _micro_study()
        b = _micro_study(workers=2)
        assert len(a.estimates) == len(b.estimates)
        for left, right in zip(a.estimates, b.estimates):
            assert (left.rep, left.method, left.parameter) == (
                right.rep,
                right.method,
                right.parameter,
            )
            assert left.estimate == right.estimate

    def test_blas_thread_count_does_not_change_results(self):
        # Unpinned, these estimates differ between one and two OpenBLAS threads.
        runs = []
        for threads, workers in itertools.product((1, 2), (1, 2)):
            with _blas_threads(threads):
                result = _micro_study(
                    conditions=[SimulationCondition(n_rows=20, items_per_factor=39)],
                    methods=[MethodSetting(strategy=STRATEGY_AUX, n_components=7)],
                    settings=StudySettings(chains=2, iterations=1, prepass_iterations=1),
                    workers=workers,
                )
            assert not result.failures
            runs.append(([vars(r) for r in result.estimates], [vars(r) for r in result.metrics]))
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize(
        ("name", "value", "message"),
        [
            ("reps", 0, "reps must be a positive integer, got 0"),
            ("reps", True, "reps must be a positive integer, got True"),
            ("workers", 2.0, "workers must be a positive integer, got 2.0"),
            ("seed", -1, "seed must be a non-negative integer, got -1"),
            ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
        ],
    )
    def test_run_arguments_validated(self, name, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _micro_study(**{name: value})

    def test_replications_in_condition_rep_method_order(self):
        conditions = [MICRO, dataclasses.replace(MICRO, noise_fraction=0.5)]
        serial = _micro_study(conditions=conditions)
        parallel = _micro_study(conditions=conditions, workers=2)
        expected = [
            (cond.noise_fraction, rep, method)
            for cond in conditions
            for rep in range(2)
            for method in (STRATEGY_ORACLE, STRATEGY_VBV)
            for _ in range(self.N_PARAMS)
        ]
        assert [(r.noise_fraction, r.rep, r.method) for r in serial.estimates] == expected
        assert [vars(row) for row in serial.estimates] == [
            vars(row) for row in parallel.estimates
        ]
        assert [vars(row) for row in serial.metrics] == [vars(row) for row in parallel.metrics]

    def test_method_failures_recorded_not_raised(self):
        result = _micro_study(
            methods=[
                MethodSetting(strategy=STRATEGY_ORACLE),
                MethodSetting(strategy=STRATEGY_VBV, n_components=999),
            ],
        )
        assert len(result.failures) == 2  # the oversized method fails per rep
        assert all("pcr-vbv(999)" in line for line in result.failures)
        methods_with_metrics = {record.method for record in result.metrics}
        assert methods_with_metrics == {STRATEGY_ORACLE}
        assert len(result.estimates) == 2 * self.N_PARAMS

    def test_duplicated_method_entries_keep_their_own_reps(self):
        quickpred = MethodSetting(strategy=STRATEGY_QUICKPRED)
        single = _micro_study(methods=[quickpred], reps=3)
        double = _micro_study(methods=[quickpred, quickpred], reps=3)
        assert len(double.metrics) == 2 * len(single.metrics)
        assert all(record.reps == 3 for record in double.metrics)
        for left, right in zip(single.metrics, double.metrics):
            assert vars(left) == vars(right)

    def test_csv_writers_round_trip(self, tmp_path):
        result = _micro_study()
        metrics_path = tmp_path / "metrics.csv"
        estimates_path = tmp_path / "estimates.csv"
        write_metrics_csv(metrics_path, result.metrics)
        write_estimates_csv(estimates_path, result.estimates)
        with open(metrics_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "n_rows", "n_cols", "noise_fraction", "categories", "method",
            "n_components", "parameter", "prb", "cic", "ciw", "runtime_s",
            "reps", "failures",
        ]
        assert len(rows) == 1 + len(result.metrics)
        assert rows[1][3] == ""  # continuous condition leaves categories blank
        assert float(rows[1][7]) == result.metrics[0].prb
        with open(estimates_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "n_rows", "n_cols", "noise_fraction", "categories", "rep", "method",
            "n_components", "parameter", "estimate", "ci_lower", "ci_upper",
            "full_estimate",
        ]
        assert len(rows) == 1 + len(result.estimates)
        assert float(rows[1][8]) == result.estimates[0].estimate


TINY = SimulationCondition(n_rows=16, factors=3, items_per_factor=2)
PARTIAL_METHODS = [
    MethodSetting(strategy=STRATEGY_ORACLE),
    MethodSetting(strategy=STRATEGY_AUX, n_components=5),
    MethodSetting(strategy=STRATEGY_AUX, n_components=5),
]


class TestBlasThreads:
    @staticmethod
    def _counts() -> list[int]:
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        return [get() for get, _ in controls]

    def test_restores_prior_count_after_normal_exit(self):
        with _blas_threads(2):
            prior = self._counts()
            with _blas_threads(1):
                assert self._counts() == [1] * len(prior)
            assert self._counts() == prior

    def test_restores_prior_count_after_exception(self):
        with _blas_threads(2):
            prior = self._counts()
            with pytest.raises(RuntimeError, match="inside"):
                with _blas_threads(1):
                    raise RuntimeError("inside")
            assert self._counts() == prior

    @pytest.mark.parametrize(
        "getter_name",
        [
            # numpy's bundled libscipy_openblas64_
            "scipy_openblas_get_num_threads64_",
            # scipy's libscipy_openblas, where the draw's LAPACK calls run
            "scipy_openblas_get_num_threads",
        ],
    )
    def test_pins_and_restores_each_bundled_copy(self, getter_name):
        try:
            with open("/proc/self/maps", encoding="utf-8") as handle:
                paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
        except OSError:
            pytest.skip("no /proc")
        getters = [
            getattr(lib, getter_name)
            for lib in map(ctypes.CDLL, paths)
            if hasattr(lib, getter_name)
        ]
        if not getters:
            pytest.skip(f"no loaded OpenBLAS exports {getter_name}")
        [get] = getters
        get.argtypes, get.restype = [], ctypes.c_int
        with _blas_threads(2):
            assert get() == 2
            with _blas_threads(1):
                assert get() == 1
            assert get() == 2


@pytest.fixture(scope="module")
def partial_failure_study():
    """Two cells where both pcr-aux entries miss their component budget in some reps."""
    return run_study(
        [TINY, dataclasses.replace(TINY, categories=2)],
        PARTIAL_METHODS,
        reps=6,
        seed=19,
        settings=StudySettings(chains=2, iterations=2, prepass_iterations=2),
        deterministic_timer=True,
    )


class TestAggregation:
    N_PARAMS = TestRunStudy.N_PARAMS

    def test_partial_failures_counted_per_entry(self, partial_failure_study):
        result = partial_failure_study
        assert len(result.metrics) == 2 * 3 * self.N_PARAMS
        entries = [
            (r.categories, r.method, r.reps, r.failures)
            for r in result.metrics[:: self.N_PARAMS]
        ]
        assert entries == [
            (None, STRATEGY_ORACLE, 6, 0),
            (None, STRATEGY_AUX, 5, 1),
            (None, STRATEGY_AUX, 5, 1),
            (2, STRATEGY_ORACLE, 6, 0),
            (2, STRATEGY_AUX, 4, 2),
            (2, STRATEGY_AUX, 4, 2),
        ]
        for start in range(0, len(result.metrics), self.N_PARAMS):
            block = result.metrics[start : start + self.N_PARAMS]
            assert len({(r.reps, r.failures) for r in block}) == 1
        assert len(result.failures) == 2 * 1 + 2 * 2
        assert all("pcr-aux(5)" in line for line in result.failures)
        assert len(result.estimates) == (6 + 5 + 5 + 6 + 4 + 4) * self.N_PARAMS

    def test_metrics_recomputed_from_estimates(self, partial_failure_study):
        result = partial_failure_study
        cell = ("n_rows", "n_cols", "noise_fraction", "categories")
        groups: dict[tuple, list] = {}
        for row in result.estimates:
            key = (*(getattr(row, name) for name in cell), row.method, row.parameter)
            groups.setdefault(key, []).append(row)
        copies = Counter(method.strategy for method in PARTIAL_METHODS)
        seen = Counter()
        for record in result.metrics:
            key = (*(getattr(record, name) for name in cell), record.method, record.parameter)
            # Equal entries fail on the same data, so their rows alternate by rep.
            rows = groups[key][seen[key] :: copies[record.method]]
            seen[key] += 1
            full = [r.full_estimate for r in rows]
            lowers = [r.ci_lower for r in rows]
            uppers = [r.ci_upper for r in rows]
            assert record.reps == len(rows)
            assert record.prb == compute_prb([r.estimate for r in rows], full)
            assert record.cic == compute_cic(lowers, uppers, full)
            assert record.ciw == compute_ciw(lowers, uppers)
        assert sum(seen.values()) == len(result.metrics) == 2 * 3 * self.N_PARAMS
