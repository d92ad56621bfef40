"""Parameter estimation and pooled-inference tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcimpute.pooling import (
    ParameterId,
    estimate_parameter,
    moment_parameter_ids,
    rubin_pool,
)
from tests.oracles import pool_reference

# Worked example: three analyses of a sample mean over 50 rows.  The
# expected values were frozen from a step-by-step recomputation.
MEAN_CASE = dict(estimates=[0.5, 0.55, 0.6], variances=[0.010, 0.011, 0.012])
MEAN_EXPECTED = dict(
    estimate=0.5499999999999999,
    within_var=0.011000000000000001,
    between_var=0.0024999999999999988,
    total_var=0.014333333333333333,
    df=18.282271785369076,
    ci_lower=0.29875169875633456,
    ci_upper=0.8012483012436653,
)

# Identical estimates make the between-imputation variance exactly zero,
# which pins the degrees of freedom at the complete-data value.
ZERO_BETWEEN_Z_CI = (0.21565330567890706, 0.7843466943210929)


class TestParameterId:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ParameterId("median", (0,))
        with pytest.raises(ValueError, match="column"):
            ParameterId("mean", (0, 1))
        with pytest.raises(ValueError, match="column"):
            ParameterId("correlation", (2,))

    def test_labels(self):
        names = ["height", "weight"]
        assert ParameterId("mean", (0,)).label(names) == "mean(height)"
        assert ParameterId("variance", (1,)).label(names) == "var(weight)"
        assert ParameterId("covariance", (0, 1)).label(names) == "cov(height,weight)"
        assert ParameterId("correlation", (0, 1)).label(names) == "corr(height,weight)"

    def test_moment_parameter_ids_layout(self):
        pids = moment_parameter_ids([0, 1, 2])
        kinds = [pid.kind for pid in pids]
        assert kinds == ["mean"] * 3 + ["variance"] * 3 + ["covariance"] * 3 + [
            "correlation"
        ] * 3
        assert pids[6].columns == (0, 1)
        assert pids[8].columns == (1, 2)


class TestEstimateParameter:
    X = np.array([1.0, 2.5, 3.5, 7.0, 5.0, 4.0])
    Y = np.array([2.0, 1.0, 4.0, 6.5, 5.5, 3.0])

    def _matrix(self):
        return np.column_stack([self.X, self.Y])

    def test_mean(self):
        est, var = estimate_parameter(self._matrix(), ParameterId("mean", (0,)))
        assert est == 3.8333333333333335
        assert var == 0.7111111111111111

    def test_variance(self):
        est, var = estimate_parameter(self._matrix(), ParameterId("variance", (0,)))
        assert est == 4.266666666666667
        assert var == 7.281777777777778

    def test_covariance(self):
        est, var = estimate_parameter(self._matrix(), ParameterId("covariance", (0, 1)))
        assert est == pytest.approx(3.833333333333334, abs=1e-15)
        assert var == pytest.approx(6.665111111111112, abs=1e-14)

    def test_correlation_is_on_z_scale(self):
        est, var = estimate_parameter(self._matrix(), ParameterId("correlation", (0, 1)))
        assert est == pytest.approx(1.4128152239487066, abs=1e-14)
        assert var == 0.3333333333333333
        r = np.corrcoef(self.X, self.Y)[0, 1]
        assert math.tanh(est) == pytest.approx(r, abs=1e-14)

    def test_needs_four_rows(self):
        with pytest.raises(ValueError, match="four rows"):
            estimate_parameter(np.ones((3, 2)), ParameterId("mean", (0,)))

    def test_zero_variance_correlation_rejected(self):
        mat = np.column_stack([np.ones(6), self.Y])
        with pytest.raises(ValueError, match="zero-variance"):
            estimate_parameter(mat, ParameterId("correlation", (0, 1)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_perfect_correlation_rejected(self, sign):
        x = np.arange(6.0)
        mat = np.column_stack([x, sign * x])
        with pytest.raises(ValueError, match="perfectly collinear"):
            estimate_parameter(mat, ParameterId("correlation", (0, 1)))


class TestRubinPool:
    def test_mean_worked_example(self):
        pooled = rubin_pool(MEAN_CASE["estimates"], MEAN_CASE["variances"], "mean", 50)
        for field, expected in MEAN_EXPECTED.items():
            assert getattr(pooled, field) == pytest.approx(expected, abs=1e-12), field
        assert pooled.m == 3

    def test_mean_worked_example_matches_oracle(self):
        pooled = rubin_pool(MEAN_CASE["estimates"], MEAN_CASE["variances"], "mean", 50)
        ref = pool_reference(MEAN_CASE["estimates"], MEAN_CASE["variances"], "mean", 50)
        assert pooled.estimate == ref["estimate"]
        assert pooled.total_var == ref["total"]
        assert pooled.df == pytest.approx(ref["df"], abs=1e-12)
        assert pooled.ci_lower == pytest.approx(ref["ci_lower"], abs=1e-12)

    def test_zero_between_variance_uses_complete_df(self):
        pooled = rubin_pool([0.5, 0.5, 0.5], [0.02, 0.02, 0.02], "correlation", 50)
        assert pooled.between_var == 0.0
        assert pooled.df == 48.0
        assert pooled.total_var == 0.02
        assert pooled.estimate == math.tanh(0.5)
        assert pooled.ci_lower == pytest.approx(math.tanh(ZERO_BETWEEN_Z_CI[0]), abs=1e-12)
        assert pooled.ci_upper == pytest.approx(math.tanh(ZERO_BETWEEN_Z_CI[1]), abs=1e-12)

    def test_zero_within_positive_between_rejected(self):
        # lambda = 1 would give zero degrees of freedom and a NaN interval.
        with pytest.raises(ValueError, match="within-completion variance is 0"):
            rubin_pool([0.4, 0.5, 0.6], [0.0, 0.0, 0.0], "mean", 50)

    def test_correlation_interval_stays_in_unit_range(self):
        pooled = rubin_pool([2.5, 2.9, 2.7], [0.05, 0.05, 0.05], "correlation", 40)
        assert -1.0 < pooled.ci_lower < pooled.estimate < pooled.ci_upper < 1.0

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            rubin_pool([0.1, 0.2], [0.01, 0.01], "mode", 20)

    def test_needs_two_completions(self):
        with pytest.raises(ValueError, match="two completions"):
            rubin_pool([0.1], [0.01], "mean", 20)

    def test_pair_lengths_checked(self):
        with pytest.raises(ValueError, match="pair"):
            rubin_pool([0.1, 0.2], [0.01], "mean", 20)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 8),
        kind=st.sampled_from(["mean", "variance", "covariance", "correlation"]),
        n_rows=st.integers(10, 500),
    )
    def test_agrees_with_oracle(self, seed, m, kind, n_rows):
        rng = np.random.default_rng(seed)
        estimates = rng.normal(0.4, 0.2, size=m).tolist()
        variances = rng.uniform(0.005, 0.1, size=m).tolist()
        pooled = rubin_pool(estimates, variances, kind, n_rows)
        ref = pool_reference(estimates, variances, kind, n_rows)
        assert pooled.within_var == pytest.approx(ref["within"], rel=1e-12)
        assert pooled.between_var == pytest.approx(ref["between"], rel=1e-12)
        assert pooled.total_var == pytest.approx(ref["total"], rel=1e-12)
        assert pooled.df == pytest.approx(ref["df"], rel=1e-10)
        if kind == "correlation":
            assert pooled.estimate == pytest.approx(math.tanh(ref["estimate"]), rel=1e-12)
            assert pooled.ci_lower == pytest.approx(math.tanh(ref["ci_lower"]), rel=1e-10)
            assert pooled.ci_upper == pytest.approx(math.tanh(ref["ci_upper"]), rel=1e-10)
        else:
            assert pooled.estimate == pytest.approx(ref["estimate"], rel=1e-12)
            assert pooled.ci_lower == pytest.approx(ref["ci_lower"], rel=1e-10)
            assert pooled.ci_upper == pytest.approx(ref["ci_upper"], rel=1e-10)

    def test_df_decreases_as_between_grows(self):
        small = rubin_pool([0.50, 0.51, 0.52], [0.01] * 3, "mean", 100)
        large = rubin_pool([0.30, 0.50, 0.70], [0.01] * 3, "mean", 100)
        assert large.df < small.df
        assert large.total_var > small.total_var
