"""Principal component extraction and component enumeration tests."""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcimpute.pca import (
    PARTIAL_SOLVE_SHARE,
    EnumerationRule,
    RunningCorrelation,
    _leading_eigh,
    _orient,
    acceleration_factor_count,
    correlation_eigenvalues,
    enumerate_components,
    kaiser_count,
    max_components,
    optimal_coordinates_count,
    parallel_analysis_count,
    pca,
    standardize,
)
from tests.oracles import correlation_eigen_jacobi

# ``pcimpute.pca`` is the function; the module is reached through sys.modules.
pca_module = sys.modules["pcimpute.pca"]


def _random_matrix(seed, n_rows=40, n_cols=6):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_rows, 2))
    mix = rng.standard_normal((2, n_cols))
    return base @ mix + 0.6 * rng.standard_normal((n_rows, n_cols))


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        x = _random_matrix(0)
        z, centers, scales = standardize(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.var(axis=0, ddof=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(centers, x.mean(axis=0))
        np.testing.assert_allclose(scales, x.std(axis=0, ddof=1))

    def test_constant_column_becomes_zero(self):
        x = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        z, _, scales = standardize(x)
        assert scales[0] == 1.0
        np.testing.assert_array_equal(z[:, 0], 0.0)

    @pytest.mark.parametrize("value", [0.1, 7.7, 1e6 + 0.1])
    def test_constant_column_is_exact_zeros_where_its_mean_rounds(self, value):
        # 30 copies of these sum to a mean one ulp off the value, so a
        # centred column of rounding errors must not be divided by their SD.
        x = np.column_stack([np.full(30, value), np.arange(30.0)])
        z, centers, scales = standardize(x)
        assert centers[0] == value and scales[0] == 1.0
        np.testing.assert_array_equal(z[:, 0], 0.0)
        assert correlation_eigenvalues(x)[-1] == 0.0
        result = pca(x, 2)
        assert result.eigenvalues[-1] == 0.0
        np.testing.assert_allclose(
            result.scores.var(axis=0, ddof=1), result.eigenvalues, rtol=0, atol=1e-12
        )

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="two rows"):
            standardize(np.ones((1, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            standardize(np.array([[1.0, np.nan], [2.0, 3.0]]))


class TestPca:
    def test_matches_jacobi_oracle(self):
        for seed in range(10):
            x = _random_matrix(seed, n_rows=30, n_cols=5)
            eigenvalues, weights = correlation_eigen_jacobi(x)
            result = pca(x, 5)
            np.testing.assert_allclose(result.eigenvalues, eigenvalues, atol=1e-9)
            np.testing.assert_allclose(result.weights, weights, atol=1e-8)

    def test_score_variances_equal_eigenvalues(self):
        x = _random_matrix(3)
        result = pca(x, 4)
        np.testing.assert_allclose(
            result.scores.var(axis=0, ddof=1), result.eigenvalues[:4], atol=1e-10
        )

    def test_weights_orthonormal(self):
        x = _random_matrix(5)
        result = pca(x, 6)
        np.testing.assert_allclose(
            result.weights.T @ result.weights, np.eye(6), atol=1e-10
        )

    def test_full_rank_reconstruction(self):
        x = _random_matrix(7)
        result = pca(x, 6)
        z = standardize(x)[0]
        np.testing.assert_allclose(result.scores @ result.weights.T, z, atol=1e-10)

    def test_sign_convention_largest_entry_positive(self):
        x = _random_matrix(9)
        result = pca(x, 6)
        for j in range(result.weights.shape[1]):
            col = result.weights[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_eigenvalues_descending_and_sum_to_p(self):
        x = _random_matrix(11)
        e = correlation_eigenvalues(x)
        assert np.all(np.diff(e) <= 1e-12)
        np.testing.assert_allclose(e.sum(), x.shape[1], atol=1e-10)

    def test_component_count_validated(self):
        x = _random_matrix(13)
        with pytest.raises(ValueError, match="components"):
            pca(x, 0)
        with pytest.raises(ValueError, match="components"):
            pca(x, 7)

    def test_max_components(self):
        assert max_components(10, 4) == 4
        assert max_components(3, 8) == 3

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_cols=st.integers(2, 6))
    def test_scores_uncorrelated(self, seed, n_cols):
        x = _random_matrix(seed, n_rows=25, n_cols=n_cols)
        result = pca(x, n_cols)
        cov = np.cov(result.scores, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov)
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-9)


def _factor_matrix(seed, n_rows=300, n_cols=60, factors=3, strengths=(3.0, 2.0, 1.5)):
    # Column j loads on factor j % factors only; distinct strengths keep
    # the leading eigenvalues well separated, equal ones make them nearly tie.
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n_rows, factors)) * np.asarray(strengths[:factors])
    which = np.arange(n_cols) % factors
    return scores[:, which] + rng.standard_normal((n_rows, n_cols))


def _assert_same_components(result, exact, atol=1e-8):
    np.testing.assert_allclose(result.scores, exact.scores, atol=atol)
    np.testing.assert_allclose(result.weights, exact.weights, atol=atol)
    np.testing.assert_allclose(result.eigenvalues, exact.eigenvalues, rtol=1e-12)


class TestRunningPca:
    def test_refresh_matches_recomputation(self):
        x = _factor_matrix(1)
        running = RunningCorrelation.of(x)
        rng = np.random.default_rng(2)
        for column in (0, 17, 0, 59):
            x[rng.random(x.shape[0]) < 0.3, column] += rng.standard_normal()
            running.refresh(x, column)
        fresh = RunningCorrelation.of(x)
        np.testing.assert_allclose(running.standardized, fresh.standardized, atol=1e-12)
        np.testing.assert_allclose(running.correlation, fresh.correlation, atol=1e-12)
        np.testing.assert_array_equal(running.correlation, running.correlation.T)

    @pytest.mark.parametrize("value", [0.1, 7.7, 1e6 + 0.1])
    def test_refresh_to_a_constant_column_gives_exact_zeros(self, value):
        x = _factor_matrix(1)
        running = RunningCorrelation.of(x)
        x[:, 5] = value
        running.refresh(x, 5)
        np.testing.assert_array_equal(running.standardized[:, 5], 0.0)
        np.testing.assert_array_equal(running.correlation[5], 0.0)
        assert running.spread[5] == 0.0

    def test_block_selection_is_bit_identical(self):
        x = _factor_matrix(3)
        ids = np.delete(np.arange(x.shape[1]), 4)
        left = pca(x, 3, columns=ids)
        right = pca(x[:, ids], 3)
        np.testing.assert_array_equal(left.scores, right.scores)
        np.testing.assert_array_equal(left.weights, right.weights)

    def test_running_exact_solve_matches_pca(self):
        x = _factor_matrix(5)
        ids = np.delete(np.arange(x.shape[1]), 10)
        result = pca(x, 3, columns=ids, running=RunningCorrelation.of(x))
        assert result.warm_steps == 0
        _assert_same_components(result, pca(x[:, ids], 3))
        assert result.next_eigenvalue == pytest.approx(correlation_eigenvalues(x[:, ids])[3])

    def test_warm_start_matches_exact(self):
        x = _factor_matrix(7)
        ids = np.delete(np.arange(x.shape[1]), 0)
        running = RunningCorrelation.of(x)
        pca(x, 3, columns=ids, running=running)
        rng = np.random.default_rng(8)
        for column in (1, 2, 3):
            gap = rng.random(x.shape[0]) < 0.3
            x[gap, column] = rng.standard_normal(int(gap.sum()))
            running.refresh(x, column)
        warm = pca(x, 3, columns=ids, running=running)
        assert warm.warm_steps > 0
        _assert_same_components(warm, pca(x[:, ids], 3))
        for j in range(3):
            col = warm.weights[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_near_degenerate_gap_falls_back(self):
        # Two equally strong factors: lambda_1 and lambda_2 nearly coincide.
        x = _factor_matrix(9, factors=2, strengths=(2.0, 2.0))
        running = RunningCorrelation.of(x)
        previous = pca(x, 1, running=running)
        assert previous.eigenvalues[0] - previous.next_eigenvalue < 0.25 * previous.eigenvalues[0]
        result = pca(x, 1, running=running)
        assert result.warm_steps == 0
        _assert_same_components(result, pca(x, 1))

    def test_large_component_count_falls_back(self):
        x = _factor_matrix(11, n_cols=20)
        running = RunningCorrelation.of(x)
        pca(x, 10, running=running)
        result = pca(x, 10, running=running)
        assert result.warm_steps == 0
        _assert_same_components(result, pca(x, 10))

    def test_each_block_keeps_its_own_warm_start(self):
        x = _factor_matrix(15)
        running = RunningCorrelation.of(x)
        left, right = np.arange(1, 60), np.arange(0, 59)
        pca(x, 3, columns=left, running=running)
        pca(x, 3, columns=right, running=running)
        x[:, 30] = x[::-1, 30]
        running.refresh(x, 30)
        x[:, 59] = 2.0
        running.refresh(x, 59)
        np.testing.assert_array_equal(running.spread, np.ptp(x, axis=0))
        for block in (left, right):
            warm = pca(x, 3, columns=block, running=running)
            assert warm.warm_steps > 0
            assert running.solved[block.tobytes()] is warm
            _assert_same_components(warm, pca(x[:, block], 3))

    def test_changed_block_falls_back(self):
        # The new block is one column narrower, so the latest solve's weights
        # do not fit it and the solve is exact.
        x = _factor_matrix(13)
        running = RunningCorrelation.of(x)
        pca(x, 3, columns=np.arange(1, 60), running=running)
        result = pca(x, 3, columns=np.arange(2, 60), running=running)
        assert result.warm_steps == 0
        _assert_same_components(result, pca(x[:, 2:], 3))

    @pytest.mark.parametrize("order", ["ascending", "reversed"])
    def test_new_block_starts_warm_from_the_latest_solve(self, order):
        # pcr-vbv's first sweep: drop column 0, impute it, then drop column 1.
        x = _factor_matrix(27)
        running = RunningCorrelation.of(x)
        pca(x, 3, columns=np.arange(1, 60), running=running)
        x[::3, 0] = np.random.default_rng(28).standard_normal(100)
        running.refresh(x, 0)
        block = np.delete(np.arange(60), 1)
        if order == "reversed":
            block = block[::-1]
        result = pca(x, 3, columns=block, running=running)
        assert result.warm_steps > 0
        _assert_same_components(result, pca(x[:, block], 3))
        # The guard column's Ritz value is a lower bound on eigenvalue 4.
        fourth = correlation_eigenvalues(x[:, block])[3]
        assert 0.9 * fourth < result.next_eigenvalue <= fourth * (1 + 1e-12)
        assert result.basis.shape == (59, 4)
        assert running.latest[1] is result and running.solved[block.tobytes()] is result

    def test_warm_solve_renews_the_next_eigenvalue(self):
        # A chain's first solve sees its initial fill: here 5 columns of pure
        # noise, which raise eigenvalue 4.  Once they hold their data again,
        # warm solves bound it from below instead of carrying the stale one.
        x = _factor_matrix(29)
        noisy = x.copy()
        noisy[:, 1:6] = np.random.default_rng(30).standard_normal((300, 5))
        running = RunningCorrelation.of(noisy)
        stale = pca(noisy, 3, running=running).next_eigenvalue
        for column in range(1, 6):
            running.refresh(x, column)
        fourth = correlation_eigenvalues(x)[3]
        assert fourth < 0.8 * stale
        for _ in range(2):
            result = pca(x, 3, running=running)
            assert result.warm_steps > 0
            _assert_same_components(result, pca(x, 3))
        assert 0.9 * fourth < result.next_eigenvalue <= fourth * (1 + 1e-12)


def _leading_pairs_by_eigh(corr, n_pairs):
    values, vectors = np.linalg.eigh(corr)
    order = np.argsort(-values, kind="stable")[:n_pairs]
    return values[order], _orient(vectors[:, order])


class TestLeadingPairs:
    """The exact solve asks LAPACK for the leading q + 1 pairs, or takes the
    full ``eigh`` when they are a large share of the block."""

    @pytest.mark.parametrize("n_cols", [55, 241])
    @pytest.mark.parametrize("side", ["partial", "full"])
    def test_matches_full_eigh_on_both_sides_of_the_crossover(self, n_cols, side):
        x = _factor_matrix(17, n_cols=n_cols)
        corr = RunningCorrelation.of(x).correlation
        partial = int(PARTIAL_SOLVE_SHARE * n_cols)
        n_pairs = partial if side == "partial" else partial + 1
        values, weights = _leading_eigh(corr, n_pairs)
        weights = _orient(weights)
        expected_values, expected_weights = _leading_pairs_by_eigh(corr, n_pairs)
        np.testing.assert_allclose(values, expected_values, rtol=1e-12)
        np.testing.assert_allclose(weights, expected_weights, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n_components", [3, 20])
    def test_pca_keeps_q_pairs_and_the_next_eigenvalue(self, n_components):
        # q + 1 = 4 pairs of 60 take the partial solve, 21 the full eigh.
        x = _factor_matrix(19)
        result = pca(x, n_components)
        corr = RunningCorrelation.of(x).correlation
        values, weights = _leading_pairs_by_eigh(corr, n_components + 1)
        assert result.warm_steps == 0
        np.testing.assert_allclose(result.eigenvalues, values[:-1], rtol=1e-12)
        np.testing.assert_allclose(result.weights, weights[:, :-1], rtol=0, atol=1e-10)
        assert result.next_eigenvalue == pytest.approx(values[-1], rel=1e-12)

    def test_every_component_kept_has_next_eigenvalue_zero(self):
        x = _factor_matrix(21, n_cols=8)
        result = pca(x, 8)
        assert result.next_eigenvalue == 0.0
        np.testing.assert_allclose(result.eigenvalues, correlation_eigenvalues(x), rtol=1e-12)

    def test_rank_deficient_block_with_duplicate_columns(self):
        # 15 copies of each of 4 columns: rank 4 of 60, so eigenvalue 5 is zero.
        x = np.tile(_factor_matrix(23, n_cols=4), 15)
        result = pca(x, 4)
        values, weights = _leading_pairs_by_eigh(RunningCorrelation.of(x).correlation, 4)
        assert result.warm_steps == 0
        np.testing.assert_allclose(result.eigenvalues, values, rtol=1e-12)
        np.testing.assert_allclose(result.weights, weights, rtol=0, atol=1e-10)
        assert result.next_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_lapack_failure_is_labelled(self, monkeypatch):
        def failing(corr, **options):
            size = corr.shape[0]
            return np.zeros(size), np.zeros((size, 4)), 0, np.zeros(0, dtype=np.int32), 3

        monkeypatch.setattr(pca_module, "dsyevr", failing)
        message = r"dsyevr failed on a 60 x 60 correlation block \(info 3\)"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            pca(_factor_matrix(25), 3)


class TestEnumerationRules:
    def test_kaiser_strictly_above_one(self):
        assert kaiser_count(np.array([2.5, 1.2, 1.0, 0.3])) == 2
        assert kaiser_count(np.array([0.9, 0.5])) == 0

    def test_acceleration_factor_hand_case(self):
        # second differences of [10, 5, 1, 0.5, 0.3]: at index 1 -> 1.0,
        # at index 2 -> 3.0 ... wait, (10-5)-(5-1)=1, (5-1)-(1-0.5)=3.5,
        # (1-0.5)-(0.5-0.3)=0.3; peak at the second interior point -> keep 2.
        assert acceleration_factor_count(np.array([10.0, 5.0, 1.0, 0.5, 0.3])) == 2

    def test_acceleration_factor_needs_three(self):
        with pytest.raises(ValueError, match="three"):
            acceleration_factor_count(np.array([2.0, 1.0]))

    def test_optimal_coordinates_hand_cases(self):
        assert optimal_coordinates_count(np.array([10.0, 4.0, 2.0, 1.0, 0.9, 0.85])) == 4
        assert optimal_coordinates_count(np.array([5.0, 3.0, 2.9, 2.8, 0.1, 0.05])) == 4

    def test_parallel_analysis_counts_leading_run(self):
        rng = np.random.default_rng(0)
        x = _random_matrix(17, n_rows=200, n_cols=6)
        e = correlation_eigenvalues(x)
        kept = parallel_analysis_count(e, 200, 6, rng)
        # two strong mixing directions were planted
        assert kept == 2

    def test_parallel_analysis_requires_positive_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            parallel_analysis_count(
                np.ones(3), 10, 3, np.random.default_rng(0), replicates=0
            )

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="method"):
            EnumerationRule("elbow")
        with pytest.raises(ValueError, match="quantile"):
            EnumerationRule("parallel-analysis", quantile=1.5)

    @pytest.mark.parametrize("replicates", [2.5, True, "100"])
    def test_rule_refuses_non_integer_replicates(self, replicates):
        message = f"replicates must be an integer, got {replicates!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EnumerationRule("parallel-analysis", replicates=replicates)

    def test_enumerate_components_dispatch(self):
        x = _random_matrix(19, n_rows=100, n_cols=5)
        rng = np.random.default_rng(1)
        pa = enumerate_components(x, EnumerationRule("parallel-analysis"), rng=rng)
        kaiser = enumerate_components(x, EnumerationRule("kaiser"))
        assert 1 <= pa <= 5
        assert kaiser == kaiser_count(correlation_eigenvalues(x))

    def test_parallel_analysis_needs_rng(self):
        x = _random_matrix(21)
        with pytest.raises(ValueError, match="generator"):
            enumerate_components(x, EnumerationRule("parallel-analysis"))
