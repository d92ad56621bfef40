"""Univariate imputation model tests."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcimpute import imputers
from pcimpute.imputers import (
    DEFAULT_RIDGE,
    IMPUTER_KINDS,
    IMPUTER_PMM,
    BorderedGram,
    LinearModelDraw,
    draw_linear_params,
    draw_predictive,
    nearest_donors,
    pmm_impute,
    ridged_least_squares,
)
from tests.oracles import nearest_donors_full_sort, pinv_least_squares


def _regression_case(seed, n=80, r=3, noise=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, r))
    beta = rng.uniform(-2.0, 2.0, size=r + 1)
    y = beta[0] + x @ beta[1:] + noise * rng.standard_normal(n)
    return x, y, beta


class TestRidgedLeastSquares:
    def test_matches_pinv_oracle_at_tiny_ridge(self):
        for seed in range(8):
            x, y, _ = _regression_case(seed)
            coefficients, _ = ridged_least_squares(x, y, ridge=1e-10)
            design = np.column_stack([np.ones(len(y)), x])
            expected = pinv_least_squares(design, y)
            np.testing.assert_allclose(coefficients, expected, atol=1e-6)

    def test_cholesky_factor_reconstructs_gram(self):
        x, y, _ = _regression_case(3)
        ridge = 1e-5
        _, lower = ridged_least_squares(x, y, ridge=ridge)
        centred = x - x.mean(axis=0)
        gram = centred.T @ centred + ridge * np.eye(x.shape[1])
        np.testing.assert_allclose(lower @ lower.T, gram, atol=1e-9)

    def test_cholesky_factor_is_zero_above_diagonal(self):
        x, y, _ = _regression_case(3)
        _, lower = ridged_least_squares(x, y)
        np.testing.assert_array_equal(np.triu(lower, 1), 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row counts"):
            ridged_least_squares(np.ones((4, 2)), np.ones(5))

    def test_collinear_design_survives_ridge(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(30)
        x = np.column_stack([base, base])  # rank deficient without ridge
        y = base + 0.1 * rng.standard_normal(30)
        coefficients, _ = ridged_least_squares(x, y, ridge=1e-5)
        assert np.isfinite(coefficients).all()


class TestDrawLinearParams:
    def test_reproducible_with_same_seed(self):
        x, y, _ = _regression_case(1)
        a = draw_linear_params(y, x, np.random.default_rng(9))
        b = draw_linear_params(y, x, np.random.default_rng(9))
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.residual_sd == b.residual_sd

    def test_concentrates_on_truth_with_many_rows(self):
        x, y, beta = _regression_case(5, n=20_000, noise=0.2)
        draws = np.array([
            draw_linear_params(y, x, np.random.default_rng(seed)).coefficients
            for seed in range(30)
        ])
        np.testing.assert_allclose(draws.mean(axis=0), beta, atol=0.02)
        assert draws.std(axis=0).max() < 0.01

    def test_residual_sd_near_noise_level(self):
        x, y, _ = _regression_case(7, n=20_000, noise=0.7)
        params = draw_linear_params(y, x, np.random.default_rng(2))
        assert params.residual_sd == pytest.approx(0.7, rel=0.05)

    def test_overparameterized_raises(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))  # df = 4 - 3 - 1 = 0
        y = rng.standard_normal(4)
        with pytest.raises(ValueError, match="overparameterized imputation model"):
            draw_linear_params(y, x, rng)

    def test_indefinite_gram_is_named(self):
        # One diagonal entry of an identity Gram is negative, so is the first
        # leading minor that holds it; the error names that minor of the
        # draw's whole Gram, however it was factored.
        cases = [
            (3, 2, 0, None, "3 of 3"),  # one factor of the whole Gram
            (3, 2, 2, None, "3 of 3"),  # the border's Schur complement, at its first minor
            (3, 1, 2, None, "2 of 3"),  # the static block
            (4, 3, 2, None, "4 of 4"),  # the Schur complement, at its second minor
            (4, 3, 1, [0, 2, 3], "3 of 3"),  # the same, with column 1 sitting out
        ]
        for width, negative, static, keep, minor in cases:
            gram = np.eye(width)
            gram[negative, negative] = -1.0
            if keep is not None:
                gram = gram[np.ix_(keep, keep)]
            if static:
                gram = BorderedGram(gram, static)
            x, y, _ = _regression_case(2, r=int(minor.split()[-1]))
            message = rf"ridged Gram is not positive definite \(leading minor {minor}\)$"
            with pytest.raises(np.linalg.LinAlgError, match=message):
                draw_linear_params(y, x, np.random.default_rng(0), gram=gram)

    def test_overflowed_gram_is_named_as_overflow(self):
        # An infinite cross product stops the factorisation at the second minor.
        x, y, _ = _regression_case(2, r=2)
        gram = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(ValueError, match="X'X or X'y overflowed"):
            draw_linear_params(y, x, np.random.default_rng(0), gram=gram)

    def test_exact_fit_floors_residual_sd(self):
        # An all-zero outcome solves to all-zero coefficients exactly,
        # making the residual sum of squares a true 0.0.
        x = np.arange(10.0)[:, None]
        y = np.zeros(10)
        params = draw_linear_params(y, x, np.random.default_rng(1), ridge=0.0)
        assert params.residual_sd == np.finfo(float).tiny

    def test_intercept_only_model(self):
        # No predictors: df = n - 1 and the intercept is mean(y) + sd * z0 / sqrt(n).
        y = np.random.default_rng(5).standard_normal(12)
        params = draw_linear_params(y, np.empty((12, 0)), np.random.default_rng(8))
        rng = np.random.default_rng(8)
        sd = np.sqrt(((y - y.mean()) ** 2).sum() / rng.chisquare(11))
        expected = y.mean() + sd * rng.standard_normal(1)[0] / np.sqrt(12)
        np.testing.assert_allclose(params.coefficients, [expected], rtol=0, atol=1e-12)
        assert params.residual_sd == pytest.approx(sd)
        with pytest.raises(ValueError, match="0 predictors with 1 observed cases leaves 0"):
            draw_linear_params(y[:1], np.empty((1, 0)), rng)

    def test_draw_order_is_variance_then_coefficients(self):
        # Splitting the generator reproduces the draw only in this order.
        x, y, _ = _regression_case(11)
        params = draw_linear_params(y, x, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        chis = rng.chisquare(len(y) - x.shape[1] - 1)
        noise = rng.standard_normal(x.shape[1] + 1)
        coefficients, lower = ridged_least_squares(x, y)
        rss = float(((y - coefficients[0] - x @ coefficients[1:]) ** 2).sum())
        sd = np.sqrt(rss / chis)
        # The intercept of the centred predictors takes noise[0], unridged;
        # the slopes take the rest through the centred Gram's factor.
        slopes = coefficients[1:] + sd * np.linalg.solve(lower.T, noise[1:])
        intercept = y.mean() + sd * noise[0] / np.sqrt(len(y)) - x.mean(axis=0) @ slopes
        expected = np.append(intercept, slopes)
        np.testing.assert_allclose(params.coefficients, expected, atol=1e-12)
        assert params.residual_sd == pytest.approx(sd)


class TestDrawPredictive:
    def test_mean_and_noise(self):
        params = LinearModelDraw(coefficients=np.array([1.0, 2.0]), residual_sd=0.0)
        out = draw_predictive(params, np.array([[3.0], [0.5]]), np.random.default_rng(0))
        np.testing.assert_allclose(out, [7.0, 2.0])

    def test_predictor_count_checked(self):
        params = LinearModelDraw(coefficients=np.array([0.0, 1.0]), residual_sd=1.0)
        with pytest.raises(ValueError, match="predictor count"):
            draw_predictive(params, np.ones((2, 2)), np.random.default_rng(0))

    def test_one_dimensional_x_mis_is_named(self):
        params = LinearModelDraw(coefficients=np.array([0.0, 1.0]), residual_sd=1.0)
        message = r"^x_mis must be n x 1 \(the predictor count\), got shape \(2,\)$"
        with pytest.raises(ValueError, match=message):
            draw_predictive(params, np.ones(2), np.random.default_rng(0))


class TestNearestDonors:
    def test_hand_case(self):
        pools = nearest_donors([1.0, 2.0, 3.0, 10.0], [2.4], donors=2)
        assert sorted(pools[0].tolist()) == [1, 2]

    def test_ties_resolve_to_lower_index(self):
        pools = nearest_donors([1.0, 3.0, 2.0], [2.0], donors=3)
        assert pools[0].tolist() == [2, 0, 1]

    def test_donor_count_validated(self):
        with pytest.raises(ValueError, match="donor count"):
            nearest_donors([1.0, 2.0], [1.5], donors=3)
        with pytest.raises(ValueError, match="donor count"):
            nearest_donors([1.0, 2.0], [1.5], donors=0)

    @pytest.mark.parametrize(
        ("pred_obs", "pred_mis", "message"),
        [
            ([[1.0, 2.0]], [1.5], r"pred_obs must be 1-d, got shape \(1, 2\)"),
            ([1.0, 2.0], 1.5, r"pred_mis must be 1-d, got shape \(\)"),
            ([1.0, np.nan], [1.5], "pred_obs holds a non-finite value"),
            ([1.0, 2.0], [np.inf], "pred_mis holds a non-finite value"),
        ],
    )
    def test_bad_predictions_refused(self, pred_obs, pred_mis, message):
        with pytest.raises(ValueError, match=message):
            nearest_donors(pred_obs, pred_mis, donors=1)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_full_sort_under_heavy_ties(self, data):
        n_obs = data.draw(st.integers(1, 60), label="n_obs")
        n_mis = data.draw(st.integers(0, 12), label="n_mis")
        # A small k leaves ties outside the 2k window; k = n_obs, and n_obs < 2k,
        # make the window the whole array.
        donors = data.draw(
            st.one_of(
                st.integers(1, min(4, n_obs)),
                st.just(n_obs),
                st.integers((n_obs + 1) // 2, n_obs),
            ),
            label="donors",
        )
        kind = data.draw(st.sampled_from(["codes", "midway", "equal", "rounded"]), label="kind")
        if kind == "equal":
            pred_obs = np.full(n_obs, 0.7)
            pred_mis = np.full(n_mis, 0.7)
        elif kind == "rounded":
            # Neighbouring doubles whose gaps to -1 or 4 round to one value, so
            # distinct predictions tie and a tie can sit past the window on either side.
            codes = st.lists(st.integers(0, 3), min_size=n_obs, max_size=n_obs)
            pred_obs = 1.0 + np.array(data.draw(codes, label="pred_obs")) * 2.0**-52
            ends = st.lists(st.sampled_from([-1.0, 4.0]), min_size=n_mis, max_size=n_mis)
            pred_mis = np.array(data.draw(ends, label="pred_mis"), dtype=float)
        else:
            codes = st.lists(st.integers(1, 3), min_size=n_obs, max_size=n_obs)
            pred_obs = np.array(data.draw(codes, label="pred_obs"), dtype=float)
            # Midway predictions sit halfway between two codes, so gaps tie on both sides.
            shift = 0.5 if kind == "midway" else 0.0
            mis = st.lists(st.integers(0, 3), min_size=n_mis, max_size=n_mis)
            pred_mis = np.array(data.draw(mis, label="pred_mis"), dtype=float) + shift
        np.testing.assert_array_equal(
            nearest_donors(pred_obs, pred_mis, donors),
            nearest_donors_full_sort(pred_obs, pred_mis, donors),
        )

    @pytest.fixture()
    def searched(self, monkeypatch):
        """Row counts of every call to the run bisection, ``_first_true``."""
        counts = []

        def spy(holds, lo, hi):
            counts.append(lo.size)
            return first_true(holds, lo, hi)

        first_true = imputers._first_true
        monkeypatch.setattr(imputers, "_first_true", spy)
        return counts

    # k = 2, so each window holds the 4 sorted neighbours of the split.
    @pytest.mark.parametrize(
        ("pred_obs", "pred_mis", "expected", "spilling"),
        [
            # Sorted rows 1, 3, 5, 6 (all 1.0) | 0 (2.0) | 2 | 4: the window is
            # rows 5, 6, 0, 2, and rows 1 and 3 past its left edge tie its k-th gap.
            ([2.0, 1.0, 5.0, 1.0, 9.0, 1.0, 1.0], [2.0], [0, 1], 1),
            # The window is the four 1.0 rows; 1 + 2^-52 rounds to the same gap to
            # -1, so rows 0 and 1 past its right edge tie, and rank first.
            ([1.0 + 2.0**-52, 1.0 + 2.0**-52, 1.0, 1.0, 1.0, 1.0], [-1.0], [0, 1], 1),
            # Every gap is 1: the window holds rows 1-4, and rows 0 and 5 lie past both edges.
            ([1.0, 1.0, 1.0, 3.0, 3.0, 3.0], [2.0], [0, 1], 1),
            # The k-th gap, 0.6, is smaller than either neighbour's past the window.
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [3.4], [3, 4], 0),
            # n_obs < 2k: the window is the whole order.
            ([3.0, 1.0, 2.0], [2.0, 0.0], [[2, 0], [1, 2]], 0),
        ],
        ids=["left-edge", "right-edge", "both-edges", "neither", "n_obs-below-2k"],
    )
    def test_run_past_the_window_is_searched(
        self, searched, pred_obs, pred_mis, expected, spilling
    ):
        pools = nearest_donors(pred_obs, pred_mis, donors=2)
        np.testing.assert_array_equal(pools, nearest_donors_full_sort(pred_obs, pred_mis, 2))
        np.testing.assert_array_equal(pools, np.reshape(expected, pools.shape))
        # Each spilling row is bisected on both sides, and no other row is.
        assert sum(searched) == 2 * spilling

    @pytest.mark.parametrize("missing", ["equal", "continuous"])
    def test_equal_predictions_skip_the_search(self, missing):
        # An intercept-only model predicts one value for every row: every gap
        # ties, so each row's donors are the k lowest row indices.
        pred_obs = np.full(700, 0.3)
        if missing == "equal":
            pred_mis = np.full(300, 0.3)
        else:
            pred_mis = np.random.default_rng(5).standard_normal(300)
        pools = nearest_donors(pred_obs, pred_mis, donors=5)
        np.testing.assert_array_equal(pools, nearest_donors_full_sort(pred_obs, pred_mis, 5))

    def test_continuous_predictions_skip_the_search(self, searched):
        rng = np.random.default_rng(4)
        pred_obs, pred_mis = rng.standard_normal(750), rng.standard_normal(250)
        pools = nearest_donors(pred_obs, pred_mis, donors=5)
        np.testing.assert_array_equal(pools, nearest_donors_full_sort(pred_obs, pred_mis, 5))
        assert sum(searched) == 0

    def test_large_sample_matches_full_sort_on_sampled_rows(self):
        rng = np.random.default_rng(8)
        pred = rng.standard_normal(100_000)
        missing = rng.random(100_000) < 0.3
        pred_obs, pred_mis = pred[~missing], pred[missing]
        pools = nearest_donors(pred_obs, pred_mis, donors=5)
        assert pools.shape == (missing.sum(), 5)
        for row in rng.choice(pred_mis.shape[0], size=40, replace=False):
            np.testing.assert_array_equal(
                pools[row], nearest_donors_full_sort(pred_obs, pred_mis[row : row + 1], 5)[0]
            )


class TestPmm:
    @pytest.mark.parametrize("x_mis", [np.ones(3), np.ones((5, 2))], ids=["1-d", "2-columns"])
    def test_x_mis_shape_is_named(self, x_mis):
        rng = np.random.default_rng(6)
        x_obs, y_obs = rng.standard_normal((20, 3)), rng.standard_normal(20)
        shape = re.escape(str(x_mis.shape))
        message = rf"^x_mis must be n x 3 \(the predictor count\), got shape {shape}$"
        with pytest.raises(ValueError, match=message):
            pmm_impute(y_obs, x_obs, x_mis, rng)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), donors=st.integers(1, 5))
    def test_imputed_values_come_from_observed(self, seed, donors):
        rng = np.random.default_rng(seed)
        x_obs = rng.standard_normal((25, 2))
        y_obs = x_obs @ [1.0, -0.5] + rng.standard_normal(25)
        x_mis = rng.standard_normal((7, 2))
        out = pmm_impute(y_obs, x_obs, x_mis, rng, donors=donors)
        assert set(out.tolist()) <= set(y_obs.tolist())

    def test_reproducible(self):
        rng = np.random.default_rng(0)
        x_obs = rng.standard_normal((30, 3))
        y_obs = rng.standard_normal(30)
        x_mis = rng.standard_normal((5, 3))
        a = pmm_impute(y_obs, x_obs, x_mis, np.random.default_rng(42))
        b = pmm_impute(y_obs, x_obs, x_mis, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_single_donor_returns_nearest_match(self):
        # With donors=1 and a clean linear outcome the pick is forced.
        x_obs = np.arange(10.0)[:, None]
        y_obs = 3.0 * np.arange(10.0)
        x_mis = np.array([[4.2]])
        out = pmm_impute(y_obs, x_obs, x_mis, np.random.default_rng(0), donors=1)
        assert out[0] in y_obs
        assert abs(out[0] - 12.0) <= 3.0  # donor is 4.0 or a close neighbor

    def test_intercept_only_donors_are_the_first_rows(self):
        # Every prediction ties, so each pool is the first k observed rows.
        y_obs = 1.5 * np.arange(10.0)
        out = pmm_impute(y_obs, np.empty((10, 0)), np.empty((6, 0)), np.random.default_rng(2), 3)
        rng = np.random.default_rng(2)
        rng.chisquare(9), rng.standard_normal(1)  # the parameter draw
        np.testing.assert_array_equal(out, y_obs[rng.integers(3, size=6)])

    def test_identical_rows_get_identical_predictions(self, monkeypatch):
        # Integer codes, as coarsened study columns have: the observed and the
        # missing side must score a shared row bit for bit alike, or the donor
        # ranking splits rows that tie.
        rng = np.random.default_rng(3)
        x_obs = rng.integers(1, 4, size=(40, 4)).astype(float)
        y_obs = x_obs @ [0.7, -0.3, 0.2, 0.1] + rng.standard_normal(40)
        seen = []

        def record(pred_obs, pred_mis, donors):
            seen.append((pred_obs, pred_mis))
            return nearest_donors(pred_obs, pred_mis, donors)

        monkeypatch.setattr(imputers, "nearest_donors", record)
        pmm_impute(y_obs, x_obs, x_obs.copy(), np.random.default_rng(0))
        [(pred_obs, pred_mis)] = seen
        np.testing.assert_array_equal(pred_mis, pred_obs)


class TestGivenGram:
    """``gram`` is the unridged centred cross-product; only the draw ridges it."""

    @staticmethod
    def _case():
        # Predictors with a spread of 0.05, so a ridge of 1.0 outweighs their
        # own cross products and shrinks every slope visibly.
        rng = np.random.default_rng(17)
        x = 0.05 * rng.standard_normal((60, 3))
        y = x @ [40.0, -30.0, 20.0] + 0.1 * rng.standard_normal(60)
        xc = x - x.mean(axis=0)
        return y, xc, 0.05 * rng.standard_normal((9, 3)) - x.mean(axis=0)

    @pytest.mark.parametrize("imputer", IMPUTER_KINDS)
    def test_ridge_is_added_once(self, imputer):
        y, xc, x_mis = self._case()

        def impute(**kwargs):
            rng = np.random.default_rng(5)
            if imputer == IMPUTER_PMM:
                return pmm_impute(y, xc, x_mis, rng, **kwargs)
            return draw_predictive(draw_linear_params(y, xc, rng, **kwargs), x_mis, rng)

        given = impute(ridge=1.0, gram=xc.T @ xc)
        np.testing.assert_allclose(given, impute(ridge=1.0), rtol=0, atol=1e-12)
        # The case is one where the ridge moves the imputations.
        assert not np.allclose(given, impute(ridge=0.0), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_draw_never_writes_the_gram(self, order):
        y, xc, x_mis = self._case()
        gram = np.array(xc.T @ xc, order=order)
        before = gram.tobytes(order="A")
        draw_linear_params(y, xc, np.random.default_rng(0), ridge=1.0, gram=gram)
        pmm_impute(y, xc, x_mis, np.random.default_rng(0), ridge=1.0, gram=gram)
        assert gram.tobytes(order="A") == before

    @pytest.mark.parametrize("imputer", IMPUTER_KINDS)
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"gram": np.eye(2)}, r"gram must be 3 x 3 for 3 predictors, got shape \(2, 2\)"),
            ({"ridge": -1.0}, r"ridge must be nonnegative and finite, got -1\.0"),
            ({"ridge": np.nan}, r"ridge must be nonnegative and finite, got nan"),
            ({"ridge": np.inf}, r"ridge must be nonnegative and finite, got inf"),
            (
                {"gram": BorderedGram(np.eye(4), 2)},
                r"gram must be 3 x 3 for 3 predictors, got shape \(4, 4\)",
            ),
            (
                {"gram": BorderedGram(np.eye(3), 4)},
                r"gram's static block of 4 columns must lie inside its 3",
            ),
        ],
    )
    def test_bad_gram_or_ridge_is_named(self, imputer, kwargs, message):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((20, 3)), rng.standard_normal(20)
        with pytest.raises(ValueError, match=f"^{message}$"):
            if imputer == IMPUTER_PMM:
                pmm_impute(y, x, x[:4], rng, **kwargs)
            else:
                draw_linear_params(y, x, rng, **kwargs)

    def test_block_factor_draws_as_one_factor_in_the_same_order(self):
        # Columns 0-3 are the static block; each draw's border is a subset of 4-5,
        # and each draw's Gram the compacted one of its columns.
        rng = np.random.default_rng(19)
        x = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 6))
        x -= x.mean(axis=0)
        y = x @ rng.standard_normal(6) + rng.standard_normal(40)
        matrix, factors = x.T @ x, {}
        for border in ([4, 5], [4], [5], []):
            columns = [0, 1, 2, 3, *border]
            compact = matrix[np.ix_(columns, columns)]
            gram = BorderedGram(compact, 4, factors)
            block = draw_linear_params(y, x[:, columns], np.random.default_rng(2), gram=gram)
            full = draw_linear_params(y, x[:, columns], np.random.default_rng(2), gram=compact)
            np.testing.assert_allclose(block.coefficients, full.coefficients, rtol=0, atol=1e-9)
            assert block.residual_sd == pytest.approx(full.residual_sd, rel=0, abs=1e-9)
        # One static factor served every draw.
        assert list(factors) == [DEFAULT_RIDGE]

    @staticmethod
    def _blocks():
        # Six correlated predictors, centred, and an outcome on all of them.
        rng = np.random.default_rng(19)
        x = rng.standard_normal((40, 6)) @ rng.standard_normal((6, 6))
        x -= x.mean(axis=0)
        return x, x @ rng.standard_normal(6) + rng.standard_normal(40)

    @pytest.mark.parametrize("static", [0, 4])
    def test_static_products_are_made_once_per_ridge(self, static):
        # Columns 0-3 are the static block when ``static`` is 4; each draw's border
        # is a subset of 4-5.  With no static block the last draw has no predictors.
        x, y = self._blocks()
        matrix, factors, made = x.T @ x, {}, {}
        for ridge in (DEFAULT_RIDGE, 0.5):
            for border in ([4, 5], [5], [4, 5], []):
                columns = [*range(static), *border]
                compact = matrix[np.ix_(columns, columns)]
                gram = BorderedGram(compact, static, factors)
                block = draw_linear_params(y, x[:, columns], np.random.default_rng(2), ridge, gram)
                full = draw_linear_params(y, x[:, columns], np.random.default_rng(2), ridge, compact)
                np.testing.assert_allclose(block.coefficients, full.coefficients, rtol=0, atol=1e-9)
                assert block.residual_sd == pytest.approx(full.residual_sd, rel=0, abs=1e-9)
                if static:
                    assert factors[ridge] is made.setdefault(ridge, factors[ridge])
        if not static:
            assert factors == {}
            return
        assert list(factors) == [DEFAULT_RIDGE, 0.5]
        for ridge, (lower, z) in factors.items():
            np.testing.assert_allclose(lower @ lower.T, matrix[:4, :4] + ridge * np.eye(4), atol=1e-9)
            np.testing.assert_allclose(lower @ z, x[:, :4].T @ (y - y.mean()), atol=1e-9)

    def test_shared_static_products_keep_every_finite_check(self):
        x, y = self._blocks()
        rng = np.random.default_rng(4)
        gram = BorderedGram(x.T @ x, 4, {})
        draw_linear_params(y, x, rng, gram=gram)
        assert list(gram.factors) == [DEFAULT_RIDGE]
        # A later draw that shares the static products still checks its border and outcome.
        for column, row in ((4, 7), (5, 39)):
            bad = x.copy()
            bad[row, column] = np.nan
            with pytest.raises(ValueError, match="^design and outcome must be finite$"):
                draw_linear_params(y, bad, rng, gram=gram)
        with pytest.raises(ValueError, match="^design and outcome must be finite$"):
            draw_linear_params(np.where(np.arange(40) == 3, np.inf, y), x, rng, gram=gram)
        # The draw that would build the static products checks every static cell.
        fresh = BorderedGram(x.T @ x, 4, {})
        bad = x.copy()
        bad[11, 2] = -np.inf
        with pytest.raises(ValueError, match="^design and outcome must be finite$"):
            draw_linear_params(y, bad, rng, gram=fresh)
        assert fresh.factors == {}
