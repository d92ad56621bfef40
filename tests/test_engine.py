"""Chained-equation engine contract tests."""

from __future__ import annotations

import dataclasses
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcimpute import engine, imputers
from pcimpute.data import IncompleteData, ROLE_ANALYSIS
from pcimpute.engine import (
    MAX_COMPONENTS,
    STRATEGIES,
    STRATEGY_ALL,
    STRATEGY_AUX,
    STRATEGY_ORACLE,
    STRATEGY_QUICKPRED,
    STRATEGY_VBV,
    ImputationSpec,
    _blas_threads,
    _openblas_thread_controls,
    initialize_fill,
    quickpred_select,
    run_impute,
)
from pcimpute.imputers import (
    DEFAULT_RIDGE,
    IMPUTER_KINDS,
    IMPUTER_PMM,
    StaticBlock,
    draw_linear_params,
)
from pcimpute.pca import RunningCorrelation, pca
from tests.helpers import (
    assert_observed_preserved,
    constant_auxiliary_block,
    few_observed_target,
    make_incomplete,
    study_dataset,
)
from tests.oracles import pairwise_select_reference


def _spec(strategy, **kwargs):
    defaults = dict(chains=2, iterations=3, seed=7)
    defaults.update(kwargs)
    return ImputationSpec(strategy=strategy, **defaults)


class TestImputationSpec:
    def test_strategy_validated(self):
        with pytest.raises(ValueError, match="strategy"):
            ImputationSpec(strategy="pcr-everything")

    def test_imputer_validated(self):
        with pytest.raises(ValueError, match="imputer"):
            ImputationSpec(strategy=STRATEGY_VBV, imputer="hot-deck")

    def test_component_count_validated(self):
        with pytest.raises(ValueError, match="n_components"):
            ImputationSpec(strategy=STRATEGY_VBV, n_components=0)
        with pytest.raises(ValueError, match="n_components"):
            ImputationSpec(strategy=STRATEGY_VBV, n_components="kaiser")

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="corr_threshold"):
            ImputationSpec(strategy=STRATEGY_QUICKPRED, corr_threshold=1.5)

    def test_counts_positive(self):
        with pytest.raises(ValueError, match="chains"):
            ImputationSpec(strategy=STRATEGY_VBV, chains=0)
        with pytest.raises(ValueError, match="iteration"):
            ImputationSpec(strategy=STRATEGY_VBV, iterations=0)
        with pytest.raises(ValueError, match="donors"):
            ImputationSpec(strategy=STRATEGY_VBV, donors=0)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("chains", 2.5, "chains must be an integer, got 2.5"),
            ("prepass_iterations", True, "prepass_iterations must be an integer, got True"),
            ("prepass_threshold", None, "prepass_threshold must be a number, got None"),
            ("n_components", True, "n_components must be a positive integer or 'max'"),
            ("seed", True, "seed must be a non-negative integer, got True"),
            ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
            ("ridge", float("inf"), "ridge must be nonnegative and finite, got inf"),
            ("ridge", float("nan"), "ridge must be nonnegative and finite, got nan"),
        ],
    )
    def test_mistyped_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ImputationSpec(strategy=STRATEGY_VBV, **{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            ImputationSpec(strategy=STRATEGY_VBV, seed=-1)


class TestInitializeFill:
    def test_fills_from_observed_pool(self):
        data = make_incomplete(seed=1)
        filled = initialize_fill(data, np.random.default_rng(0))
        assert_observed_preserved(data, filled)
        for j in data.incomplete_columns():
            observed = set(data.values[data.mask[:, j], j].tolist())
            drawn = set(filled[~data.mask[:, j], j].tolist())
            assert drawn <= observed

    def test_reproducible(self):
        data = make_incomplete(seed=2)
        a = initialize_fill(data, np.random.default_rng(5))
        b = initialize_fill(data, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestQuickpredSelect:
    def _screening_case(self):
        rng = np.random.default_rng(3)
        n = 200
        signal = rng.standard_normal(n)
        driver = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        target = signal + 0.3 * rng.standard_normal(n)
        values = np.column_stack([target, signal, driver, noise])
        mask = np.ones((n, 4), dtype=bool)
        # missingness on the target driven hard by the driver column
        mask[driver > 0.3, 0] = False
        values = values.copy()
        values[~mask] = np.nan
        return IncompleteData.from_matrix(values, names=["y", "signal", "driver", "noise"])

    def test_value_and_indicator_channels(self):
        data = self._screening_case()
        chosen = quickpred_select(data, 0, threshold=0.4)
        assert 1 in chosen  # correlated with the target's values
        assert 2 in chosen  # correlated with the target's missingness
        assert 3 not in chosen

    def test_monotone_in_threshold(self):
        data = self._screening_case()
        loose = set(quickpred_select(data, 0, threshold=0.1).tolist())
        tight = set(quickpred_select(data, 0, threshold=0.5).tolist())
        assert tight <= loose

    def test_constant_candidate_counts_as_zero(self):
        values = np.column_stack([
            np.array([1.0, np.nan, 3.0, 4.0, 2.0, 5.0]),
            np.full(6, 2.0),
            np.array([1.0, 2.0, 3.0, 4.0, 2.5, 4.5]),
        ])
        data = IncompleteData.from_matrix(values)
        chosen = quickpred_select(data, 0, threshold=0.2)
        assert 1 not in chosen

    def test_zero_threshold_keeps_every_other_column(self):
        data = make_incomplete()
        np.testing.assert_array_equal(
            quickpred_select(data, 2, threshold=0.0), [0, 1, 3, 4, 5]
        )

    def test_threshold_validated(self):
        data = make_incomplete()
        with pytest.raises(ValueError, match="threshold"):
            quickpred_select(data, 0, threshold=-0.1)


SCREEN_KINDS = ("normal", "normal", "constant", "pairwise-constant", "offset", "sparse", "copy")
SCREEN_THRESHOLDS = (0.0, 0.1, 0.3, 1.0)
SCREEN_TOLERANCE = 1e-12


@st.composite
def screen_cases(draw):
    """A matrix, its mask and a target for the quickpred screen, degenerate pairs included."""
    n_rows = draw(st.integers(1, 30))
    n_cols = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(SCREEN_KINDS), min_size=n_cols, max_size=n_cols))
    target = draw(st.integers(0, n_cols - 1))
    # A share of 0.0 leaves the target fully observed: its indicator is constant.
    target_missing = draw(st.sampled_from((0.0, 0.3, 0.7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    common = rng.standard_normal((n_rows, 1))
    values = 0.8 * common + 0.6 * rng.standard_normal((n_rows, n_cols))
    mask = rng.random((n_rows, n_cols)) >= rng.choice((0.0, 0.2, 0.5), size=n_cols)
    mask[:, target] = rng.random(n_rows) >= target_missing
    for j, kind in enumerate(kinds):
        if j == target and kind in ("pairwise-constant", "sparse"):
            continue
        if kind == "constant":
            values[:, j] = 0.1  # not dyadic, so a mean of its cells may round
        elif kind == "pairwise-constant":
            values[mask[:, target], j] = 2.7  # constant where the target is observed only
        elif kind == "offset":
            values[:, j] = 1e6 + 10.0 ** rng.uniform(-3, 3) * values[:, j]
        elif kind == "sparse":
            mask[:, j] = False
            mask[rng.choice(n_rows, size=min(n_rows, rng.integers(0, 3)), replace=False), j] = True
        elif kind == "copy":
            values[:, j] = values[:, target]
    values[~mask] = np.nan
    return values, mask, target


def _loop_rounds(values, mask, target, k):
    """Whether the loop takes a nonzero ``std`` of a side constant on its rows for candidate ``k``.

    Its mean of the constant cells rounded, so the loop scores rounding
    noise there: about 1e-16 against a varying side, and 1.0 when both
    sides are constant.
    """
    observed = mask[:, target]
    for rows, other in ((mask[:, k] & observed, values[:, target]), (mask[:, k], ~observed)):
        if rows.sum() >= 2:
            for side in (values[rows, k], other[rows].astype(float)):
                if np.ptp(side) == 0.0 and side.std() != 0.0:
                    return True
    return False


def _assert_screen_matches_reference(values, mask, target):
    """The screen against the loop oracle; returns the largest strength gap."""
    strength = engine._pairwise_select(values, mask, target)
    reference = pairwise_select_reference(values, mask, target)
    np.testing.assert_array_equal(np.isneginf(strength), np.isneginf(reference))
    assert np.all(strength[reference == 0.0] == 0.0)
    rounds = np.array([_loop_rounds(values, mask, target, k) for k in range(values.shape[1])])
    # Where the loop scored rounding noise, it can only have raised the strength.
    assert np.all(strength[rounds] <= reference[rounds] + SCREEN_TOLERANCE)
    scored = ~np.isneginf(reference) & ~rounds
    gap = float(np.abs(strength[scored] - reference[scored]).max(initial=0.0))
    assert gap <= SCREEN_TOLERANCE
    for threshold in SCREEN_THRESHOLDS:
        clear = scored & (np.abs(reference - threshold) > SCREEN_TOLERANCE)
        np.testing.assert_array_equal(
            np.flatnonzero(clear & (strength >= threshold)),
            np.flatnonzero(clear & (reference >= threshold)),
        )
    return gap


class TestPairwiseScreen:
    """``engine._pairwise_select`` as masked column reductions, against the earlier loop.

    Every zero of the loop is a zero here and the other strengths agree
    within 1e-12, so the selections agree at thresholds 0, 0.1, 0.3 and 1
    (a strength within 1e-12 of the threshold is skipped).  Here a side
    that is constant on its rows counts exactly 0.0.  The loop took
    ``std`` around the mean of such a side, which can round (0.1 in most
    counts of cells), and then scored noise; those candidates are only
    checked not to exceed the loop's strength.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=screen_cases())
    def test_matches_loop_reference(self, case):
        _assert_screen_matches_reference(*case)

    @pytest.mark.parametrize("scale", [1e-100, 1e-3, 1e3, 1e100])
    def test_extreme_scales_match_loop_reference(self, scale):
        # Each sum of squares is finite, but the product of two would leave the range.
        data = make_incomplete(seed=4)
        _assert_screen_matches_reference(data.values * scale, data.mask, 0)

    def test_constant_side_counts_exactly_zero(self):
        rng = np.random.default_rng(8)
        values = np.column_stack([rng.standard_normal(15), np.full(15, 0.1), np.full(15, 0.1)])
        values[:3, :] = np.nan
        mask = ~np.isnan(values)
        # The mean of 12 cells of 0.1 rounds, so the loop scored a constant
        # column about 1e-16 against x1, and 1.0 against the constant x3.
        assert 0.0 < pairwise_select_reference(values, mask, 0)[1] < 1e-15
        assert pairwise_select_reference(values, mask, 2)[1] == 1.0
        np.testing.assert_array_equal(engine._pairwise_select(values, mask, 0)[1:], [0.0, 0.0])
        assert engine._pairwise_select(values, mask, 2)[1] == 0.0

    def test_target_entry_and_few_rows(self):
        values = np.array(
            [[1.0, np.nan, 5.0], [np.nan, 3.0, np.nan], [2.0, np.nan, 4.0], [np.nan, 7.0, 6.0]]
        )
        strength = engine._pairwise_select(values, ~np.isnan(values), 0)
        assert strength[0] == -np.inf
        # x2 is observed only where x1 is missing: no pairwise row, and a
        # constant indicator on its own rows.
        assert strength[1] == 0.0
        assert strength[2] > 0.0


class TestDfBudgetCap:
    """The quickpred screen keeps at most observed cases - 2 predictors per target."""

    def test_strongest_kept_ties_to_lower_index(self, caplog):
        rng = np.random.default_rng(5)
        target = rng.standard_normal(10)
        # Column 1 is weak noise; columns 2-6 copy the target, so they tie.
        values = np.column_stack([target, rng.standard_normal(10)] + [target] * 5)
        values[:4, 0] = np.nan  # 6 observed cells: a budget of 4 predictors
        data = IncompleteData.from_matrix(values)
        strength = engine._pairwise_select(data.values, data.mask, 0)
        assert strength[0] == -np.inf and strength[1] < strength[2]
        assert np.all(strength[2:] == strength[2])
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            plan = engine._QuickpredPlan(_spec(STRATEGY_QUICKPRED, corr_threshold=0.0), data)
        np.testing.assert_array_equal(plan.raw[0], [2, 3, 4, 5])
        assert any(
            rec.message.startswith("quickpred screen for column 'x1' capped at 4")
            and rec.message.endswith("dropped 2")
            for rec in caplog.records
        )

    @pytest.mark.parametrize(
        ("strategy", "stage"), [(STRATEGY_ALL, "pre-pass "), (STRATEGY_QUICKPRED, "")]
    )
    @pytest.mark.parametrize("imputer", IMPUTER_KINDS)
    def test_many_columns_few_rows_complete(self, caplog, strategy, stage, imputer):
        # p = 36 with 20 observed cells in x1: the screen passes 27 columns
        # in the pre-pass and 35 in quickpred, more than a regression can take.
        data, _, _ = study_dataset(seed=4, n_rows=30, factors=2, items_per_factor=28)
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            result = run_impute(_spec(strategy, imputer=imputer), data)
        for completion in result.completions:
            assert np.isfinite(completion).all()
            assert_observed_preserved(data, completion)
        dropped = 27 - 18 if stage else 35 - 18
        assert any(
            rec.message == f"{stage}quickpred screen for column 'x1' capped at 18 "
            f"predictors (observed cases - 2); dropped {dropped}"
            for rec in caplog.records
        )


class TestRunImputeContracts:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_observed_preserved_everywhere(self, strategy):
        data = make_incomplete(seed=11)
        result = run_impute(_spec(strategy), data)
        assert len(result.completions) == 2
        for completion in result.completions:
            assert_observed_preserved(data, completion)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_reproducible_across_runs(self, strategy):
        data = make_incomplete(seed=13)
        a = run_impute(_spec(strategy), data)
        b = run_impute(_spec(strategy), data)
        for left, right in zip(a.completions, b.completions):
            np.testing.assert_array_equal(left, right)

    def test_blas_thread_count_does_not_change_bits(self):
        # p = 242, n = 120: without run_impute's own pin, a two-thread OpenBLAS
        # rounds 243 of these cells differently from one thread.
        data, _, _ = study_dataset(1, n_rows=120, items_per_factor=39)
        spec = _spec(STRATEGY_VBV, n_components=7, chains=2, iterations=2, seed=3)
        runs = []
        for threads in (1, 2):
            with _blas_threads(threads):
                runs.append(run_impute(spec, data).completions)
        for one, two in zip(*runs):
            np.testing.assert_array_equal(one, two)

    def test_blas_thread_counts_restored_after_return_and_error(self):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        with _blas_threads(2):
            run_impute(_spec(STRATEGY_VBV), make_incomplete(seed=11))
            assert [get() for get, _ in controls] == [2] * len(controls)
            with pytest.raises(ValueError, match="three observed"):
                run_impute(_spec(STRATEGY_VBV), few_observed_target(observed=2))
            assert [get() for get, _ in controls] == [2] * len(controls)

    @pytest.mark.parametrize("strategy", [STRATEGY_VBV, STRATEGY_AUX, STRATEGY_QUICKPRED])
    def test_chain_prefix_invariance(self, strategy):
        data = make_incomplete(seed=17)
        short = run_impute(_spec(strategy, chains=2), data)
        long = run_impute(_spec(strategy, chains=4), data)
        for k in range(2):
            np.testing.assert_array_equal(short.completions[k], long.completions[k])

    def test_pmm_draws_observed_values(self):
        data = make_incomplete(seed=19)
        result = run_impute(_spec(STRATEGY_VBV, imputer=IMPUTER_PMM), data)
        for completion in result.completions:
            for j in data.incomplete_columns():
                observed = set(data.values[data.mask[:, j], j].tolist())
                assert set(completion[~data.mask[:, j], j].tolist()) <= observed

    def test_too_few_observed_cells_rejected(self):
        values = np.column_stack([
            np.array([1.0, 2.0, np.nan, np.nan, np.nan, np.nan]),
            np.arange(6.0),
            np.arange(6.0) ** 2,
        ])
        data = IncompleteData.from_matrix(values)
        with pytest.raises(ValueError, match="three observed"):
            run_impute(_spec(STRATEGY_VBV), data)

    def test_model_failure_reports_location(self):
        # 5 observed target cells against 5 oracle predictors leaves no
        # residual degrees of freedom.
        rng = np.random.default_rng(23)
        values = rng.standard_normal((10, 6))
        values[5:, 0] = np.nan
        data = IncompleteData.from_matrix(values).with_roles(
            analysis=["x1", "x2", "x3", "x4"], mar=["x5", "x6"]
        )
        with pytest.raises(ValueError, match=r"chain 0, iteration 1, column 'x1'"):
            run_impute(_spec(STRATEGY_ORACLE), data)
        with pytest.raises(ValueError, match="overparameterized"):
            run_impute(_spec(STRATEGY_ORACLE), data)

    @pytest.mark.parametrize("imputer", IMPUTER_KINDS)
    def test_overflowing_gram_is_named(self, imputer):
        # A predictor near 1e160 squares past the float range: the Gram and its
        # Cholesky factor are not finite, and both imputers say so in one message.
        rng = np.random.default_rng(29)
        values = rng.standard_normal((40, 3))
        values[:, 2] = 1e160 * (1.0 + values[:, 0])
        values[rng.random(40) < 0.3, 0] = np.nan
        data = IncompleteData.from_matrix(values)
        message = "chain 0, iteration 1, column 'x1': non-finite regression coefficients: "
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=re.escape(message + "X'X or X'y overflowed")):
                run_impute(_spec(STRATEGY_QUICKPRED, imputer=imputer, corr_threshold=0.0), data)

    @pytest.mark.parametrize("imputer", IMPUTER_KINDS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_imputations_are_shift_equivariant(self, strategy, imputer):
        # Every column of p = 56 study data shifted far: the draw works on
        # predictors centred on the target's observed rows and an unridged
        # intercept, so only the representation of the shifted cells differs.
        data, _, _ = study_dataset(seed=1)
        spec = _spec(
            strategy, imputer=imputer, n_components=7, chains=1, iterations=2, prepass_iterations=2
        )
        gap = ~data.mask
        base = run_impute(spec, data).completions[0][gap]
        for shift in (3e7, 1e8):
            shifted = IncompleteData(data.values + shift, data.mask, data.names, data.roles)
            imputed = run_impute(spec, shifted).completions[0][gap]
            np.testing.assert_allclose(imputed - shift, base, rtol=0, atol=4 * np.spacing(shift))

    def test_singular_centred_gram_is_named(self):
        # x2 == x3, balanced +-1 on x1's 16 observed rows: centred exactly, their
        # Gram block is [[16, 16], [16, 16]], singular at its second minor.
        rng = np.random.default_rng(31)
        values = rng.standard_normal((24, 4))
        values[:, 1] = np.tile([1.0, -1.0], 12)
        values[:, 2] = values[:, 1]
        values[16:, 0] = np.nan
        data = IncompleteData.from_matrix(values)
        message = (
            r"^chain 0, iteration 1, column 'x1': ridged Gram is not positive "
            r"definite \(leading minor 2 of 3\)$"
        )
        spec = _spec(STRATEGY_QUICKPRED, corr_threshold=0.0, ridge=0.0)
        with pytest.raises(ValueError, match=message):
            run_impute(spec, data)


class TestStrategySpecifics:
    def test_vbv_extracts_components_every_visit(self):
        data = make_incomplete(seed=29)
        spec = _spec(STRATEGY_VBV, chains=3, iterations=4)
        result = run_impute(spec, data)
        n_targets = len(data.incomplete_columns())
        assert result.pca_count == n_targets * 4 * 3

    def test_fixed_score_strategies_extract_once(self):
        data = make_incomplete(seed=31)
        for strategy in (STRATEGY_ALL, STRATEGY_AUX):
            result = run_impute(_spec(strategy, chains=3), data)
            assert result.pca_count == 1

    def test_all_strategy_runs_single_sweep(self):
        data = make_incomplete(seed=37)
        result = run_impute(_spec(STRATEGY_ALL, chains=2, iterations=15), data)
        assert max(rec.iteration for rec in result.trace) == 1

    def test_vbv_trace_layout(self):
        data = make_incomplete(seed=41)
        spec = _spec(STRATEGY_VBV, chains=2, iterations=3)
        result = run_impute(spec, data)
        targets = [int(j) for j in data.incomplete_columns()]
        assert len(result.trace) == 2 * 3 * len(targets)
        first = result.trace[: len(targets)]
        assert [rec.column for rec in first] == targets
        assert all(rec.chain == 0 and rec.iteration == 1 for rec in first)

    def test_single_missing_cell_has_nan_trace_sd(self):
        values = np.column_stack([
            np.array([1.0, 2.0, 3.0, np.nan, 5.0, 6.0, 7.0, 2.5]),
            np.arange(8.0),
            np.array([2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0]),
        ])
        data = IncompleteData.from_matrix(values)
        result = run_impute(_spec(STRATEGY_VBV, chains=1, iterations=1), data)
        assert np.isnan(result.trace[0].imputed_sd)
        assert np.isfinite(result.trace[0].imputed_mean)

    def test_quickpred_intercept_only_fallback_warns(self, caplog):
        rng = np.random.default_rng(47)
        values = rng.standard_normal((40, 3))
        values[rng.random(40) < 0.25, 0] = np.nan
        data = IncompleteData.from_matrix(values)
        spec = _spec(STRATEGY_QUICKPRED, corr_threshold=0.95)
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            result = run_impute(spec, data)
        assert any("intercept-only" in rec.message for rec in caplog.records)
        for completion in result.completions:
            assert_observed_preserved(data, completion)

    def test_constant_column_dropped_with_warning(self, caplog):
        data = make_incomplete(seed=53)
        values = data.values.copy()
        values[:, 5] = 4.0  # auxiliary column with no spread
        constant = IncompleteData(values, data.mask.copy(), data.names, data.roles)
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            result = run_impute(_spec(STRATEGY_ALL), constant)
        assert any("constant" in rec.message for rec in caplog.records)
        for completion in result.completions:
            assert_observed_preserved(constant, completion)


class TestComponentResolution:
    def test_max_resolution_per_strategy(self):
        data = make_incomplete(seed=59)  # 60 x 6, analysis x1, x2
        vbv = run_impute(_spec(STRATEGY_VBV, chains=1, iterations=1), data)
        assert vbv.resolved_components == 5  # all-but-target block
        full = run_impute(_spec(STRATEGY_ALL, chains=1), data)
        assert full.resolved_components == 6  # every column enters the block
        aux = run_impute(_spec(STRATEGY_AUX, chains=1, iterations=1), data)
        assert aux.resolved_components == 4  # non-analysis block only

    def test_numeric_count_respected_and_capped(self):
        data = make_incomplete(seed=61)
        result = run_impute(_spec(STRATEGY_VBV, chains=1, iterations=1, n_components=2), data)
        assert result.resolved_components == 2
        with pytest.raises(ValueError, match="exceeds the extractable"):
            run_impute(_spec(STRATEGY_VBV, n_components=6), data)

    def test_q_error_names_the_binding_column(self):
        with pytest.raises(
            ValueError, match=r"^pcr-aux .* column 'x2' has 3 observed cases and 1 raw"
        ):
            run_impute(_spec(STRATEGY_AUX), few_observed_target())

    @pytest.mark.parametrize("strategy", [STRATEGY_VBV, STRATEGY_ALL, STRATEGY_AUX])
    def test_numeric_count_checked_against_target_budget(self, strategy, monkeypatch):
        prepasses = []
        monkeypatch.setattr(engine, "_prepass_complete", lambda *args: prepasses.append(args))
        raw = 1 if strategy == STRATEGY_AUX else 0
        with pytest.raises(
            ValueError,
            match=rf"^{strategy} cannot resolve n_components=5 .* column 'x2' has 5 "
            rf"observed cases and {raw} raw predictors",
        ):
            run_impute(_spec(strategy, n_components=5), few_observed_target(observed=5))
        assert prepasses == []

    def test_constant_component_block_is_named(self):
        with pytest.raises(
            ValueError, match=r"^pcr-aux .* every column of its component block is constant"
        ):
            run_impute(_spec(STRATEGY_AUX, n_components=1), constant_auxiliary_block())

    def test_non_pcr_strategies_resolve_none(self):
        data = make_incomplete(seed=67)
        result = run_impute(_spec(STRATEGY_QUICKPRED, chains=1, iterations=1), data)
        assert result.resolved_components is None
        assert result.pca_count == 0


class TestPrepass:
    def test_completes_and_preserves(self):
        data = make_incomplete(seed=71)
        completed = engine._prepass_complete(
            _spec(STRATEGY_QUICKPRED), data, np.random.default_rng(0)
        )
        assert_observed_preserved(data, completed)

    def test_complete_input_unchanged(self):
        rng = np.random.default_rng(73)
        values = rng.standard_normal((20, 4))
        data = IncompleteData.from_matrix(values)
        completed = engine._prepass_complete(
            _spec(STRATEGY_QUICKPRED), data, np.random.default_rng(1)
        )
        np.testing.assert_array_equal(completed, values)

    def test_runs_its_own_sweeps_at_its_own_threshold(self, monkeypatch):
        build = engine.build_predictors
        visits = []

        def record(plan, working, target, state=None):
            visits.append((plan.stage, target, plan.raw[target].tolist()))
            return build(plan, working, target, state)

        monkeypatch.setattr(engine, "build_predictors", record)
        data = make_incomplete(seed=83)
        spec = _spec(
            STRATEGY_ALL,
            iterations=7,
            corr_threshold=0.0,
            prepass_iterations=4,
            prepass_threshold=0.6,
        )
        engine._prepass_complete(spec, data, np.random.default_rng(2))
        targets = data.incomplete_columns().tolist()
        screened = {j: quickpred_select(data, j, 0.6).tolist() for j in targets}
        assert any(len(screened[j]) < data.n_cols - 1 for j in targets)  # 0.6 screens
        assert visits == [("pre-pass ", j, screened[j]) for _ in range(4) for j in targets]

    def test_failure_names_stage_chain_and_column(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(engine, "pmm_impute", fail)
        data, _, _ = study_dataset(seed=4, n_rows=30, factors=2, items_per_factor=28)
        with pytest.raises(
            ValueError, match=r"^pre-pass chain 0, iteration 1, column 'x1': injected"
        ):
            run_impute(_spec(STRATEGY_ALL, imputer=IMPUTER_PMM), data)

    def test_too_few_cells_for_pmm_donors_refused_up_front(self, monkeypatch):
        prepasses = []
        monkeypatch.setattr(engine, "_prepass_complete", lambda *args: prepasses.append(args))
        # p = 36 with 20 observed target cells: too few for 25 pmm donors.
        data, _, _ = study_dataset(seed=4, n_rows=30, factors=2, items_per_factor=28)
        with pytest.raises(
            ValueError, match=r"^column 'x1' has 20 observed cells, fewer than the 25 pmm donors"
        ):
            run_impute(_spec(STRATEGY_ALL, imputer=IMPUTER_PMM, donors=25), data)
        assert prepasses == []

    def test_warnings_name_the_stage(self, caplog):
        data = make_incomplete(seed=79)
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            run_impute(_spec(STRATEGY_ALL, prepass_threshold=1.0), data)
        assert any(
            rec.message.startswith("pre-pass quickpred selected no predictors for column 'x1'")
            for rec in caplog.records
        )


def _centred(columns, rows):
    """``columns`` minus each column's mean over ``rows``, taken one column at a time."""
    return columns - np.array([column[rows].mean() for column in columns.T])


def _layout(plan, target):
    """The raw columns of ``target``'s design in its column order: complete ones first."""
    raw = plan.raw[target]
    complete = plan.data.mask[:, raw].all(axis=0)
    return np.concatenate([raw[complete], raw[~complete]])


class TestCachedDesign:
    """Each target's predictors and their Gram, kept on the plan across visits."""

    @staticmethod
    def _plan(data):
        # Threshold 0 screens every other column in, in ascending order; the
        # design puts the complete ones first, the incomplete ones last.
        return engine._QuickpredPlan(_spec(STRATEGY_QUICKPRED, corr_threshold=0.0), data)

    @settings(max_examples=25)
    @given(incomplete=st.integers(0, 5), seed=st.integers(0, 2**16))
    def test_cached_draw_matches_a_fresh_draw(self, incomplete, seed):
        data = make_incomplete(seed=seed, n_analysis=1 + incomplete, n_mar=0)
        plan = self._plan(data)
        rng = np.random.default_rng(seed)
        working = initialize_fill(data, rng)
        observed = data.mask[:, 0]
        y_obs = data.values[observed, 0]
        for _ in range(3):
            x_obs, x_mis, gram = engine.build_predictors(plan, working, 0)
            gathered = working[:, _layout(plan, 0)]
            centred = _centred(gathered, observed)
            np.testing.assert_array_equal(x_obs, centred[observed])
            np.testing.assert_array_equal(x_mis, centred[~observed])
            np.testing.assert_allclose(gram, x_obs.T @ x_obs, rtol=0, atol=1e-9)
            cached = draw_linear_params(y_obs, x_obs, np.random.default_rng(1), gram=gram)
            fresh = draw_linear_params(y_obs, centred[observed], np.random.default_rng(1))
            np.testing.assert_allclose(cached.coefficients, fresh.coefficients, rtol=0, atol=1e-9)
            assert cached.residual_sd == pytest.approx(fresh.residual_sd, rel=0, abs=1e-9)
            # The other targets' draws move their missing cells between visits.
            for j in range(1, 1 + incomplete):
                gap = ~data.mask[:, j]
                working[gap, j] = rng.standard_normal(int(gap.sum()))

    @pytest.mark.parametrize(
        "strategy, options",
        [(STRATEGY_VBV, {"n_components": 3}), (STRATEGY_QUICKPRED, {"corr_threshold": 0.0})],
    )
    def test_rebuilt_gram_is_fortran_order_and_exactly_symmetric(self, strategy, options):
        # The design keeps the transpose of ``x_obs.T @ x_obs`` as its Fortran-order
        # Gram, which holds the same values only if the product is exactly symmetric.
        data = make_incomplete(seed=95, n_cols=10)
        plan = engine._PLANS[strategy](_spec(strategy, **options), data)
        working = initialize_fill(data, np.random.default_rng(95))
        engine.build_predictors(plan, working, 0, plan.new_chain(working))
        design = plan.designs[0]
        gram = design.gram
        assert gram.flags.f_contiguous and gram.shape[0] > 2
        assert gram.tobytes() == gram.T.tobytes()
        assert gram.tobytes() == (design.x_obs.T @ design.x_obs).tobytes()

    def test_incomplete_predictor_turning_constant_sits_out_one_visit(self, caplog):
        data = make_incomplete(seed=91, n_analysis=3)
        values = data.values.copy()
        values[data.mask[:, 2], 2] = 1.5  # x3's observed cells are all alike
        data = IncompleteData(values, data.mask, data.names, data.roles)
        gap = ~data.mask[:, 2]
        observed = data.mask[:, 0]
        assert (gap & observed).any() and (gap & ~observed).any()
        # off_target 0.0: x3 is constant on every row when fill is 1.5; 1.0:
        # its cells on x1's missing rows differ then, so it is constant on
        # x1's observed rows only, which tell x1's draw as little.
        for off_target in (0.0, 1.0):
            plan = self._plan(data)
            working = initialize_fill(data, np.random.default_rng(0))
            widths = []
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
                for fill in (1.5, 2.5, 1.5, 0.5):
                    working[gap, 2] = fill
                    working[np.flatnonzero(gap)[0], 2] = 1.5  # constant only when fill is 1.5
                    working[gap & ~observed, 2] += off_target
                    assert np.ptp(working[:, 2]) > 0 or off_target == 0.0
                    x_obs, x_mis, gram = engine.build_predictors(plan, working, 0)
                    widths.append(x_obs.shape[1])
                    live = [j for j in _layout(plan, 0) if np.ptp(working[observed, j]) > 0]
                    gathered = working[:, live]
                    centred = _centred(gathered, observed)
                    np.testing.assert_array_equal(x_obs, centred[observed])
                    np.testing.assert_array_equal(x_mis, centred[~observed])
                    np.testing.assert_allclose(gram, x_obs.T @ x_obs, rtol=0, atol=1e-9)
            assert widths == [4, 5, 4, 5]
            messages = [rec.message for rec in caplog.records]
            assert messages == [
                "dropping predictor column(s) constant on x1's observed rows: x3"
            ]

    def test_constant_complete_predictor_is_checked_once(self, caplog, monkeypatch):
        data = make_incomplete(seed=93)
        values = data.values.copy()
        values[:, 4] = 4.0
        data = IncompleteData(values, data.mask, data.names, data.roles)
        dropped, designs = [], []
        warn = engine._warn_dropped

        def record(plan, column_ids, target=None):
            dropped.append(column_ids.tolist())
            warn(plan, column_ids, target)

        class RecordedDesign(engine._Design):
            def __init__(self, plan, target):
                super().__init__(plan, target)
                designs.append(self)

        monkeypatch.setattr(engine, "_warn_dropped", record)
        monkeypatch.setattr(engine, "_Design", RecordedDesign)
        spec = _spec(STRATEGY_QUICKPRED, corr_threshold=0.0, chains=2, iterations=3)
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            run_impute(spec, data)
        # Once per target (x1 and x2), for the whole run, as its design is
        # made; it is in neither design, so no visit checks it again.  Each
        # target's draw loses it, so each target's warning names it.
        assert len(designs) == 2 and sum(4 in ids for ids in dropped) == 2
        assert all(4 not in design.fixed and 4 not in design.moving for design in designs)
        messages = [rec.message for rec in caplog.records]
        assert messages == [
            "dropping predictor column(s) constant on x1's observed rows: x5",
            "dropping predictor column(s) constant on x2's observed rows: x5",
        ]

    # x2 is 1.0 wherever x1 is observed and N(0, 1) where x1 is missing:
    # it passes the quickpred screen through x1's missingness, but left
    # in, its slope would be drawn from the ridge alone (SD sigma/sqrt(ridge)).
    @pytest.mark.parametrize("imputer", IMPUTER_KINDS)
    @pytest.mark.parametrize("strategy", [STRATEGY_QUICKPRED, STRATEGY_ORACLE])
    def test_predictor_constant_on_observed_rows_sits_out(
        self, caplog, monkeypatch, strategy, imputer
    ):
        rng = np.random.default_rng(0)
        x3 = rng.standard_normal(200)
        x1 = x3 + 0.5 * rng.standard_normal(200)
        gap = rng.random(200) < 0.3
        x2 = np.where(gap, rng.standard_normal(200), 1.0)
        values = np.column_stack([np.where(gap, np.nan, x1), x2, x3])
        data = IncompleteData.from_matrix(values).with_roles(analysis=["x1", "x3"], mar=["x2"])
        visits = []
        build = engine.build_predictors

        def record(plan, working, target, state=None):
            predictors = build(plan, working, target, state)
            design = plan.designs[target]
            visits.append(np.concatenate([design.fixed, design.moving[~design.flat]]).tolist())
            return predictors

        monkeypatch.setattr(engine, "build_predictors", record)
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            result = run_impute(_spec(strategy, imputer=imputer), data)
        messages = [rec.message for rec in caplog.records]
        assert messages == ["dropping predictor column(s) constant on x1's observed rows: x2"]
        assert visits == [[2]] * 2 * 3
        for completion in result.completions:
            assert np.std(completion[gap, 0]) < 3 * np.std(x1[~gap])


class TestStaticBlockFactor:
    """The draw factors a target's static block once per run and each visit's border alone.

    The target's design owns the static block's record (``imputers.StaticBlock``), made at
    its first draw.
    """

    def test_block_draw_matches_a_full_factor_in_the_design_order(self):
        # x1's quickpred design: x4-x6 complete (the static block), x2 and x3
        # incomplete (the border).  x3 is constant on x1's observed rows at
        # the visits whose fill is 1.5, so the border shrinks to x2 there.
        data = make_incomplete(seed=91, n_analysis=3)
        values = data.values.copy()
        values[data.mask[:, 2], 2] = 1.5
        data = IncompleteData(values, data.mask, data.names, data.roles)
        gap, observed = ~data.mask[:, 2], data.mask[:, 0]
        plan = TestCachedDesign._plan(data)
        working = initialize_fill(data, np.random.default_rng(0))
        y_obs = data.values[observed, 0]
        borders, records = [], []
        for visit, fill in enumerate((2.5, 1.5, 0.5, 1.5, 3.0)):
            working[gap, 2] = fill
            working[np.flatnonzero(gap)[0], 2] = 1.5  # constant only when fill is 1.5
            working[~data.mask[:, 1], 1] = np.random.default_rng(visit).standard_normal(
                int((~data.mask[:, 1]).sum())
            )
            predictors = engine.build_predictors(plan, working, 0)
            rng = np.random.default_rng(visit)
            engine._impute_column(plan, working, predictors, 0, rng, "chain 0, iteration 1")
            x_obs, _, gram = predictors
            design = plan.designs[0]
            assert design.static == 3
            static = design.static_block
            rng = np.random.default_rng(visit)
            block = draw_linear_params(y_obs, x_obs, rng, gram=gram, static=static)
            full = draw_linear_params(y_obs, x_obs, np.random.default_rng(visit), gram=gram)
            np.testing.assert_allclose(block.coefficients, full.coefficients, rtol=0, atol=1e-9)
            assert block.residual_sd == pytest.approx(full.residual_sd, rel=0, abs=1e-9)
            borders.append(x_obs.shape[1] - design.static)
            records.append(static)
        assert borders == [2, 1, 2, 1, 2]
        # One record per target per run.
        assert isinstance(records[0], StaticBlock)
        assert all(record is records[0] for record in records)

    def test_square_root_inverts_the_ridged_gram_on_a_wide_design(self):
        # p = 242: x1's quickpred design holds about 240 columns, 3 of them moving.
        data, _, _ = study_dataset(seed=2, items_per_factor=39)
        plan = engine._QuickpredPlan(_spec(STRATEGY_QUICKPRED), data)
        working = initialize_fill(data, np.random.default_rng(3))
        observed = data.mask[:, 0]
        for sweep in range(2):
            x_obs, _, gram = engine.build_predictors(plan, working, 0)
            for j in (1, 2, 3):  # the other targets' draws move their cells
                gap = ~data.mask[:, j]
                working[gap, j] = np.random.default_rng(sweep + j).standard_normal(int(gap.sum()))
        k = plan.designs[0].static
        assert k > 200 and x_obs.shape[1] - k == 3
        ridge, width = DEFAULT_RIDGE, x_obs.shape[1]
        y_obs = data.values[observed, 0]
        static = StaticBlock.of(y_obs, x_obs, gram, k, ridge)
        # S = L^-T, the draw's noise map: its column i maps the i-th unit vector.
        root = np.column_stack(
            [
                imputers._solve(x_obs, y_obs, ridge, gram, unit, static)[0][:, 1]
                for unit in np.eye(width)
            ]
        )
        inverse = np.linalg.inv(gram + ridge * np.eye(width))
        assert np.linalg.norm(root @ root.T - inverse) / np.linalg.norm(inverse) < 1e-12
        slopes = imputers._solve(x_obs, y_obs, ridge, gram, np.zeros(width), static)[0][:, 0]
        full = imputers._solve(x_obs, y_obs, ridge, gram, np.zeros(width))[0][:, 0]
        assert np.linalg.norm(slopes - full) / np.linalg.norm(full) < 1e-12

    def test_static_block_failure_is_labelled(self, monkeypatch):
        # Every factor reports its first minor as not positive; the first one made
        # is x1's static block of 5 columns, at x1's first draw, of 7 predictors.
        factor = imputers.dpotrf
        monkeypatch.setattr(imputers, "dpotrf", lambda a, **kwargs: (factor(a, **kwargs)[0], 1))
        data = make_incomplete(seed=97, n_cols=8, n_analysis=3)
        message = (
            r"^chain 0, iteration 1, column 'x1': "
            r"ridged Gram is not positive definite \(leading minor 1 of 7\)$"
        )
        with pytest.raises(ValueError, match=message):
            run_impute(_spec(STRATEGY_QUICKPRED, corr_threshold=0.0), data)

    def test_static_block_is_factored_once_per_target_per_run(self, monkeypatch):
        data = make_incomplete(seed=97, n_cols=8, n_analysis=3)
        sizes, designs = [], {}
        factor = imputers.dpotrf

        def record(matrix, **kwargs):
            sizes.append(matrix.shape[0])
            return factor(matrix, **kwargs)

        build = engine.build_predictors

        def keep(plan, working, target, state=None):
            predictors = build(plan, working, target, state)
            designs[target] = plan.designs[target]
            return predictors

        monkeypatch.setattr(imputers, "dpotrf", record)
        monkeypatch.setattr(engine, "build_predictors", keep)
        run_impute(_spec(STRATEGY_QUICKPRED, corr_threshold=0.0, chains=2, iterations=3), data)
        assert sorted(designs) == [0, 1, 2]
        # Per target: its static block once, then the border at each of 2 x 3 visits.
        expected = []
        for design in designs.values():
            assert design.static == 5 and design.moving.size == 2
            expected += [design.static] + [design.moving.size] * 6
        assert sorted(sizes) == sorted(expected)


def _record_running_pca(monkeypatch):
    """Record (running-path result, exact result on the same block) per visit."""
    calls = []

    def record(matrix, n_components, **kwargs):
        result = pca(matrix, n_components, **kwargs)
        if kwargs.get("running") is not None:
            calls.append((result, pca(matrix[:, kwargs["columns"]], n_components)))
        return result

    monkeypatch.setattr(engine, "pca", record)
    return calls


class TestVbvRunningPca:
    """pcr-vbv's per-chain running correlation and warm-started solve."""

    @pytest.fixture(scope="class")
    def wide(self):
        data, _, _ = study_dataset(seed=3, n_rows=300)  # p = 56
        return data

    def test_scores_match_exact_pca_every_visit(self, wide, monkeypatch):
        calls = _record_running_pca(monkeypatch)
        spec = _spec(STRATEGY_VBV, n_components=7, chains=2, iterations=4)
        result = run_impute(spec, wide)
        targets = len(wide.incomplete_columns())
        assert len(calls) == result.pca_count == targets * 4 * 2
        steps = [warm.warm_steps for warm, _ in calls]
        # Exact on each chain's first visit only: every later block, new to the
        # chain or not, starts warm from the chain's latest solve.
        assert [k for k, step in enumerate(steps) if step == 0] == [0, targets * 4]
        for warm, exact in calls:
            np.testing.assert_allclose(warm.scores, exact.scores, atol=1e-8)

    @pytest.mark.parametrize("n_components", [6, MAX_COMPONENTS])
    def test_fallbacks_give_exact_result(self, wide, monkeypatch, n_components):
        # q = 6 splits a near-tied cluster of factor eigenvalues; "max" is
        # large against the block.  Both always take the exact solve.
        calls = _record_running_pca(monkeypatch)
        run_impute(_spec(STRATEGY_VBV, n_components=n_components, chains=1, iterations=2), wide)
        assert calls and all(warm.warm_steps == 0 for warm, _ in calls)
        for warm, exact in calls:
            np.testing.assert_allclose(warm.scores, exact.scores, atol=1e-8)

    def test_column_turning_constant_falls_back(self, wide, caplog):
        working = np.where(wide.mask, wide.values, 0.0)
        state = RunningCorrelation.of(working)
        every = np.delete(np.arange(working.shape[1]), 0)
        pca(working, 7, columns=every, running=state)
        working[:, 9] = 1.5
        state.refresh(working, 9)
        with caplog.at_level(logging.WARNING, logger="pcimpute.engine"):
            plan = engine._VbvPlan(_spec(STRATEGY_VBV, n_components=7), wide)
            scores = plan.components(working, every, state)
        live = every[every != 9]
        assert set(state.solved) == {every.tobytes(), live.tobytes()}
        assert any(wide.names[9] in rec.message for rec in caplog.records)
        assert state.solved[live.tobytes()].warm_steps == 0
        np.testing.assert_allclose(scores, pca(working[:, live], 7).scores, atol=1e-8)

    @pytest.mark.parametrize("imputer", IMPUTER_KINDS)
    def test_contracts_with_warm_path(self, wide, imputer):
        spec = _spec(STRATEGY_VBV, n_components=7, chains=2, iterations=3, imputer=imputer)
        first = run_impute(spec, wide)
        again = run_impute(spec, wide)
        longer = run_impute(dataclasses.replace(spec, chains=3), wide)
        for k, completion in enumerate(first.completions):
            assert_observed_preserved(wide, completion)
            np.testing.assert_array_equal(completion, again.completions[k])
            np.testing.assert_array_equal(completion, longer.completions[k])
