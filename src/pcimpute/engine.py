"""Chained-equations multiple imputation with pluggable predictor strategies.

Each chain starts from random draws of observed values, then sweeps the
incomplete columns in ascending index order for a fixed number of
iterations.  At every visit the target column is regressed on a
predictor matrix assembled by the run's plan, the one per-run object
(its spec and data, set up once, shared by every chain).  The plan
keeps each target's predictors on its observed and missing rows, and
their Gram, from the target's first visit on; a later visit rewrites
only the columns that can have changed (incomplete raw columns,
per-visit scores) and their Gram rows, and the draw factors the block
of the columns that cannot change once per run.  The strategies:

* ``pcr-vbv``     principal-component scores of every other column,
                  recomputed from the current working matrix at every
                  visit;
* ``pcr-all``     component scores of the full matrix, computed once
                  from a single-imputation pre-pass and used as the only
                  predictors (one main iteration suffices because the
                  predictors never change);
* ``pcr-aux``     the raw analysis columns plus component scores of the
                  remaining columns, the scores again fixed from a
                  pre-pass completion of that block;
* ``quickpred``   raw columns screened once, before iteration, by
                  absolute pairwise-complete correlation with the target
                  or its missingness indicator, at most ``observed
                  cases - 2`` per target (the strongest);
* ``oracle``      the raw analysis columns plus the declared missingness
                  predictors.

The pre-pass is one quickpred chain over the block the components come
from, at ``prepass_threshold`` for ``prepass_iterations`` sweeps, run
by the same chain loop as every other strategy, through its one entry
``_prepass_complete``.  Its warnings and errors start with ``pre-pass``;
errors also name the chain, iteration and column.  Per-visit and fixed
scores come from one extraction step, ``_Plan.components``.

Observed cells are never modified; missing cells always hold the most
recent draw.  All randomness flows from one integer seed through
per-chain child streams, and a run does all its linear algebra on one
OpenBLAS thread, so results are reproducible bit for bit, and adding
chains never perturbs earlier ones.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import logging
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .data import ROLE_ANALYSIS, ROLE_MAR, IncompleteData
from .imputers import (
    DEFAULT_DONORS,
    DEFAULT_RIDGE,
    IMPUTER_BAYES,
    IMPUTER_KINDS,
    IMPUTER_PMM,
    StaticBlock,
    draw_linear_params,
    draw_predictive,
    pmm_impute,
)
from .pca import RunningCorrelation, _is_a, max_components, pca

logger = logging.getLogger(__name__)

STRATEGY_VBV = "pcr-vbv"
STRATEGY_ALL = "pcr-all"
STRATEGY_AUX = "pcr-aux"
STRATEGY_QUICKPRED = "quickpred"
STRATEGY_ORACLE = "oracle"
STRATEGIES = (
    STRATEGY_VBV,
    STRATEGY_ALL,
    STRATEGY_AUX,
    STRATEGY_QUICKPRED,
    STRATEGY_ORACLE,
)
PCR_STRATEGIES = (STRATEGY_VBV, STRATEGY_ALL, STRATEGY_AUX)

MAX_COMPONENTS = "max"


@dataclass(frozen=True)
class StudySettings:
    """Imputation settings shared by every method of a study.

    Attributes
    ----------
    chains : int
        Number of completed datasets.
    iterations : int
        Sweeps per chain (forced to one under ``pcr-all``).
    imputer : str
        Univariate draw: ``"bayesian-normal"`` or ``"pmm"``.
    corr_threshold : float
        Quickpred screening threshold on absolute correlation.
    prepass_threshold, prepass_iterations
        Quickpred threshold and sweep count of the single-chain pre-pass
        used by ``pcr-all`` and ``pcr-aux``.
    donors : int
        Donor-pool size for pmm.
    ridge : float
        Stabilization constant the draw adds to the diagonal of the slopes'
        Gram, the predictors' cross products centred on the target's observed
        rows (cached unridged).  It is absolute (in the predictors' squared
        units), and the intercept is never ridged, so a shift of a column
        does not move the imputations.
    """

    chains: int = 5
    iterations: int = 20
    imputer: str = IMPUTER_BAYES
    corr_threshold: float = 0.1
    prepass_threshold: float = 0.3
    prepass_iterations: int = 20
    donors: int = DEFAULT_DONORS
    ridge: float = DEFAULT_RIDGE

    def __post_init__(self) -> None:
        if self.imputer not in IMPUTER_KINDS:
            raise ValueError(f"unknown imputer {self.imputer!r}")
        for names, kind, noun in (
            (("chains", "iterations", "prepass_iterations", "donors"), Integral, "an integer"),
            (("corr_threshold", "prepass_threshold", "ridge"), Real, "a number"),
        ):
            for name in names:
                value = getattr(self, name)
                if not _is_a(value, kind):
                    raise ValueError(f"{name} must be {noun}, got {value!r}")
        if self.chains < 1:
            raise ValueError("chains must be positive")
        if self.iterations < 1 or self.prepass_iterations < 1:
            raise ValueError("iteration counts must be positive")
        for name in ("corr_threshold", "prepass_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.donors < 1:
            raise ValueError("donors must be positive")
        if not 0.0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be nonnegative and finite, got {self.ridge!r}")


@dataclass(frozen=True, kw_only=True)
class ImputationSpec(StudySettings):
    """Settings for one multiple-imputation run: ``StudySettings`` plus the method and seed.

    Attributes
    ----------
    strategy : str
        One of ``STRATEGIES``.
    n_components : int or ``"max"``
        Retained component count for the pcr strategies; ``"max"``
        resolves at run time to the largest feasible count.  Ignored by
        quickpred and oracle.
    seed : int
        Root seed; chain streams are spawned from it.
    """

    strategy: str
    n_components: int | str = MAX_COMPONENTS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n_components != MAX_COMPONENTS:
            if not _is_a(self.n_components, Integral) or self.n_components < 1:
                raise ValueError("n_components must be a positive integer or 'max'")
        if not _is_a(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        super().__post_init__()


@dataclass(eq=False)
class TraceRecord:
    """Mean and spread of the cells imputed at one column visit."""

    chain: int
    iteration: int
    column: int
    column_name: str
    imputed_mean: float
    imputed_sd: float


@dataclass(eq=False)
class MultiplyImputedSet:
    """Result of a run: one completed matrix per chain plus diagnostics."""

    completions: list[np.ndarray]
    data: IncompleteData
    spec: ImputationSpec
    trace: list[TraceRecord]
    resolved_components: int | None
    pca_count: int


def initialize_fill(data: IncompleteData, rng: np.random.Generator) -> np.ndarray:
    """Fill every missing cell with a uniform draw from its column's observed values."""
    working = data.values.copy()
    for j in data.incomplete_columns():
        observed = data.values[data.mask[:, j], j]
        if observed.size == 0:
            raise ValueError(f"column {data.names[j]!r} has no observed values")
        gap = ~data.mask[:, j]
        working[gap, j] = rng.choice(observed, size=int(gap.sum()), replace=True)
    return working


def _abs_correlations(a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per row k, the absolute correlation of ``a[k]`` and ``b`` on the cells of ``rows[k]``.

    ``a`` and ``rows`` are (p, n), ``b`` is (p, n) or (n,).  Both sides are
    centred on their means over the rows, and the centred cells summed in
    a second pass, as ``np.std`` does: a one-pass ``sum(x^2) - n mean^2``
    cancels on offset columns.  A row with fewer than two cells, or
    with a side that is constant on them (no cell differs from the first),
    counts 0.0.
    """
    weight = rows.astype(float)
    count = weight.sum(axis=1)
    first = rows.argmax(axis=1)[:, None]
    live = count >= 2.0
    centred = []
    for side in (a, b):
        side = np.where(rows, side, 0.0)
        live &= (rows & (side != np.take_along_axis(side, first, axis=1))).any(axis=1)
        side -= (side.sum(axis=1) / np.maximum(count, 1.0))[:, None]
        side *= weight
        centred.append(side)
    da, db = centred
    saa, sbb, sab = (np.einsum("ij,ij->i", u, v) for u, v in ((da, da), (db, db), (da, db)))
    live &= (saa > 0.0) & (sbb > 0.0)
    # sqrt of each side, so the product of the two sums cannot overflow.
    scale = np.sqrt(np.where(live, saa, 1.0)) * np.sqrt(np.where(live, sbb, 1.0))
    return np.where(live, np.abs(sab / scale), 0.0)


def _pairwise_select(values: np.ndarray, mask: np.ndarray, target: int) -> np.ndarray:
    """Quickpred screening strength of every column for one target.

    A candidate's strength is the larger of its absolute correlations with
    the target, on the rows where both are observed, and with the target's
    missingness indicator, on the candidate's observed rows; both use the
    original incomplete matrix, every column at once.  The target's own
    entry is ``-inf``.
    """
    # Columns as rows, so each sum runs along contiguous memory.
    columns, observed = np.ascontiguousarray(values.T), np.ascontiguousarray(mask.T)
    target_mask = mask[:, target]
    strength = np.maximum(
        _abs_correlations(columns, values[:, target], observed & target_mask),
        _abs_correlations(columns, (~target_mask).astype(float), observed),
    )
    strength[target] = -np.inf
    return strength


def quickpred_select(data: IncompleteData, target: int, threshold: float) -> np.ndarray:
    """Columns passing the quickpred correlation screen for ``target``.

    Correlations use pairwise-complete rows of the original data, plus
    the correlation of each candidate with the target's missingness
    indicator; degenerate correlations count as zero.  Selection is
    monotone in the threshold.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return np.flatnonzero(_pairwise_select(data.values, data.mask, target) >= threshold)


def _warn_dropped(plan: _Plan, column_ids: np.ndarray, target: int | None = None) -> None:
    """Warn that ``column_ids`` sit out, once per run for each column and target.

    With a ``target`` they are its raw predictors, constant on its observed
    rows; without one, columns of the component block, constant on every row.
    """
    fresh = [j for j in column_ids.tolist() if (target, j) not in plan.warned_drops]
    if not fresh:
        return
    plan.warned_drops.update((target, j) for j in fresh)
    rule = (
        "component-block column(s) constant on every row"
        if target is None
        else f"predictor column(s) constant on {plan.data.names[target]}'s observed rows"
    )
    names = ", ".join(plan.data.names[j] for j in fresh)
    logger.warning("%sdropping %s: %s", plan.stage, rule, names)


_NO_COLUMNS = np.empty(0, dtype=int)


class _Plan:
    """The one per-run object: its spec and data, which predictors the
    column visits of one strategy see, set up once, each target's
    predictor cache (``designs``, made at its first visit) and the run's
    counters.

    A visit's predictors are the target's ``raw`` columns that are not
    constant on its observed rows, and the plan's ``fixed_scores`` or
    per-visit ``scores`` (``_Design`` orders them).  The pcr plans
    settle q during set-up from their predictor budget: the width of the
    block their components come from and each target's raw columns.
    ``stage`` prefixes the run's warnings and errors (``"pre-pass "`` in the
    bootstrap chain of a fixed-score strategy), and a dropped constant
    column is warned about once per run for each target it sits out of
    (``warned_drops``; the component block counts as one target).
    """

    raw: dict[int, np.ndarray]
    fixed_scores: np.ndarray | None = None
    single_sweep = False

    def __init__(self, spec: ImputationSpec, data: IncompleteData, stage: str = "") -> None:
        self.spec = spec
        self.data = data
        self.stage = stage
        self.resolved_components: int | None = None
        self.pca_count = 0
        self.warned_drops: set[tuple[int | None, int]] = set()
        self.designs: dict[int, _Design] = {}
        self.set_up()

    def set_up(self) -> None:
        """Settle each target's raw columns and, for the pcr plans, q."""
        raise NotImplementedError

    def new_chain(self, working: np.ndarray) -> RunningCorrelation | None:
        """Per-chain state, made from the chain's initial fill."""
        return None

    def scores(self, working, target, state) -> np.ndarray | None:
        """This visit's per-visit component scores, if the strategy has them."""
        return None

    def components(self, working, columns, running=None) -> np.ndarray | None:
        """Component scores of ``working``'s non-constant ``columns``, or None if none is left.

        Standardizing reads every row, so a column sits out here only when
        it is constant on all of them.
        """
        if running is None:
            spread = np.ptp(working[:, columns], axis=0)
        else:
            spread = running.spread[columns]
        _warn_dropped(self, columns[spread == 0.0])
        live = columns[spread > 0.0]
        if live.size == 0:
            return None
        q = min(self.resolved_components, max_components(working.shape[0], live.size))
        self.pca_count += 1
        return pca(working, q, columns=live, running=running).scores


class _QuickpredPlan(_Plan):
    """quickpred: raw columns screened once by pairwise correlation."""

    def set_up(self):
        data = self.data
        self.raw = {}
        # Each target keeps a residual degree of freedom: at most observed
        # cases - 2 predictors, the strongest first, ties to the lower index.
        budgets = data.mask.sum(axis=0) - 2
        for j in data.incomplete_columns().tolist():
            strength = _pairwise_select(data.values, data.mask, j)
            keep = np.flatnonzero(strength >= self.spec.corr_threshold)
            budget = max(int(budgets[j]), 0)
            if keep.size > budget:
                logger.warning(
                    "%squickpred screen for column %r capped at %d predictors "
                    "(observed cases - 2); dropped %d",
                    self.stage,
                    data.names[j],
                    budget,
                    keep.size - budget,
                )
                keep = np.sort(keep[np.argsort(-strength[keep], kind="stable")[:budget]])
            self.raw[j] = keep
            if keep.size == 0:
                logger.warning(
                    "%squickpred selected no predictors for column %r; "
                    "falling back to an intercept-only model",
                    self.stage,
                    data.names[j],
                )


class _OraclePlan(_Plan):
    """oracle: the analysis columns and the declared missingness predictors."""

    def set_up(self):
        roles = self.data.roles
        known = [j for j, role in enumerate(roles) if role in (ROLE_ANALYSIS, ROLE_MAR)]
        self.raw = {
            j: np.array([k for k in known if k != j], dtype=int)
            for j in self.data.incomplete_columns().tolist()
        }


class _VbvPlan(_Plan):
    """pcr-vbv: components of every other column, extracted again at every visit."""

    def set_up(self):
        self.raw = {}
        self.resolved_components = _resolve_components(self, self.data.n_cols - 1)

    def new_chain(self, working: np.ndarray) -> RunningCorrelation:
        return RunningCorrelation.of(working)

    def scores(self, working, target, state) -> np.ndarray | None:
        return self.components(working, np.delete(np.arange(working.shape[1]), target), state)


class _AllPlan(_Plan):
    """pcr-all: scores of the whole matrix are the only predictors, so one sweep suffices."""

    single_sweep = True

    def set_up(self):
        self.raw = {}
        self.resolved_components = _resolve_components(self, self.data.n_cols)
        self.fixed_scores = _fixed_scores(self, np.arange(self.data.n_cols))


class _AuxPlan(_Plan):
    """pcr-aux: the raw analysis columns plus scores of all other columns."""

    def set_up(self):
        data = self.data
        analysis = data.columns_with_role(ROLE_ANALYSIS)
        self.raw = {j: analysis[analysis != j] for j in data.incomplete_columns().tolist()}
        others = np.delete(np.arange(data.n_cols), analysis)
        self.resolved_components = _resolve_components(self, others.size)
        self.fixed_scores = _fixed_scores(self, others)


_PLANS = {
    STRATEGY_VBV: _VbvPlan,
    STRATEGY_ALL: _AllPlan,
    STRATEGY_AUX: _AuxPlan,
    STRATEGY_QUICKPRED: _QuickpredPlan,
    STRATEGY_ORACLE: _OraclePlan,
}


def _fixed_scores(plan: _Plan, columns: np.ndarray) -> np.ndarray:
    """Component scores of a pre-pass completion of ``columns``, fixed for the run."""
    spec, data = plan.spec, plan.data
    # The pre-pass draws from the seed's first child stream; the chains use the others.
    prepass_rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    # The block skips the container's checks: its cells passed them, and
    # it may hold a single column, which the container refuses as a dataset.
    block = copy.copy(data)
    block.values, block.mask = data.values[:, columns], data.mask[:, columns]
    block.names = [data.names[j] for j in columns]
    block.roles = [data.roles[j] for j in columns]
    # Written back in place, so the run's column ids and names apply.
    completed = data.values.copy()
    completed[:, columns] = _prepass_complete(spec, block, prepass_rng)
    scores = plan.components(completed, columns)
    if scores is None:
        raise ValueError(
            f"{spec.strategy} cannot extract components: every column of its "
            "component block is constant"
        )
    return scores


class _Design:
    """One target's visit predictors on its observed and missing rows, and their Gram.

    Made at the target's first visit and kept on the plan, so every chain
    and sweep shares it.  A raw column that is constant on the target's
    observed rows tells the draw nothing, so it sits out.  The columns come
    in two blocks.  The ``static`` block cannot change between visits: the
    target's complete raw columns that are not constant (``fixed``, checked
    here, once per run), then the plan's fixed scores.  The border follows:
    its incomplete raw columns (``moving``), then ``pcr-vbv``'s per-visit
    scores; ``fill`` checks the moving ones on each visit's observed cells
    and marks those that are constant in ``flat``.  Raw columns keep
    ascending order within each block.  A later visit rewrites only the
    border and its Gram rows and columns.  A width change (a per-visit q
    that shrank) rebuilds them.  Every column is stored centred on the
    target's observed rows (``x_mis`` with the same centres), and a border
    column is centred again when it is rewritten, so the draw sees no
    predictor's location.  It holds n x r predictor cells and their r x r
    Gram, unridged.  ``x_obs`` and ``x_mis`` are column-major (Fortran
    order), so each column's cells are contiguous: a border write, its
    centring and the border's cross product ``X_b'X`` read and write
    contiguous memory.  The target's observed and missing rows are taken
    once, as index arrays (``rows``, ``gaps``), with its observed outcome
    ``y_obs`` and its moving columns' cells on each (``cells``).

    At the target's first draw ``_impute_column`` makes ``static_block``
    (``imputers.StaticBlock``), the static block's products, which its
    observed outcome and complete columns keep valid for the run.  Each
    visit then factors and solves only the border's Schur complement.  The column
    order decides which square root of the slopes' posterior covariance maps
    the draw's noise, so reordering the columns changes a seeded sample but
    not the posterior it comes from: the predicted value that moved by 5.7
    when a prototype at r = 241 put the fixed columns first is another
    sample of the same posterior, not a fault.
    """

    def __init__(self, plan: _Plan, target: int) -> None:
        raw = plan.raw.get(target, _NO_COLUMNS)
        observed = plan.data.mask[:, target]
        self.rows, self.gaps = np.flatnonzero(observed), np.flatnonzero(~observed)
        self.y_obs = plan.data.values[self.rows, target]
        complete = plan.data.mask[:, raw].all(axis=0)
        held = raw[complete]
        flat = np.ptp(plan.data.values[np.ix_(self.rows, held)], axis=0) == 0.0
        _warn_dropped(plan, held[flat], target)
        self.fixed = held[~flat]
        self.moving = raw[~complete]
        # The moving columns' cells as flat indices into the n x p working matrix,
        # one row per column: on the observed rows, then on the missing rows.
        self.cells = [self.moving[:, None] + at * plan.data.n_cols for at in (self.rows, self.gaps)]
        scores = plan.fixed_scores
        self.static = self.fixed.size + (0 if scores is None else scores.shape[1])
        self.flat = np.zeros(self.moving.size, dtype=bool)
        self.gram: np.ndarray | None = None
        self.static_block: StaticBlock | None = None

    def fill(self, plan: _Plan, working: np.ndarray, scores: np.ndarray | None) -> None:
        """Write this visit's predictors and per-visit ``scores`` and bring the Gram up to date."""
        k = self.static
        width = k + self.moving.size + (0 if scores is None else scores.shape[1])
        rebuild = self.gram is None or self.gram.shape[0] != width
        if not rebuild and width == k:
            return  # nothing moves
        if rebuild:
            self.x_obs = np.empty((self.rows.size, width), order="F")
            self.x_mis = np.empty((self.gaps.size, width), order="F")
            self.gram = np.empty((width, width), order="F")
        # One row per column: the column-major stores' columns, written in place.
        x_obs, x_mis = self.x_obs.T, self.x_mis.T
        start, end = (0 if rebuild else k), k + self.moving.size
        if rebuild and k:
            blocks = [working[:, self.fixed], plan.fixed_scores]
            static = np.hstack([block for block in blocks if block is not None])
            x_obs[:k], x_mis[:k] = static[self.rows].T, static[self.gaps].T
        if end > k:
            x_obs[k:end], x_mis[k:end] = working.take(self.cells[0]), working.take(self.cells[1])
            self.flat = np.ptp(x_obs[k:end], axis=1) == 0.0
        if scores is not None:
            x_obs[end:], x_mis[end:] = scores[self.rows].T, scores[self.gaps].T
        x_obs, x_mis = x_obs[start:], x_mis[start:]
        # Each centre sums its column's own contiguous cells, so it does not
        # depend on how many columns the border holds (``mean``'s own division).
        centres = x_obs.sum(axis=1)[:, None] / self.rows.size
        x_obs -= centres
        x_mis -= centres
        # The Gram's rows and columns from ``start`` on, O(n r b), from the stored
        # centred columns.  Fortran order makes the draw's LAPACK copy a plain one;
        # on a rebuild numpy forms ``x.T @ x`` by ``syrk``, so it is exactly symmetric.
        cross = x_obs @ self.x_obs
        self.gram[:, start:] = cross.T
        self.gram[start:, :] = cross


def build_predictors(
    plan: _Plan,
    working: np.ndarray,
    target: int,
    state: RunningCorrelation | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The predictors of one column visit, as ``(x_obs, x_mis, gram)``.

    ``working`` must be a complete matrix holding current draws in the
    missing cells, and ``state`` the chain's ``plan.new_chain`` state.
    The predictors are the target's raw columns under ``plan`` that are
    not constant on its observed rows of ``working`` (``_Design`` decides
    which), and the plan's component scores, static block first, on the
    target's observed rows (``x_obs``) and missing rows (``x_mis``), each
    centred on its mean over the observed rows; ``gram`` holds
    ``x_obs.T @ x_obs`` up to rounding, unridged.  They are the plan's
    cache for the target (see ``_Design``), valid until its next visit.
    """
    design = plan.designs.get(target)
    if design is None:
        design = plan.designs[target] = _Design(plan, target)
    design.fill(plan, working, plan.scores(working, target, state))
    dead = np.flatnonzero(design.flat)
    if dead.size == 0:
        return design.x_obs, design.x_mis, design.gram
    _warn_dropped(plan, design.moving[dead], target)
    # A moving column that is flat at this visit sits out of this visit's border
    # only; ``keep`` holds every static position, so the static block still applies.
    keep = np.delete(np.arange(design.x_obs.shape[1]), design.static + dead)
    return design.x_obs[:, keep], design.x_mis[:, keep], design.gram[np.ix_(keep, keep)]


def _impute_column(
    plan: _Plan,
    working: np.ndarray,
    predictors: tuple[np.ndarray, np.ndarray, np.ndarray],
    target: int,
    rng: np.random.Generator,
    where: str,
) -> np.ndarray:
    spec, data = plan.spec, plan.data
    design = plan.designs[target]
    y_obs = design.y_obs
    x_obs, x_mis, gram = predictors
    try:
        if design.static and design.static_block is None:
            design.static_block = StaticBlock.of(y_obs, x_obs, gram, design.static, spec.ridge)
        static = design.static_block
        if spec.imputer == IMPUTER_BAYES:
            params = draw_linear_params(y_obs, x_obs, rng, spec.ridge, gram, static)
            imputed = draw_predictive(params, x_mis, rng)
        else:
            imputed = pmm_impute(y_obs, x_obs, x_mis, rng, spec.donors, spec.ridge, gram, static)
    except ValueError as err:
        raise ValueError(f"{where}, column {data.names[target]!r}: {err}") from err
    if not np.isfinite(imputed).all():
        raise ValueError(f"{where}, column {data.names[target]!r}: non-finite imputation")
    working[design.gaps, target] = imputed
    return imputed


def _run_chain(
    plan: _Plan,
    rng: np.random.Generator,
    chain_index: int = 0,
    trace: list[TraceRecord] | None = None,
) -> np.ndarray:
    """Run one chain of ``plan``'s run to completion and return the completed matrix.

    The working matrix starts from ``initialize_fill`` and the
    incomplete columns are visited in ascending index order on every
    sweep (one sweep when the strategy's predictors never change).  A
    trace record (mean and sample SD of the cells just imputed) is
    appended per visit.
    """
    data = plan.data
    working = initialize_fill(data, rng)
    # Per chain, so chains stay independent of each other and of worker count.
    state = plan.new_chain(working)
    targets = data.incomplete_columns().tolist()
    sweeps = 1 if plan.single_sweep else plan.spec.iterations
    for sweep in range(1, sweeps + 1):
        where = f"{plan.stage}chain {chain_index}, iteration {sweep}"
        for target in targets:
            predictors = build_predictors(plan, working, target, state)
            imputed = _impute_column(plan, working, predictors, target, rng, where)
            if state is not None:
                state.refresh(working, target)
            if trace is not None:
                # ``np.mean`` and ``np.std(ddof=1)``'s own arithmetic, without their wrappers.
                level = imputed.sum() / imputed.size
                spread = imputed - level
                spread *= spread
                sd = math.sqrt(spread.sum() / (imputed.size - 1)) if imputed.size > 1 else math.nan
                trace.append(
                    TraceRecord(
                        chain=chain_index,
                        iteration=sweep,
                        column=target,
                        column_name=data.names[target],
                        imputed_mean=float(level),
                        imputed_sd=sd,
                    )
                )
    return working


def _prepass_complete(
    spec: ImputationSpec, data: IncompleteData, rng: np.random.Generator
) -> np.ndarray:
    """Complete ``data`` once with the pre-pass, a single quickpred chain.

    The chain screens at ``spec.prepass_threshold`` and runs
    ``spec.prepass_iterations`` sweeps.  Complete input comes back
    unchanged.
    """
    prepass = replace(
        spec,
        strategy=STRATEGY_QUICKPRED,
        corr_threshold=spec.prepass_threshold,
        iterations=spec.prepass_iterations,
        chains=1,
    )
    return _run_chain(_QuickpredPlan(prepass, data, stage="pre-pass "), rng)


def _resolve_components(plan: _Plan, block: int) -> int:
    """Settle the component count from a plan's predictor budget.

    Components come from ``block`` columns and each target also keeps
    its ``plan.raw`` columns.  Every target's regression must keep at
    least one residual degree of freedom: its budget is ``observed cases
    - 2`` total predictors, its raw columns included.  For ``"max"`` the
    count is the largest q within the block bound ``min(n_rows, block)``
    and every target's budget; a numeric q must fit both as it is.
    """
    spec, data = plan.spec, plan.data
    if block < 1:
        raise ValueError(f"{spec.strategy} has no columns to extract components from")
    ceiling = max_components(data.n_rows, block)
    wants_max = spec.n_components == MAX_COMPONENTS
    if not wants_max and int(spec.n_components) > ceiling:
        raise ValueError(
            f"n_components={spec.n_components} exceeds the extractable "
            f"maximum {ceiling} for {spec.strategy}"
        )
    resolved = ceiling if wants_max else int(spec.n_components)
    least = 1 if wants_max else resolved
    observed_counts = data.mask.sum(axis=0)
    for j in data.incomplete_columns().tolist():
        n_raw = plan.raw.get(j, _NO_COLUMNS).size
        budget = int(observed_counts[j]) - 2 - n_raw
        if budget < least:
            count = "a positive component count" if wants_max else f"n_components={resolved}"
            raise ValueError(
                f"{spec.strategy} cannot resolve {count} within the per-target "
                f"predictor budget: column {data.names[j]!r} has "
                f"{observed_counts[j]} observed cases and {n_raw} raw predictors"
            )
        resolved = min(resolved, budget)
    return resolved


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS this process loaded.

    numpy bundles ``libscipy_openblas64_`` and scipy its own
    ``libscipy_openblas``; both are found through ``/proc/self/maps``.
    Empty where there is no ``/proc`` or no OpenBLAS (MKL, Accelerate).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            getter = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
            setter = getattr(library, f"scipy_openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the body with every loaded OpenBLAS at ``count`` threads, then restore each.

    A multithreaded BLAS may split a product differently and so round
    differently, and a run is many small products and eigensolves, where a
    second thread buys little wall time for much more CPU.  The draw's
    factorisations run in scipy's OpenBLAS and the PCA in numpy's, so both
    are set.  Does nothing without OpenBLAS.
    """
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_count in controls:
        set_count(count)
    try:
        yield
    finally:
        for (_, set_count), previous in zip(controls, saved):
            set_count(previous)


def run_impute(spec: ImputationSpec, data: IncompleteData) -> MultiplyImputedSet:
    """Produce ``spec.chains`` completed datasets.

    Chain randomness comes from child streams spawned off the root
    seed, so chain k's results do not depend on how many chains run.
    The fixed-score strategies complete their pre-pass once per run and
    share the resulting component scores across chains.  The whole run
    holds every loaded OpenBLAS at one thread and then restores the
    process's counts, so its bits do not depend on them.

    Raises
    ------
    ValueError
        If any incomplete column has fewer than three observed cells, or
        under pmm fewer than ``spec.donors``; if the strategy's component
        count does not fit its predictor budget; or if an imputation
        model fails (reported with chain, iteration, and column).
    """
    with _blas_threads(1):
        observed_counts = data.mask.sum(axis=0)
        for j in data.incomplete_columns().tolist():
            if observed_counts[j] < 3:
                raise ValueError(f"column {data.names[j]!r} has fewer than three observed cells")
            if spec.imputer == IMPUTER_PMM and observed_counts[j] < spec.donors:
                raise ValueError(
                    f"column {data.names[j]!r} has {observed_counts[j]} observed cells, "
                    f"fewer than the {spec.donors} pmm donors"
                )
        root = np.random.SeedSequence(spec.seed)
        children = root.spawn(spec.chains + 1)  # child 0 is the pre-pass stream
        plan = _PLANS[spec.strategy](spec, data)
        trace: list[TraceRecord] = []
        completions = [
            _run_chain(plan, np.random.default_rng(children[chain_index + 1]), chain_index, trace)
            for chain_index in range(spec.chains)
        ]
        return MultiplyImputedSet(
            completions=completions,
            data=data,
            spec=spec,
            trace=trace,
            resolved_components=plan.resolved_components,
            pca_count=plan.pca_count,
        )
