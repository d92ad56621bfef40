"""Chained-equations multiple imputation with pluggable predictor strategies.

Each chain starts from random draws of observed values, then sweeps the
incomplete columns in ascending index order for a fixed number of
iterations.  At every visit the target column is regressed on a
predictor matrix assembled by the active strategy:

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
                  or its missingness indicator;
* ``oracle``      the raw analysis columns plus the declared missingness
                  predictors.

Observed cells are never modified; missing cells always hold the most
recent draw.  All randomness flows from one integer seed through
per-chain child streams, so results are reproducible bit for bit and
adding chains never perturbs earlier ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .data import ROLE_ANALYSIS, ROLE_MAR, IncompleteData
from .imputers import (
    DEFAULT_DONORS,
    DEFAULT_RIDGE,
    IMPUTER_BAYES,
    IMPUTER_KINDS,
    draw_linear_params,
    draw_predictive,
    pmm_impute,
)
from .pca import PcaResult, RunningCorrelation, max_components, pca

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
class ImputationSpec:
    """Settings for one multiple-imputation run.

    Attributes
    ----------
    strategy : str
        One of ``STRATEGIES``.
    n_components : int or ``"max"``
        Retained component count for the pcr strategies; ``"max"``
        resolves at run time to the largest feasible count.  Ignored by
        quickpred and oracle.
    imputer : str
        Univariate draw: ``"bayesian-normal"`` or ``"pmm"``.
    chains : int
        Number of completed datasets.
    iterations : int
        Sweeps per chain (forced to one under ``pcr-all``).
    corr_threshold : float
        Quickpred screening threshold on absolute correlation.
    prepass_threshold, prepass_iterations
        Quickpred threshold and sweep count for the single-imputation
        pre-pass used by ``pcr-all`` and ``pcr-aux``.
    donors : int
        Donor-pool size for pmm.
    ridge : float
        Stabilization constant for the regression normal equations.
    seed : int
        Root seed; chain streams are spawned from it.
    """

    strategy: str
    n_components: int | str = MAX_COMPONENTS
    imputer: str = IMPUTER_BAYES
    chains: int = 5
    iterations: int = 20
    corr_threshold: float = 0.1
    prepass_threshold: float = 0.3
    prepass_iterations: int = 20
    donors: int = DEFAULT_DONORS
    ridge: float = DEFAULT_RIDGE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.imputer not in IMPUTER_KINDS:
            raise ValueError(f"unknown imputer {self.imputer!r}")
        if self.n_components != MAX_COMPONENTS:
            if not isinstance(self.n_components, (int, np.integer)) or self.n_components < 1:
                raise ValueError("n_components must be a positive integer or 'max'")
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
        if self.ridge < 0.0:
            raise ValueError("ridge must be nonnegative")


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


def _pairwise_select(
    values: np.ndarray,
    mask: np.ndarray,
    target: int,
    threshold: float,
) -> np.ndarray:
    """Quickpred screen for one target on the original incomplete matrix."""

    def safe_corr(a: np.ndarray, b: np.ndarray) -> float:
        if a.size < 2:
            return 0.0
        sa = a.std()
        sb = b.std()
        if sa == 0.0 or sb == 0.0:
            return 0.0
        return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))

    target_mask = mask[:, target]
    indicator = (~target_mask).astype(float)
    keep = []
    for k in range(values.shape[1]):
        if k == target:
            continue
        both = mask[:, k] & target_mask
        r_value = safe_corr(values[both, k], values[both, target])
        rows_k = mask[:, k]
        r_indicator = safe_corr(values[rows_k, k], indicator[rows_k])
        if max(abs(r_value), abs(r_indicator)) >= threshold:
            keep.append(k)
    return np.array(keep, dtype=int)


def quickpred_select(data: IncompleteData, target: int, threshold: float) -> np.ndarray:
    """Columns passing the quickpred correlation screen for ``target``.

    Correlations use pairwise-complete rows of the original data, plus
    the correlation of each candidate with the target's missingness
    indicator; degenerate correlations count as zero.  Selection is
    monotone in the threshold.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return _pairwise_select(data.values, data.mask, target, threshold)


def _oracle_select(roles: list[str], target: int) -> np.ndarray:
    keep = [
        j
        for j, role in enumerate(roles)
        if j != target and role in (ROLE_ANALYSIS, ROLE_MAR)
    ]
    return np.array(keep, dtype=int)


@dataclass(eq=False)
class _RunContext:
    """Per-run caches shared by every chain."""

    selected: dict[int, np.ndarray] = field(default_factory=dict)
    fixed_scores: np.ndarray | None = None
    resolved_components: int | None = None
    pca_count: int = 0
    warned_drops: set[int] = field(default_factory=set)


@dataclass(eq=False)
class _VbvChainState:
    """One chain's pcr-vbv state: the working matrix's running correlation,
    each column's spread, and each target's last extraction with its block."""

    running: RunningCorrelation
    spread: np.ndarray
    last: dict[int, tuple[np.ndarray, PcaResult]] = field(default_factory=dict)

    @classmethod
    def of(cls, working: np.ndarray) -> _VbvChainState:
        return cls(RunningCorrelation.of(working), np.ptp(working, axis=0))

    def refresh(self, working: np.ndarray, column: int) -> None:
        """Account for new values in ``working[:, column]``."""
        self.running.refresh(working, column)
        self.spread[column] = np.ptp(working[:, column])

    def extract(
        self, working: np.ndarray, target: int, block_ids: np.ndarray, q: int
    ) -> np.ndarray:
        """Component scores of the block, warm-started from the target's last block."""
        last = self.last.get(target)
        previous = last[1] if last is not None and np.array_equal(last[0], block_ids) else None
        result = pca(working, q, columns=block_ids, running=self.running, previous=previous)
        self.last[target] = (block_ids, result)
        return result.scores


def _drop_constants(
    working: np.ndarray,
    column_ids: np.ndarray,
    names: list[str],
    context: _RunContext | None,
    spread: np.ndarray | None = None,
) -> np.ndarray:
    """Filter out columns that are constant in the current working matrix.

    ``spread``, when given, holds every column's current max - min.
    """
    if column_ids.size == 0:
        return column_ids
    if spread is None:
        block = working[:, column_ids]
        spread = block.max(axis=0) - block.min(axis=0)
    else:
        spread = spread[column_ids]
    kept = column_ids[spread > 0.0]
    if kept.size != column_ids.size and context is not None:
        dropped = [int(j) for j in column_ids[spread == 0.0]]
        fresh = [j for j in dropped if j not in context.warned_drops]
        if fresh:
            context.warned_drops.update(fresh)
            labels = ", ".join(names[j] for j in fresh)
            logger.warning("dropping constant predictor column(s): %s", labels)
    return kept


def build_predictors(
    strategy: str,
    working: np.ndarray,
    roles: list[str],
    target: int,
    n_components: int,
    *,
    names: list[str] | None = None,
    fixed_scores: np.ndarray | None = None,
    selected_columns: np.ndarray | None = None,
    context: _RunContext | None = None,
    vbv_state: _VbvChainState | None = None,
) -> np.ndarray:
    """Assemble the predictor matrix for one column visit.

    ``working`` must be a complete matrix holding current draws in the
    missing cells.  Strategies with per-run caches (fixed component
    scores, screened column sets) receive them via keyword arguments.
    Constant columns are dropped from raw blocks and from component
    extraction; the component count is capped by the surviving block.
    Under ``pcr-vbv``, a chain's ``vbv_state`` replaces the per-visit
    standardization and full eigendecomposition with its running
    correlation matrix and a warm-started leading-component solve; without
    one, the visit builds a fresh state and solves exactly.
    """
    names = names if names is not None else [f"x{j + 1}" for j in range(working.shape[1])]
    if strategy == STRATEGY_ALL:
        if fixed_scores is None:
            raise ValueError("pcr-all requires precomputed component scores")
        return fixed_scores
    if strategy == STRATEGY_VBV:
        if vbv_state is None:
            vbv_state = _VbvChainState.of(working)
        block_ids = np.delete(np.arange(working.shape[1]), target)
        block_ids = _drop_constants(working, block_ids, names, context, vbv_state.spread)
        if block_ids.size == 0:
            return np.empty((working.shape[0], 0))
        q = min(int(n_components), max_components(working.shape[0], block_ids.size))
        if context is not None:
            context.pca_count += 1
        return vbv_state.extract(working, target, block_ids, q)
    if strategy == STRATEGY_AUX:
        if fixed_scores is None:
            raise ValueError("pcr-aux requires precomputed component scores")
        analysis = [j for j, role in enumerate(roles) if role == ROLE_ANALYSIS and j != target]
        raw_ids = _drop_constants(working, np.array(analysis, dtype=int), names, context)
        return np.hstack([working[:, raw_ids], fixed_scores])
    if strategy in (STRATEGY_QUICKPRED, STRATEGY_ORACLE):
        if selected_columns is None:
            raise ValueError(f"{strategy} requires a screened column set")
        kept = _drop_constants(working, selected_columns, names, context)
        return working[:, kept]
    raise ValueError(f"unknown strategy {strategy!r}")


def _impute_column(
    spec: ImputationSpec,
    data: IncompleteData,
    working: np.ndarray,
    predictors: np.ndarray,
    target: int,
    rng: np.random.Generator,
    where: str,
) -> np.ndarray:
    observed = data.mask[:, target]
    y_obs = data.values[observed, target]
    x_obs = predictors[observed]
    x_mis = predictors[~observed]
    try:
        if spec.imputer == IMPUTER_BAYES:
            params = draw_linear_params(y_obs, x_obs, rng, spec.ridge)
            imputed = draw_predictive(params, x_mis, rng)
        else:
            imputed = pmm_impute(y_obs, x_obs, x_mis, rng, spec.donors, spec.ridge)
    except ValueError as err:
        raise ValueError(f"{where}, column {data.names[target]!r}: {err}") from err
    if not np.isfinite(imputed).all():
        raise ValueError(f"{where}, column {data.names[target]!r}: non-finite imputation")
    working[~observed, target] = imputed
    return imputed


def run_chain(
    spec: ImputationSpec,
    data: IncompleteData,
    rng: np.random.Generator,
    *,
    chain_index: int = 0,
    context: _RunContext | None = None,
    trace: list[TraceRecord] | None = None,
    trace_hook=None,
) -> np.ndarray:
    """Run one chain to completion and return the completed matrix.

    The working matrix starts from ``initialize_fill`` and the
    incomplete columns are visited in ascending index order on every
    sweep.  A trace record (mean and sample SD of the cells just
    imputed) is appended per visit.
    """
    if context is None:
        context = _build_context(spec, data)
    working = initialize_fill(data, rng)
    # Per chain, so chains stay independent of each other and of worker count.
    vbv_state = _VbvChainState.of(working) if spec.strategy == STRATEGY_VBV else None
    iterations = 1 if spec.strategy == STRATEGY_ALL else spec.iterations
    targets = data.incomplete_columns()
    for sweep in range(1, iterations + 1):
        for target in targets:
            predictors = build_predictors(
                spec.strategy,
                working,
                data.roles,
                int(target),
                context.resolved_components or 1,
                names=data.names,
                fixed_scores=context.fixed_scores,
                selected_columns=context.selected.get(int(target)),
                context=context,
                vbv_state=vbv_state,
            )
            where = f"chain {chain_index}, iteration {sweep}"
            imputed = _impute_column(spec, data, working, predictors, int(target), rng, where)
            if vbv_state is not None:
                vbv_state.refresh(working, int(target))
            sd = float(np.std(imputed, ddof=1)) if imputed.size > 1 else float("nan")
            record = TraceRecord(
                chain=chain_index,
                iteration=sweep,
                column=int(target),
                column_name=data.names[int(target)],
                imputed_mean=float(np.mean(imputed)),
                imputed_sd=sd,
            )
            if trace is not None:
                trace.append(record)
            if trace_hook is not None:
                trace_hook(
                    record.chain,
                    record.iteration,
                    record.column,
                    record.imputed_mean,
                    record.imputed_sd,
                )
    return working


def _prepass_complete(
    values: np.ndarray,
    mask: np.ndarray,
    rng: np.random.Generator,
    threshold: float,
    iterations: int,
    imputer: str,
    ridge: float,
    donors: int,
) -> np.ndarray:
    """Single-chain quickpred completion of an arbitrary block."""
    working = values.copy()
    targets = np.flatnonzero(~mask.all(axis=0))
    if targets.size == 0:
        return working
    for j in targets:
        observed = values[mask[:, j], j]
        gap = ~mask[:, j]
        working[gap, j] = rng.choice(observed, size=int(gap.sum()), replace=True)
    selected = {int(j): _pairwise_select(values, mask, int(j), threshold) for j in targets}
    rng_local = rng
    for _ in range(iterations):
        for j in targets:
            block = working[:, selected[int(j)]]
            spread = block.max(axis=0) - block.min(axis=0) if block.size else np.empty(0)
            block = block[:, spread > 0.0] if block.size else block
            observed = mask[:, j]
            y_obs = values[observed, j]
            x_obs = block[observed]
            x_mis = block[~observed]
            if imputer == IMPUTER_BAYES:
                params = draw_linear_params(y_obs, x_obs, rng_local, ridge)
                working[~observed, j] = draw_predictive(params, x_mis, rng_local)
            else:
                working[~observed, j] = pmm_impute(y_obs, x_obs, x_mis, rng_local, donors, ridge)
    return working


def prepass_single_impute(
    data: IncompleteData,
    rng: np.random.Generator,
    threshold: float = 0.3,
    iterations: int = 20,
    imputer: str = IMPUTER_BAYES,
    ridge: float = DEFAULT_RIDGE,
    donors: int = DEFAULT_DONORS,
) -> np.ndarray:
    """Complete a dataset once with a quickpred chain.

    Used to bootstrap component extraction for the fixed-score
    strategies.  Complete input comes back unchanged.
    """
    return _prepass_complete(
        data.values, data.mask, rng, threshold, iterations, imputer, ridge, donors
    )


def _resolve_components(spec: ImputationSpec, data: IncompleteData) -> int | None:
    """Settle the component count for the run.

    For ``"max"`` the count is the largest q such that every target's
    regression keeps at least one residual degree of freedom: the block
    bound ``min(n_rows, block columns)`` intersected with each target's
    budget of ``observed cases - 2`` total predictors.
    """
    if spec.strategy not in PCR_STRATEGIES:
        return None
    n, p = data.values.shape
    targets = data.incomplete_columns()
    observed_counts = data.mask.sum(axis=0)
    if spec.strategy == STRATEGY_VBV:
        block = p - 1
        raw = {int(j): 0 for j in targets}
    elif spec.strategy == STRATEGY_ALL:
        block = p
        raw = {int(j): 0 for j in targets}
    else:
        analysis = [j for j, role in enumerate(data.roles) if role == ROLE_ANALYSIS]
        block = p - len(analysis)
        raw = {
            int(j): len(analysis) - 1 if data.roles[int(j)] == ROLE_ANALYSIS else len(analysis)
            for j in targets
        }
    if block < 1:
        raise ValueError(f"{spec.strategy} has no columns to extract components from")
    ceiling = max_components(n, block)
    if spec.n_components == MAX_COMPONENTS:
        resolved = ceiling
        for j in targets:
            budget = int(observed_counts[int(j)]) - 2 - raw[int(j)]
            resolved = min(resolved, budget)
        if resolved < 1:
            raise ValueError(
                "cannot resolve a positive component count within the "
                "per-target predictor budget"
            )
        return int(resolved)
    if int(spec.n_components) > ceiling:
        raise ValueError(
            f"n_components={spec.n_components} exceeds the extractable "
            f"maximum {ceiling} for {spec.strategy}"
        )
    return int(spec.n_components)


def _build_context(spec: ImputationSpec, data: IncompleteData, prepass_rng=None) -> _RunContext:
    context = _RunContext()
    context.resolved_components = _resolve_components(spec, data)
    targets = [int(j) for j in data.incomplete_columns()]
    if spec.strategy == STRATEGY_QUICKPRED:
        for j in targets:
            chosen = quickpred_select(data, j, spec.corr_threshold)
            if chosen.size == 0:
                logger.warning(
                    "quickpred selected no predictors for column %r; "
                    "falling back to an intercept-only model",
                    data.names[j],
                )
            context.selected[j] = chosen
    elif spec.strategy == STRATEGY_ORACLE:
        for j in targets:
            context.selected[j] = _oracle_select(data.roles, j)
    elif spec.strategy in (STRATEGY_ALL, STRATEGY_AUX):
        if prepass_rng is None:
            prepass_rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
        if spec.strategy == STRATEGY_ALL:
            completed = _prepass_complete(
                data.values,
                data.mask,
                prepass_rng,
                spec.prepass_threshold,
                spec.prepass_iterations,
                spec.imputer,
                spec.ridge,
                spec.donors,
            )
            block = completed
        else:
            keep = np.array(
                [j for j, role in enumerate(data.roles) if role != ROLE_ANALYSIS],
                dtype=int,
            )
            completed = _prepass_complete(
                data.values[:, keep],
                data.mask[:, keep],
                prepass_rng,
                spec.prepass_threshold,
                spec.prepass_iterations,
                spec.imputer,
                spec.ridge,
                spec.donors,
            )
            block = completed
        spread = block.max(axis=0) - block.min(axis=0)
        if (spread == 0.0).any():
            logger.warning(
                "dropping %d constant column(s) from component extraction",
                int((spread == 0.0).sum()),
            )
        live = block[:, spread > 0.0]
        q = min(int(context.resolved_components), max_components(live.shape[0], live.shape[1]))
        context.fixed_scores = pca(live, q).scores
        context.pca_count += 1
    return context


def run_impute(
    spec: ImputationSpec,
    data: IncompleteData,
    trace_hook=None,
) -> MultiplyImputedSet:
    """Produce ``spec.chains`` completed datasets.

    Chain randomness comes from child streams spawned off the root
    seed, so chain k's results do not depend on how many chains run.
    The fixed-score strategies complete their pre-pass once per run and
    share the resulting component scores across chains.

    Raises
    ------
    ValueError
        If any incomplete column has fewer than three observed cells,
        or an imputation model fails (reported with chain, iteration,
        and column).
    """
    targets = data.incomplete_columns()
    observed_counts = data.mask.sum(axis=0)
    for j in targets:
        if observed_counts[int(j)] < 3:
            raise ValueError(
                f"column {data.names[int(j)]!r} has fewer than three observed cells"
            )
    root = np.random.SeedSequence(spec.seed)
    children = root.spawn(spec.chains + 1)
    context = _build_context(spec, data, prepass_rng=np.random.default_rng(children[0]))
    trace: list[TraceRecord] = []
    completions = []
    for chain_index in range(spec.chains):
        rng = np.random.default_rng(children[chain_index + 1])
        completions.append(
            run_chain(
                spec,
                data,
                rng,
                chain_index=chain_index,
                context=context,
                trace=trace,
                trace_hook=trace_hook,
            )
        )
    return MultiplyImputedSet(
        completions=completions,
        data=data,
        spec=spec,
        trace=trace,
        resolved_components=context.resolved_components,
        pca_count=context.pca_count,
    )
