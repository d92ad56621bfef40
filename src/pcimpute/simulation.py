"""Monte Carlo harness: factor-model data, right-tail MAR, and metrics.

A replication draws a confirmatory-factor dataset, optionally coarsens
the non-target columns into equal-probability categories, deletes
values from the analysis targets with a calibrated right-tail logistic
rule driven by the continuous predictor block, imputes the result with
each configured method, and pools moments of the target columns.  The
harness then scores each method per parameter against the full-data
estimates with percent relative bias, confidence-interval width, and
confidence-interval coverage.

Every replication reseeds itself from the root seed and its own index,
so single replications can be rerun in isolation and the worker count
does not change statistical output.
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .data import ROLE_ANALYSIS, ROLE_AUXILIARY, ROLE_MAR, IncompleteData
from .engine import (
    MAX_COMPONENTS,
    PCR_STRATEGIES,
    ImputationSpec,
    StudySettings,
    _blas_threads,
    run_impute,
)
from .pca import _is_a
from .pooling import analyze_set, estimate_parameter, moment_parameter_ids

ANCHOR_ITEMS = 8  # items on the first factor: 4 analysis targets + 4 MAR predictors


@dataclass(frozen=True)
class SimulationCondition:
    """One cell of the study design.

    The first factor carries the eight anchor items (four analysis
    targets, four missingness predictors); each remaining factor
    carries ``items_per_factor`` auxiliary items.  ``noise_fraction``
    is the share of the non-anchor factors whose correlations with
    everything else are lowered to ``low_corr``; ``categories`` is the
    number of discrete levels for the non-target columns (None keeps
    them continuous).
    """

    n_rows: int = 500
    factors: int = 7
    items_per_factor: int = 8
    loading: float = 0.85
    high_corr: float = 0.7
    low_corr: float = 0.1
    noise_fraction: float = 0.0
    categories: int | None = None
    target_mean: float = 5.0
    target_variance: float = 6.5
    missing_proportion: float = 0.3

    def __post_init__(self) -> None:
        counts = ("n_rows", "factors", "items_per_factor", "categories")
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if name == "categories" and value is None:
                continue
            kind, noun = (Integral, "an integer") if name in counts else (Real, "a number")
            if not _is_a(value, kind):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            if not abs(value) < np.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.n_rows < 10:
            raise ValueError("n_rows must be at least 10")
        if self.factors < 2:
            raise ValueError("need at least two factors")
        if self.items_per_factor < 1:
            raise ValueError("items_per_factor must be positive")
        if not 0.0 < self.loading < 1.0:
            raise ValueError("loading must lie strictly between 0 and 1")
        for name in ("high_corr", "low_corr"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must lie in [0, 1]")
        low_count = self.noise_fraction * (self.factors - 1)
        if abs(low_count - round(low_count)) > 1e-9:
            raise ValueError(
                "noise_fraction must mark a whole number of non-anchor factors"
            )
        if self.categories is not None and self.categories < 2:
            raise ValueError("categories must be at least 2 (or None)")
        if not 0.0 < self.missing_proportion < 1.0:
            raise ValueError("missing_proportion must lie strictly between 0 and 1")
        if self.target_variance <= 0.0:
            raise ValueError("target_variance must be positive")

    @property
    def n_cols(self) -> int:
        return ANCHOR_ITEMS + (self.factors - 1) * self.items_per_factor

    @property
    def low_factor_count(self) -> int:
        return int(round(self.noise_fraction * (self.factors - 1)))


def condition_roles(cond: SimulationCondition) -> list[str]:
    """Column roles: four targets, four MAR predictors, rest auxiliary."""
    roles = [ROLE_ANALYSIS] * 4 + [ROLE_MAR] * 4
    roles += [ROLE_AUXILIARY] * (cond.n_cols - ANCHOR_ITEMS)
    return roles


def factor_correlation_matrix(cond: SimulationCondition) -> np.ndarray:
    """Factor correlation matrix with the trailing factors made weak.

    The last ``low_factor_count`` non-anchor factors correlate at
    ``low_corr`` with every other factor; all remaining pairs use
    ``high_corr``.
    """
    k = cond.factors
    psi = np.full((k, k), cond.high_corr)
    low_start = k - cond.low_factor_count
    for i in range(k):
        for j in range(k):
            if i >= low_start or j >= low_start:
                psi[i, j] = cond.low_corr
    np.fill_diagonal(psi, 1.0)
    return psi


def generate_complete(
    cond: SimulationCondition,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[str]]:
    """Draw one complete dataset and its column roles.

    Items follow a simple-structure factor model with loading
    ``cond.loading`` and unit total variance, then each column is
    rescaled affinely to hit the target mean and sample variance
    exactly.
    """
    psi = factor_correlation_matrix(cond)
    try:
        chol = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError:
        raise ValueError("factor correlation matrix is not positive definite") from None
    n, k = cond.n_rows, cond.factors
    scores = rng.standard_normal((n, k)) @ chol.T
    loadings = np.zeros((cond.n_cols, k))
    loadings[:ANCHOR_ITEMS, 0] = cond.loading
    for f in range(1, k):
        start = ANCHOR_ITEMS + (f - 1) * cond.items_per_factor
        loadings[start : start + cond.items_per_factor, f] = cond.loading
    noise_sd = np.sqrt(1.0 - cond.loading**2)
    values = scores @ loadings.T + noise_sd * rng.standard_normal((n, cond.n_cols))
    values = values - values.mean(axis=0)
    values = values / values.std(axis=0, ddof=1) * np.sqrt(cond.target_variance)
    values = values + cond.target_mean
    return values, condition_roles(cond)


def coarsen(values: np.ndarray, roles: list[str], categories: int | None) -> np.ndarray:
    """Discretize non-target columns into equal-probability categories.

    Cut points are the interior empirical quantiles; codes run 1 to
    ``categories`` and respect the original ordering.  Analysis-target
    columns are never coarsened, and ``categories=None`` returns an
    unchanged copy.
    """
    out = np.asarray(values, dtype=float).copy()
    if categories is None:
        return out
    if categories < 2:
        raise ValueError("categories must be at least 2")
    edges = np.arange(1, categories) / categories
    for j, role in enumerate(roles):
        if role == ROLE_ANALYSIS:
            continue
        cuts = np.quantile(out[:, j], edges)
        out[:, j] = np.searchsorted(cuts, out[:, j], side="left") + 1.0
    return out


def _expit(x):
    """scipy's logistic function; ``scipy.special`` loads on first use, so the
    file workflow, which never simulates, does not import it."""
    from scipy.special import expit

    return expit(x)


_CALIBRATION_TOL = 1e-6
_CALIBRATION_ITERATIONS = 200


def calibrate_intercept(linear_scores: np.ndarray, target_proportion: float) -> float:
    """Find the logistic intercept hitting an expected missing share.

    Bisects on the mean of ``expit(intercept + scores)``, which is
    monotone in the intercept, until the expected proportion is within
    ``_CALIBRATION_TOL`` of the target.
    """
    scores = np.asarray(linear_scores, dtype=float)
    if not 0.0 < target_proportion < 1.0:
        raise ValueError("target proportion must lie strictly between 0 and 1")
    lower, upper = -60.0, 60.0
    while float(_expit(lower + scores).mean()) > target_proportion:
        lower *= 2.0
    while float(_expit(upper + scores).mean()) < target_proportion:
        upper *= 2.0
    mid = 0.5 * (lower + upper)
    for _ in range(_CALIBRATION_ITERATIONS):
        mid = 0.5 * (lower + upper)
        achieved = float(_expit(mid + scores).mean())
        if abs(achieved - target_proportion) < _CALIBRATION_TOL:
            return mid
        if achieved > target_proportion:
            upper = mid
        else:
            lower = mid
    raise ValueError("intercept calibration did not converge")


def mar_linear_scores(mar_block: np.ndarray) -> np.ndarray:
    """Unit-slope linear score of the missingness predictors.

    Columns are standardized, summed with equal weights, and the sum is
    rescaled to unit sample variance so the logistic mechanism's
    strength does not grow with the predictor count or scale.
    """
    block = np.asarray(mar_block, dtype=float)
    std = (block - block.mean(axis=0)) / block.std(axis=0, ddof=1)
    total = std.sum(axis=1)
    return total / total.std(ddof=1)


def ampute(
    values: np.ndarray,
    roles: list[str],
    cond: SimulationCondition,
    rng: np.random.Generator,
    mar_values: np.ndarray | None = None,
) -> IncompleteData:
    """Delete target values at random with right-tail MAR probabilities.

    Each analysis-target column independently loses cells with
    probability ``expit(intercept + score)`` where the score is the
    standardized sum of the (continuous) MAR-predictor columns and the
    intercept is calibrated so the expected missing share matches the
    condition.  Only target columns are ever masked.  Pass the
    uncoarsened predictor block as ``mar_values`` when the matrix has
    been discretized.
    """
    values = np.asarray(values, dtype=float)
    mar_ids = [j for j, role in enumerate(roles) if role == ROLE_MAR]
    if not mar_ids:
        raise ValueError("amputation requires MAR-predictor columns")
    block = values[:, mar_ids] if mar_values is None else np.asarray(mar_values, dtype=float)
    scores = mar_linear_scores(block)
    intercept = calibrate_intercept(scores, cond.missing_proportion)
    probabilities = _expit(intercept + scores)
    mask = np.ones(values.shape, dtype=bool)
    for j, role in enumerate(roles):
        if role != ROLE_ANALYSIS:
            continue
        mask[:, j] = rng.random(values.shape[0]) >= probabilities
    masked = values.copy()
    masked[~mask] = np.nan
    names = [f"x{j + 1}" for j in range(values.shape[1])]
    return IncompleteData(values=masked, mask=mask, names=names, roles=list(roles))


def _logistic_fit(predictors: np.ndarray, outcome: np.ndarray) -> tuple[np.ndarray, float]:
    design = np.hstack([np.ones((len(outcome), 1)), predictors])
    beta = np.zeros(design.shape[1])
    for _ in range(60):
        probs = _expit(design @ beta)
        weights = probs * (1.0 - probs) + 1e-12
        step = np.linalg.solve(
            (design * weights[:, None]).T @ design, design.T @ (outcome - probs)
        )
        beta += step
        if np.max(np.abs(step)) < 1e-10:
            break
    probs = np.clip(_expit(design @ beta), 1e-12, 1.0 - 1e-12)
    loglik = float(np.sum(outcome * np.log(probs) + (1.0 - outcome) * np.log(1.0 - probs)))
    return beta, loglik


def mar_diagnostics(data: IncompleteData, mar_values: np.ndarray) -> list[dict]:
    """Refit the missingness model per target and report its strength.

    Returns one dict per analysis-target column with the realized
    missing proportion, McFadden pseudo R-squared of a logistic refit
    of the missingness indicator on the continuous predictor block, and
    the area under the ROC curve of the fitted scores.
    """
    block = np.asarray(mar_values, dtype=float)
    out = []
    for j in data.columns_with_role(ROLE_ANALYSIS):
        indicator = (~data.mask[:, int(j)]).astype(float)
        share = float(indicator.mean())
        beta, loglik = _logistic_fit(block, indicator)
        base = np.clip(indicator.mean(), 1e-12, 1.0 - 1e-12)
        loglik_null = float(
            np.sum(indicator * np.log(base) + (1.0 - indicator) * np.log(1.0 - base))
        )
        fitted = block @ beta[1:] + beta[0]
        # Mann-Whitney: each (missing, observed) pair with the missing row
        # scored higher counts 2, a tie counts 1, so the sum is exactly 2U.
        observed_scores = np.sort(fitted[indicator == 0])
        missing_scores = fitted[indicator == 1]
        twice_u = (
            np.searchsorted(observed_scores, missing_scores, "left").sum()
            + np.searchsorted(observed_scores, missing_scores, "right").sum()
        )
        n_pos = indicator.sum()
        n_neg = len(indicator) - n_pos
        auc = float(twice_u / (2 * n_pos * n_neg))
        out.append(
            {
                "column": int(j),
                "missing_proportion": share,
                "pseudo_r2": 1.0 - loglik / loglik_null,
                "auc": auc,
            }
        )
    return out


def compute_prb(method_estimates, full_estimates) -> float:
    """Percent relative bias against the mean full-data estimate."""
    truth = float(np.mean(full_estimates))
    if truth == 0.0:
        raise ValueError("full-data reference value is zero")
    return abs(float(np.mean(method_estimates)) - truth) / abs(truth) * 100.0


def compute_ciw(lowers, uppers) -> float:
    """Mean confidence-interval width across replications."""
    return float(np.mean(np.subtract(uppers, lowers)))


def compute_cic(lowers, uppers, full_estimates) -> float:
    """Share of intervals covering the mean full-data estimate."""
    truth = float(np.mean(full_estimates))
    return float(np.mean(np.less_equal(lowers, truth) & np.less_equal(truth, uppers)))


@dataclass(frozen=True)
class MethodSetting:
    """One method column of the study grid."""

    strategy: str
    n_components: int | str | None = None

    def __post_init__(self) -> None:
        self.spec(StudySettings(), seed=0)  # rejects a bad strategy or n_components
        if self.strategy in PCR_STRATEGIES and self.n_components is None:
            raise ValueError(f"{self.strategy} needs n_components")

    @property
    def components_label(self) -> str:
        return "" if self.n_components is None else str(self.n_components)

    def spec(self, settings: StudySettings, seed: int) -> ImputationSpec:
        """This method's run in a study with ``settings``."""
        shared = {f.name: getattr(settings, f.name) for f in fields(StudySettings)}
        components = MAX_COMPONENTS if self.n_components is None else self.n_components
        return ImputationSpec(**shared, strategy=self.strategy, n_components=components, seed=seed)


@dataclass(eq=False)
class MetricRecord:
    """Pooled performance of one method on one parameter in one cell.

    The field order is the column order of ``metrics.csv``.  The three
    metrics are taken over the replications in which the method entry
    completed, so their count S is ``reps`` (not ``reps - failures``).

    Attributes
    ----------
    n_rows, n_cols, noise_fraction, categories
        The cell's ``SimulationCondition``: row count, column count,
        share of low-correlation factors, and category count (None when
        the non-target columns stay continuous).
    method : str
        The entry's strategy.
    n_components : int, str or None
        The entry's component count as configured: an integer,
        ``"max"``, or None for a strategy without components.
    parameter : str
        The pooled parameter's label, such as ``corr(x1,x2)``.
    prb : float
        Absolute percent relative bias of the mean pooled estimate
        against the mean full-data estimate (``compute_prb``).
    cic : float
        Share of the pooled confidence intervals that cover the mean
        full-data estimate (``compute_cic``).
    ciw : float
        Mean width of the pooled confidence intervals (``compute_ciw``).
    runtime_s : float
        Mean wall time of the entry's imputation and analysis over the
        completed replications (0.0 under ``deterministic_timer``).
    reps : int
        Replications in which the entry completed.
    failures : int
        Replications in which it raised; ``reps + failures`` is the
        count the study asked for.
    """

    n_rows: int
    n_cols: int
    noise_fraction: float
    categories: int | None
    method: str
    n_components: int | str | None
    parameter: str
    prb: float
    cic: float
    ciw: float
    runtime_s: float
    reps: int
    failures: int


@dataclass(eq=False)
class EstimateRecord:
    """One pooled estimate from one replication.

    The field order is the column order of ``estimates.csv``.
    """

    n_rows: int
    n_cols: int
    noise_fraction: float
    categories: int | None
    rep: int
    method: str
    n_components: int | str | None
    parameter: str
    estimate: float
    ci_lower: float
    ci_upper: float
    full_estimate: float


# The cell, method and parameter fields: a metric copies them from its estimate rows.
_SHARED_FIELDS = [
    f.name for f in fields(MetricRecord) if f.name in EstimateRecord.__dataclass_fields__
]


@dataclass(eq=False)
class StudyResult:
    """Estimates, metrics and failure messages of a study.

    ``estimates`` (one per parameter of each replication a method entry
    completed) and ``failures`` (one per replication it did not) run in
    (condition, rep, method entry) order; ``metrics`` runs in (condition,
    method entry, parameter) order and scores the completed replications.
    """

    metrics: list[MetricRecord]
    estimates: list[EstimateRecord]
    failures: list[str]


def method_seed(root_seed: int, condition_index: int, rep: int, method_index: int) -> int:
    """Stable per-imputation seed derived from the replication identity."""
    sequence = np.random.SeedSequence(
        root_seed, spawn_key=(condition_index, rep, method_index)
    )
    return int(sequence.generate_state(1, np.uint64)[0])


def _replication(args) -> list:
    """One replication: every method on the same amputed dataset.

    Returns one outcome per method entry, in order: its estimate
    records (in ``moment_parameter_ids`` order) and runtime, or its
    failure message.  ``run_impute`` pins its own BLAS threads; the
    replication's pin also covers generation and pooling, small products
    that a second OpenBLAS thread would only spend CPU on.
    """
    (root_seed, cond_index, rep, cond, methods, settings, deterministic_timer) = args
    with _blas_threads(1):
        timer = time.perf_counter if not deterministic_timer else (lambda: 0.0)
        sequence = np.random.SeedSequence(root_seed, spawn_key=(cond_index, rep))
        gen_child, amp_child = sequence.spawn(2)
        values, roles = generate_complete(cond, np.random.default_rng(gen_child))
        coarse = coarsen(values, roles, cond.categories)
        mar_ids = [j for j, role in enumerate(roles) if role == ROLE_MAR]
        data = ampute(coarse, roles, cond, np.random.default_rng(amp_child), values[:, mar_ids])
        pids = moment_parameter_ids(data.columns_with_role(ROLE_ANALYSIS))
        full_scale = {}
        for pid in pids:
            estimate, _ = estimate_parameter(coarse, pid)
            full_scale[pid] = float(np.tanh(estimate)) if pid.kind == "correlation" else estimate
        outcomes = []
        for method_index, method in enumerate(methods):
            spec = method.spec(settings, method_seed(root_seed, cond_index, rep, method_index))
            started = timer()
            try:
                imputed_set = run_impute(spec, data)
                pooled = analyze_set(imputed_set.completions, pids)
            except Exception as err:  # noqa: BLE001 - failures are data, not crashes
                outcomes.append(
                    f"condition {cond_index}, rep {rep}, method {method.strategy}"
                    f"({method.components_label}): {err}"
                )
                continue
            runtime = timer() - started
            rows = [
                EstimateRecord(
                    n_rows=cond.n_rows,
                    n_cols=cond.n_cols,
                    noise_fraction=cond.noise_fraction,
                    categories=cond.categories,
                    rep=rep,
                    method=method.strategy,
                    n_components=method.n_components,
                    parameter=pid.label(data.names),
                    estimate=pooled[pid].estimate,
                    ci_lower=pooled[pid].ci_lower,
                    ci_upper=pooled[pid].ci_upper,
                    full_estimate=full_scale[pid],
                )
                for pid in pids
            ]
            outcomes.append((rows, runtime))
        return outcomes


def check_run(reps, workers, seed) -> None:
    """Refuse a study's replication count, worker count or root seed if it is not valid."""
    for name, value, least in (("reps", reps, 1), ("workers", workers, 1), ("seed", seed, 0)):
        if not _is_a(value, Integral) or value < least:
            kind = "a positive" if least else "a non-negative"
            raise ValueError(f"{name} must be {kind} integer, got {value!r}")


def run_study(
    conditions,
    methods,
    reps: int,
    seed: int,
    workers: int = 1,
    settings: StudySettings = StudySettings(),
    deterministic_timer: bool = False,
) -> StudyResult:
    """Run the full grid of conditions x methods for ``reps`` replications.

    Within a replication every method imputes the same amputed dataset.
    Replications are independent work items seeded by (seed, condition,
    rep), so any worker count yields the same estimates and metrics;
    only the runtime column varies, and ``deterministic_timer`` pins it
    to zero when byte-stable output matters more than timings.
    Parallelism comes from ``workers``.
    """
    methods = list(methods)
    check_run(reps, workers, seed)
    jobs = [
        (seed, cond_index, rep, cond, methods, settings, deterministic_timer)
        for cond_index, cond in enumerate(conditions)
        for rep in range(reps)
    ]
    if workers == 1:
        outputs = list(map(_replication, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_replication, jobs, chunksize=1))
    estimates, failures = [], []
    for outcome in (outcome for replication in outputs for outcome in replication):
        if isinstance(outcome, str):
            failures.append(outcome)
        else:
            estimates.extend(outcome[0])
    metrics = []
    for start in range(0, len(outputs), reps):  # one condition's replications
        for outcomes in zip(*outputs[start : start + reps]):  # one method entry's
            done = [outcome for outcome in outcomes if not isinstance(outcome, str)]
            # every completed rep lists the same parameters in the same order
            for group in zip(*(rows for rows, _ in done)):
                estimate, lower, upper, full = np.array(
                    [(r.estimate, r.ci_lower, r.ci_upper, r.full_estimate) for r in group]
                ).T
                metrics.append(
                    MetricRecord(
                        **{name: getattr(group[0], name) for name in _SHARED_FIELDS},
                        prb=compute_prb(estimate, full),
                        cic=compute_cic(lower, upper, full),
                        ciw=compute_ciw(lower, upper),
                        runtime_s=float(np.mean([runtime for _, runtime in done])),
                        reps=len(done),
                        failures=reps - len(done),
                    )
                )
    return StudyResult(metrics=metrics, estimates=estimates, failures=failures)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_records(path, record_type, records) -> None:
    """Write dataclass records as CSV, one column per field in declaration order."""
    names = [f.name for f in fields(record_type)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for record in records:
            writer.writerow([_format_cell(getattr(record, name)) for name in names])


def write_metrics_csv(path, metrics: list[MetricRecord]) -> None:
    """Write metric records, one column per ``MetricRecord`` field."""
    _write_records(path, MetricRecord, metrics)


def write_estimates_csv(path, estimates: list[EstimateRecord]) -> None:
    """Write per-replication estimate records, one column per ``EstimateRecord`` field."""
    _write_records(path, EstimateRecord, estimates)
