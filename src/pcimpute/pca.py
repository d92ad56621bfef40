"""Principal-component extraction and component-count enumeration.

Components are always extracted from the Pearson correlation matrix of
the input: columns are standardized to mean zero and unit sample
variance first, so scale differences between columns never leak into
the weights.  Weight columns follow a fixed orientation rule (the
largest-magnitude entry is positive, ties resolved by the lowest row
index), which makes the decomposition reproducible bit for bit across
runs on identical input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .imputers import dsyevr

# Component-count rule -> its ``pcimpute enumerate --rule`` tag, in rule order.
ENUMERATION_METHODS = {
    "kaiser": "kaiser",
    "parallel-analysis": "pa",
    "optimal-coordinates": "oc",
    "acceleration-factor": "af",
}


def _is_a(value, kind) -> bool:
    """``isinstance`` that refuses a bool, which Python counts as an integer."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _centres_and_scales(values: np.ndarray, spread: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's mean and sample SD over axis 0; a constant column
    (``spread``, its max - min, is 0) gets its own value and 1.0, so it
    centres to exact zeros even where its mean rounds off that value."""
    flat = spread == 0.0
    centres = np.where(flat, values[0], values.mean(axis=0))
    scales = values.std(axis=0, ddof=1)
    return centres, np.where(flat | (scales == 0.0), 1.0, scales)


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center each column and divide by its sample standard deviation.

    Returns ``(standardized, centers, scales)``.  A constant column gets
    its own value as center and a scale of 1.0, so it standardizes to
    exact zeros.

    Raises
    ------
    ValueError
        If the matrix has fewer than two rows or any non-finite entry.
    """
    standardized, centers, scales, _ = _standardize(matrix)
    return standardized, centers, scales


def _standardize(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``standardize``'s result and each column's spread (max - min), from one pass."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if matrix.shape[0] < 2:
        raise ValueError("standardize needs at least two rows")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must be finite")
    spread = np.ptp(matrix, axis=0)
    centers, scales = _centres_and_scales(matrix, spread)
    return (matrix - centers) / scales, centers, scales, spread


def max_components(n_rows: int, n_cols: int) -> int:
    """Largest extractable component count for a data shape."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("shape must be positive")
    return min(int(n_rows), int(n_cols))


@dataclass(eq=False)
class PcaResult:
    """Output of ``pca``: leading components of a correlation matrix.

    Attributes
    ----------
    scores : ndarray, shape (n_rows, q)
        Component scores, the standardized matrix times ``weights``.
    weights : ndarray, shape (n_cols, q)
        Orthonormal weight columns under the fixed orientation rule.
    eigenvalues : ndarray, shape (q,)
        Leading correlation-matrix eigenvalues, nonincreasing.
    next_eigenvalue : float
        Eigenvalue ``n_components + 1`` (0.0 when every component is
        kept).  A warm-started solve gives its guard column's Ritz value,
        a lower bound on it.
    warm_steps : int
        Filter steps of a warm-started solve; 0 means an exact solve, of
        the leading ``n_components + 1`` pairs (LAPACK ``dsyevr``) or,
        when they are over ``PARTIAL_SOLVE_SHARE`` of the block, of all
        of them (``eigh``).
    basis : ndarray, shape (n_cols, q + 1)
        The weight columns, in either sign, then (below the full block) a
        guard column for eigenvalue ``n_components + 1``: the next
        warm-started solve starts from it.
    """

    scores: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    next_eigenvalue: float = 0.0
    warm_steps: int = 0
    basis: np.ndarray | None = field(default=None, repr=False)


def _orient(vectors: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors * signs


# LAPACK dsyevr (range "I") finds the leading k eigenpairs of an m x m block
# faster than the full eigh while k is a small share of m.  On pcr-vbv blocks
# of the seeded study data, on one OpenBLAS thread (2-vCPU x86-64, OpenBLAS
# 0.3.30), the two crossed near k / m = 0.20 at m = 55 and near 0.145 at
# m = 241 (8 pairs: 0.26 against 0.33 ms at m = 55, 2.5 against 5.2 ms at
# m = 241); above this share the full eigh is used.
PARTIAL_SOLVE_SHARE = 0.15


def _leading_eigh(corr: np.ndarray, n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The leading ``n_pairs`` eigenpairs of ``corr``, values nonincreasing."""
    size = corr.shape[0]
    if n_pairs > PARTIAL_SOLVE_SHARE * size:
        eigenvalues, vectors = np.linalg.eigh(corr)
    else:
        eigenvalues, vectors, _, _, info = dsyevr(
            corr, range="I", lower=1, il=size - n_pairs + 1, iu=size
        )
        if info != 0:
            raise np.linalg.LinAlgError(
                f"dsyevr failed on a {size} x {size} correlation block (info {info})"
            )
        eigenvalues = eigenvalues[:n_pairs]
    # Both return ascending order.
    order = np.argsort(-eigenvalues, kind="stable")[:n_pairs]
    return eigenvalues[order], vectors[:, order]


def _correlation(standardized: np.ndarray) -> np.ndarray:
    n = standardized.shape[0]
    return standardized.T @ standardized / (n - 1)


@dataclass(eq=False)
class RunningCorrelation:
    """Standardized copy of a matrix and its correlation matrix, kept current.

    When one column of the source matrix changes, ``refresh`` recomputes
    that column's statistics, spread (max - min) and standardized values
    and then row and column ``j`` of the correlation matrix from the
    standardized copy, in O(n_rows * n_cols).  Every entry is recomputed
    rather than updated additively, so no rounding drift builds up over
    many refreshes.  ``solved`` holds the last extraction from each
    column block, keyed by ``columns.tobytes()``; the next solve of the
    same block starts from it.  ``latest`` holds the last extraction of
    any block and that block's columns; the first solve of another block
    starts from it.
    """

    standardized: np.ndarray
    correlation: np.ndarray
    spread: np.ndarray
    solved: dict[bytes, PcaResult] = field(default_factory=dict)
    latest: tuple[np.ndarray, PcaResult] | None = None

    @classmethod
    def of(cls, matrix: np.ndarray) -> RunningCorrelation:
        standardized, _, _, spread = _standardize(matrix)
        return cls(standardized, _correlation(standardized), spread)

    def refresh(self, matrix: np.ndarray, column: int) -> None:
        """Bring column ``column`` up to date with ``matrix[:, column]``."""
        values = matrix[:, column]
        self.spread[column] = spread = np.ptp(values)
        center, scale = _centres_and_scales(values, spread)
        self.standardized[:, column] = (values - center) / scale
        row = self.standardized.T @ self.standardized[:, column] / (matrix.shape[0] - 1)
        self.correlation[column, :] = row
        self.correlation[:, column] = row


# Warm-started leading eigensolve: Chebyshev-filtered subspace iteration
# (Zhou, Saad, Tiago & Chelikowsky 2006) with Rayleigh-Ritz, restarted
# from the previous solve's weights (Halko, Martinsson & Tropp 2011) and
# one guard column.  The guard's Ritz value, the largest one outside the
# kept ones, bounds the next solve's damped interval, as in Zhou et al.
# A bound carried on unchanged from a chain's one exact solve, on its
# initial fill, stays too wide: on p = 56 study data lambda_8 read 0.78
# there against 0.47 once the targets were imputed, and warm solves took
# 33-40 % more steps under it.  With the guard, degree 6 spent 15-20 % less
# time than degree 4 in pcr-vbv's PCA at m = 55 and 241 with q = 7, and
# 5-10 % less with q = 1.
FILTER_DEGREE = 6
FILTER_MARGIN = 1.05  # damped interval [0, FILTER_MARGIN * next eigenvalue]
WARM_MAX_STEPS = 6
WARM_RESIDUAL_TOL = 1e-12  # per column, ||R v - lambda v|| <= tol * lambda_1
WARM_MIN_GAP = 0.25  # relative gap (lambda_q - lambda_{q+1}) / lambda_q
WARM_MAX_SHARE = 0.25  # largest q / n_cols solved warm


def _warm_leading_eigh(
    corr: np.ndarray, previous: PcaResult
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Leading q + 1 Ritz pairs of ``corr`` from ``previous``'s basis, the first q
    converged, or None if they are not within the step budget."""
    # The floor keeps the damped interval open when the block is rank-deficient.
    upper = max(FILTER_MARGIN * previous.next_eigenvalue, 1e-2 * previous.eigenvalues[-1])
    scale = 2.0 / upper
    basis = previous.basis
    q = previous.weights.shape[1]
    for step in range(1, WARM_MAX_STEPS + 1):
        # T_d(scale * corr - I) applied to the basis by the three-term recurrence.
        before, current = basis, scale * (corr @ basis) - basis
        for _ in range(FILTER_DEGREE - 1):
            before, current = current, 2.0 * (scale * (corr @ current) - current) - before
        basis, _ = np.linalg.qr(current)
        image = corr @ basis
        values, rotation = np.linalg.eigh(basis.T @ image)
        values, rotation = values[::-1], rotation[:, ::-1]
        basis = basis @ rotation
        residual = np.linalg.norm(image @ rotation[:, :q] - basis[:, :q] * values[:q], axis=0)
        # The kept ones converged, and above the damped interval, as leading ones are.
        if (residual <= WARM_RESIDUAL_TOL * values[0]).all() and values[q - 1] > upper:
            return values, basis, step
    return None


def _warm_start_fits(previous: PcaResult | None, n_cols: int, n_components: int) -> bool:
    if previous is None or previous.weights.shape != (n_cols, n_components):
        return False
    last = previous.eigenvalues[-1]
    return (
        n_components <= WARM_MAX_SHARE * n_cols
        and last > 0.0
        and last - previous.next_eigenvalue >= WARM_MIN_GAP * last
    )


def _warm_start(
    running: RunningCorrelation, columns: np.ndarray, n_components: int
) -> PcaResult | None:
    """The solve to start from: the block's last, else the chain's latest of another
    block of the same width, its basis rows moved onto this block's columns by
    column id (zero for a column new to the block); None if neither fits."""
    previous = running.solved.get(columns.tobytes())
    moved = previous is None and running.latest is not None
    if moved:
        latest_columns, previous = running.latest
    if not _warm_start_fits(previous, columns.size, n_components):
        return None
    if moved:
        position = np.full(running.spread.size, -1)
        position[latest_columns] = np.arange(latest_columns.size)
        rows = position[columns]
        kept = rows >= 0
        basis = np.zeros_like(previous.basis)
        basis[kept] = previous.basis[rows[kept]]
        previous = replace(previous, basis=basis)
    return previous


def _running_components(
    running: RunningCorrelation, columns: np.ndarray, n_components: int
) -> PcaResult:
    previous = _warm_start(running, columns, n_components)
    corr = running.correlation.take(columns, axis=0).take(columns, axis=1)
    solved = None if previous is None else _warm_leading_eigh(corr, previous)
    if solved is not None:
        spectrum, basis, steps = solved
    else:
        # q weights and, below the full block, pair q + 1.
        n_pairs = min(n_components + 1, columns.size)
        spectrum, basis = _leading_eigh(corr, n_pairs)
        steps = 0
    # Each weight column's sign is fixed; the basis keeps the solver's.
    eigenvalues, weights = spectrum[:n_components], _orient(basis[:, :n_components])
    next_eigenvalue = float(spectrum[n_components]) if n_components < spectrum.size else 0.0
    # Scores from the whole standardized matrix, zero weight off the block.
    embedded = np.zeros((running.standardized.shape[1], n_components))
    embedded[columns] = weights
    result = PcaResult(
        scores=running.standardized @ embedded,
        weights=weights,
        eigenvalues=eigenvalues.copy(),
        next_eigenvalue=next_eigenvalue,
        warm_steps=steps,
        basis=basis,
    )
    running.solved[columns.tobytes()] = result
    running.latest = columns, result
    return result


def pca(
    matrix: np.ndarray,
    n_components: int,
    *,
    columns: np.ndarray | None = None,
    running: RunningCorrelation | None = None,
) -> PcaResult:
    """Extract the leading principal components of ``matrix``.

    The decomposition is of the Pearson correlation matrix; scores are
    the standardized input projected onto the retained weight columns,
    so each score column's sample variance equals its eigenvalue.

    Parameters
    ----------
    matrix : ndarray, shape (n_rows, n_cols)
        Finite data matrix with at least two rows.
    n_components : int
        Number of components, ``1 <= n_components <= min(n_rows, n_cols)``
        (``n_cols`` of the selected block when ``columns`` is given).
    columns : ndarray of int, optional
        Extract from the block ``matrix[:, columns]`` only.
    running : RunningCorrelation, optional
        The current standardization and correlation matrix of ``matrix``;
        they are used as they are instead of being recomputed.  Without
        it, fresh state is built from the block, so the solve is exact.

    The solve warm-starts from ``running``'s last solve of the same
    block, or, when the block has none, from its latest solve of any
    block with as many columns and components, whose basis is moved onto
    this block's columns by column id (a column new to the block starts
    at zero) and whose eigenvalues set the start's filter and checks.
    The exact solve is used instead when there is no such solve, when the
    gap after the last retained eigenvalue is small, when
    ``n_components`` is large against the block, or when the warm solve
    misses its residual check within its step budget.  It finds the
    leading ``n_components + 1`` eigenpairs only (LAPACK ``dsyevr``), or
    all of them (``eigh``) when those are over ``PARTIAL_SOLVE_SHARE`` of
    the block.  Warm results agree with the exact ones to the residual
    tolerance, not bit for bit.
    """
    if running is None:
        matrix = np.asarray(matrix, dtype=float)
        running = RunningCorrelation.of(matrix if columns is None else matrix[:, columns])
        columns = None
    if columns is None:
        columns = np.arange(running.correlation.shape[0])
    columns = np.asarray(columns)
    limit = max_components(running.standardized.shape[0], columns.size)
    if not 1 <= int(n_components) <= limit:
        raise ValueError(
            f"n_components must be in [1, {limit}], got {n_components}"
        )
    return _running_components(running, columns, int(n_components))


def correlation_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Full correlation-matrix spectrum of ``matrix``, nonincreasing.

    No eigenvectors are formed: ``eigvalsh`` returns the spectrum in
    ascending order, which is reversed.
    """
    standardized, _, _ = standardize(matrix)
    return np.linalg.eigvalsh(_correlation(standardized))[::-1]


@dataclass(frozen=True)
class EnumerationRule:
    """Component-count rule selector.

    ``method`` is one of ``ENUMERATION_METHODS``; ``replicates`` and
    ``quantile`` only apply to parallel analysis.
    """

    method: str
    replicates: int = 100
    quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.method not in ENUMERATION_METHODS:
            raise ValueError(f"unknown enumeration method {self.method!r}")
        if not _is_a(self.replicates, Integral):
            raise ValueError(f"replicates must be an integer, got {self.replicates!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must lie strictly between 0 and 1")


def kaiser_count(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues strictly greater than one."""
    return int(np.sum(np.asarray(eigenvalues, dtype=float) > 1.0))


def parallel_analysis_count(
    eigenvalues: np.ndarray,
    n_rows: int,
    n_cols: int,
    rng: np.random.Generator,
    replicates: int = 100,
    quantile: float = 0.95,
) -> int:
    """Leading eigenvalues exceeding same-shape standard-normal baselines.

    Each replicate draws an ``n_rows x n_cols`` standard-normal matrix
    and records its correlation spectrum; the comparison threshold per
    position is the requested quantile across replicates.  Counting
    stops at the first position that fails to exceed its threshold.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if replicates < 1:
        raise ValueError(f"replicates must be positive, got {replicates}")
    reference = np.empty((replicates, n_cols))
    for rep in range(replicates):
        noise = rng.standard_normal((n_rows, n_cols))
        reference[rep] = correlation_eigenvalues(noise)
    thresholds = np.quantile(reference, quantile, axis=0)
    count = 0
    for observed, threshold in zip(eigenvalues, thresholds):
        if observed > threshold:
            count += 1
        else:
            break
    return count


def optimal_coordinates_count(eigenvalues: np.ndarray) -> int:
    """Last position whose eigenvalue exceeds the extrapolated coordinate.

    The coordinate for position ``i`` is the linear extrapolation from
    the two following eigenvalues, ``2 * e[i+1] - e[i+2]``.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size < 3:
        raise ValueError("need at least three eigenvalues")
    retained = 0
    for i in range(eigenvalues.size - 2):
        predicted = 2.0 * eigenvalues[i + 1] - eigenvalues[i + 2]
        if eigenvalues[i] > predicted:
            retained = i + 1
    return retained


def acceleration_factor_count(eigenvalues: np.ndarray) -> int:
    """Index preceding the largest second-order difference of the scree."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size < 3:
        raise ValueError("need at least three eigenvalues")
    second = eigenvalues[:-2] - 2.0 * eigenvalues[1:-1] + eigenvalues[2:]
    return int(np.argmax(second)) + 1


def enumerate_components(
    matrix: np.ndarray,
    rule: EnumerationRule,
    rng: np.random.Generator | None = None,
) -> int:
    """Apply a component-count rule to the correlation spectrum of ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    return count_components(correlation_eigenvalues(matrix), matrix.shape[0], rule, rng)


def count_components(
    eigenvalues: np.ndarray,
    n_rows: int,
    rule: EnumerationRule,
    rng: np.random.Generator | None = None,
) -> int:
    """Apply a component-count rule to ``eigenvalues``, the correlation
    spectrum (nonincreasing) of a matrix with ``n_rows`` rows."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if rule.method == "kaiser":
        return kaiser_count(eigenvalues)
    if rule.method == "parallel-analysis":
        if rng is None:
            raise ValueError("parallel analysis requires a random generator")
        return parallel_analysis_count(
            eigenvalues,
            n_rows,
            eigenvalues.size,
            rng,
            replicates=rule.replicates,
            quantile=rule.quantile,
        )
    if rule.method == "optimal-coordinates":
        return optimal_coordinates_count(eigenvalues)
    return acceleration_factor_count(eigenvalues)
