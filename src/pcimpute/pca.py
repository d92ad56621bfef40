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

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

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
        kept).  A warm-started solve carries its warm start's value on.
    warm_steps : int
        Filter steps of a warm-started solve; 0 means an exact ``eigh``.
    """

    scores: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    next_eigenvalue: float = 0.0
    warm_steps: int = 0


def _orient(vectors: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors * signs


def _oriented_descending_eigh(corr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigh returns ascending order; flip, then fix each column's sign.
    eigenvalues, vectors = np.linalg.eigh(corr)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], _orient(vectors[:, order])


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
    same block starts from it.
    """

    standardized: np.ndarray
    correlation: np.ndarray
    spread: np.ndarray
    solved: dict[bytes, PcaResult] = field(default_factory=dict)

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
# from the previous solve's weights (Halko, Martinsson & Tropp 2011).
FILTER_DEGREE = 4
FILTER_MARGIN = 1.05  # damped interval [0, FILTER_MARGIN * next eigenvalue]
WARM_MAX_STEPS = 6
WARM_RESIDUAL_TOL = 1e-12  # per column, ||R v - lambda v|| <= tol * lambda_1
WARM_MIN_GAP = 0.25  # relative gap (lambda_q - lambda_{q+1}) / lambda_q
WARM_MAX_SHARE = 0.25  # largest q / n_cols solved warm


def _warm_leading_eigh(
    corr: np.ndarray, previous: PcaResult
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Leading eigenpairs of ``corr`` from ``previous``'s weights, or None if unconverged."""
    # The floor keeps the damped interval open when the block is rank-deficient.
    upper = max(FILTER_MARGIN * previous.next_eigenvalue, 1e-2 * previous.eigenvalues[-1])
    scale = 2.0 / upper
    basis = previous.weights
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
        residual = np.linalg.norm(image @ rotation - basis * values, axis=0)
        # Converged, and every value above the damped interval, as leading ones are.
        if (residual <= WARM_RESIDUAL_TOL * values[0]).all() and values[-1] > upper:
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


def _running_components(
    running: RunningCorrelation, columns: np.ndarray, n_components: int
) -> PcaResult:
    key = columns.tobytes()
    previous = running.solved.get(key)
    corr = running.correlation.take(columns, axis=0).take(columns, axis=1)
    solved = None
    if _warm_start_fits(previous, columns.size, n_components):
        solved = _warm_leading_eigh(corr, previous)
    if solved is not None:
        eigenvalues, weights, steps = solved
        weights = _orient(weights)
        next_eigenvalue = previous.next_eigenvalue
    else:
        spectrum, vectors = _oriented_descending_eigh(corr)
        eigenvalues, weights, steps = spectrum[:n_components], vectors[:, :n_components], 0
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
    )
    running.solved[key] = result
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
    block.  The exact ``eigh`` is used instead when there is none, when
    its count differs, when the gap after the last retained eigenvalue
    is small, when ``n_components`` is large against the block, or when
    the warm solve misses its residual check within its step budget.
    Warm results agree with the exact ones to the residual tolerance,
    not bit for bit.
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
    eigenvalues = correlation_eigenvalues(matrix)
    if rule.method == "kaiser":
        return kaiser_count(eigenvalues)
    if rule.method == "parallel-analysis":
        if rng is None:
            raise ValueError("parallel analysis requires a random generator")
        return parallel_analysis_count(
            eigenvalues,
            matrix.shape[0],
            matrix.shape[1],
            rng,
            replicates=rule.replicates,
            quantile=rule.quantile,
        )
    if rule.method == "optimal-coordinates":
        return optimal_coordinates_count(eigenvalues)
    return acceleration_factor_count(eigenvalues)
