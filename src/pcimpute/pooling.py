"""Moment estimation on completed datasets and multiple-imputation pooling.

Estimates are combined across completions with the usual rules: the
pooled point estimate is the mean, the total variance adds the within
mean to the between variance inflated by ``1 + 1/m``, and the reference
t distribution uses the small-sample adjusted degrees of freedom that
shrink toward the complete-data value.  Correlations are pooled on the
variance-stabilized ``atanh`` scale and the interval is mapped back
through ``tanh`` at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# Each kind's short tag (as in ``corr(x1,x2)``) and column count; the
# column count is also the complete-data degrees of freedom it uses up.
PARAMETER_KINDS = {
    "mean": ("mean", 1),
    "variance": ("var", 1),
    "covariance": ("cov", 2),
    "correlation": ("corr", 2),
}


@dataclass(frozen=True)
class ParameterId:
    """A moment of one or two columns of a completed dataset.

    ``kind`` is one of ``PARAMETER_KINDS``; ``columns`` holds one index
    for mean/variance and two distinct indices for covariance and
    correlation.
    """

    kind: str
    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in PARAMETER_KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        _, expected = PARAMETER_KINDS[self.kind]
        if len(self.columns) != expected:
            raise ValueError(f"{self.kind} takes exactly {expected} column(s)")
        if expected == 2 and self.columns[0] == self.columns[1]:
            raise ValueError("two-column parameters need distinct columns")

    def label(self, names: list[str]) -> str:
        """Readable tag such as ``corr(x1,x2)`` for CSV output."""
        short, _ = PARAMETER_KINDS[self.kind]
        inside = ",".join(names[j] for j in self.columns)
        return f"{short}({inside})"


def moment_parameter_ids(column_indices) -> list[ParameterId]:
    """All means, variances, covariances, and correlations of the columns."""
    cols = [int(j) for j in column_indices]
    return [
        ParameterId(kind, columns)
        for kind, (_, count) in PARAMETER_KINDS.items()
        for columns in combinations(cols, count)
    ]


def estimate_parameter(matrix: np.ndarray, pid: ParameterId) -> tuple[float, float]:
    """Point estimate and sampling variance of one moment.

    Returns values on the pooling scale: correlations come back as
    ``atanh(r)`` with variance ``1 / (n - 3)``.  Requires at least four
    rows and, for correlations, positive-variance columns.
    """
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if n < 4:
        raise ValueError("need at least four rows to estimate moments")
    if pid.kind == "mean":
        x = matrix[:, pid.columns[0]]
        return float(x.mean()), float(x.var(ddof=1) / n)
    if pid.kind == "variance":
        x = matrix[:, pid.columns[0]]
        s2 = float(x.var(ddof=1))
        return s2, 2.0 * s2 * s2 / (n - 1)
    x = matrix[:, pid.columns[0]]
    y = matrix[:, pid.columns[1]]
    sx2 = float(x.var(ddof=1))
    sy2 = float(y.var(ddof=1))
    c = float(np.cov(x, y, ddof=1)[0, 1])
    if pid.kind == "covariance":
        return c, (c * c + sx2 * sy2) / (n - 1)
    if sx2 == 0.0 or sy2 == 0.0:
        raise ValueError("correlation of a zero-variance column is undefined")
    r = c / math.sqrt(sx2 * sy2)
    if abs(r) >= 1.0:
        raise ValueError(
            f"correlation of columns {pid.columns} is {r!r}: perfectly collinear "
            "columns have no atanh-scale estimate"
        )
    return math.atanh(r), 1.0 / (n - 3)


@dataclass(eq=False)
class PooledEstimate:
    """Pooled moment with its interval.

    ``estimate``, ``ci_lower``, and ``ci_upper`` are on the reported
    scale (back-transformed for correlations); the variance components
    and degrees of freedom stay on the pooling scale.
    """

    estimate: float
    within_var: float
    between_var: float
    total_var: float
    df: float
    ci_lower: float
    ci_upper: float
    m: int


def rubin_pool(estimates, variances, kind: str, n_rows: int) -> PooledEstimate:
    """Combine per-completion estimates into one pooled estimate.

    Parameters
    ----------
    estimates, variances : sequence of float
        One (estimate, sampling variance) pair per completion, on the
        pooling scale.
    kind : str
        Parameter kind; correlations are back-transformed with ``tanh``.
    n_rows : int
        Analysis sample size, fixing the complete-data degrees of
        freedom at ``n_rows`` minus the kind's column count.

    Raises
    ------
    ValueError
        If the estimates vary across completions while every
        within-completion variance is 0: the degrees of freedom would
        be 0 and the interval undefined.
    """
    if kind not in PARAMETER_KINDS:
        raise ValueError(f"unknown parameter kind {kind!r}")
    estimates = np.asarray(estimates, dtype=float)
    variances = np.asarray(variances, dtype=float)
    m = estimates.shape[0]
    if m < 2:
        raise ValueError("pooling needs at least two completions")
    if variances.shape[0] != m:
        raise ValueError("estimates and variances must pair up")
    qbar = float(estimates.mean())
    within = float(variances.mean())
    between = float(estimates.var(ddof=1))
    total = within + (1.0 + 1.0 / m) * between
    df_complete = n_rows - PARAMETER_KINDS[kind][1]
    if within == 0.0 and between > 0.0:
        raise ValueError(
            f"{kind} estimates vary across completions but every within-completion "
            "variance is 0, so the pooled degrees of freedom collapse to 0"
        )
    if between == 0.0:
        df = float(df_complete)
    else:
        lam = (1.0 + 1.0 / m) * between / total
        df_old = (m - 1) / lam**2
        df_obs = (df_complete + 1.0) / (df_complete + 3.0) * df_complete * (1.0 - lam)
        df = df_old * df_obs / (df_old + df_obs)
    # Imported here, not at module level: `pcimpute impute` never pools.
    from scipy.special import stdtrit

    half = float(stdtrit(df, 0.975)) * math.sqrt(total)
    estimate, lower, upper = qbar, qbar - half, qbar + half
    if kind == "correlation":
        estimate, lower, upper = math.tanh(estimate), math.tanh(lower), math.tanh(upper)
    return PooledEstimate(
        estimate=estimate,
        within_var=within,
        between_var=between,
        total_var=total,
        df=df,
        ci_lower=lower,
        ci_upper=upper,
        m=m,
    )


def analyze_set(completions, pids) -> dict[ParameterId, PooledEstimate]:
    """Estimate and pool each parameter across a set of completed matrices."""
    n_rows = completions[0].shape[0]
    out: dict[ParameterId, PooledEstimate] = {}
    for pid in pids:
        pairs = [estimate_parameter(completion, pid) for completion in completions]
        out[pid] = rubin_pool(
            [e for e, _ in pairs], [v for _, v in pairs], pid.kind, n_rows
        )
    return out
