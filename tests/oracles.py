"""Independent reference implementations used only by the test suite.

Everything here is deliberately written from first principles (scalar
loops, textbook formulas, a hand-rolled eigensolver) so tests compare
the package against routes that share none of its code paths.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import stats

from pcimpute.data import ROLE_AUXILIARY, IncompleteData


def jacobi_eigh(matrix, tol=1e-12, max_sweeps=200):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted in
    nonincreasing order, eigenvectors in matching columns, and each
    eigenvector oriented so its largest-magnitude entry (lowest index on
    ties) is positive.
    """
    a = np.array(matrix, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    p = a.shape[0]
    v = np.eye(p)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off <= tol:
            break
        for i in range(p - 1):
            for j in range(i + 1, p):
                if abs(a[i, j]) <= 1e-30:
                    continue
                tau = (a[j, j] - a[i, i]) / (2.0 * a[i, j])
                if tau >= 0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(p)
                rot[i, i] = c
                rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(-np.diag(a), kind="stable")
    eigenvalues = np.diag(a)[order].copy()
    vectors = v[:, order].copy()
    for col in range(p):
        lead = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[lead, col] < 0:
            vectors[:, col] = -vectors[:, col]
    return eigenvalues, vectors


def correlation_eigen_jacobi(matrix):
    """Correlation-matrix eigendecomposition via the Jacobi route.

    Standardization and the correlation matrix are rebuilt here with
    two-pass scalar arithmetic, independent of the package.
    """
    x = np.asarray(matrix, dtype=float)
    n, p = x.shape
    std = np.empty_like(x)
    for j in range(p):
        mu = twopass_mean(x[:, j])
        var = twopass_variance(x[:, j])
        std[:, j] = (x[:, j] - mu) / math.sqrt(var)
    corr = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            corr[i, j] = float(np.dot(std[:, i], std[:, j])) / (n - 1)
    return jacobi_eigh(corr)


def twopass_mean(x):
    """Mean via explicit accumulation."""
    total = 0.0
    for value in np.asarray(x, dtype=float).ravel():
        total += float(value)
    return total / len(np.asarray(x).ravel())


def twopass_variance(x):
    """Sample variance (denominator n - 1) via a second pass."""
    x = np.asarray(x, dtype=float).ravel()
    mu = twopass_mean(x)
    total = 0.0
    for value in x:
        total += (float(value) - mu) ** 2
    return total / (len(x) - 1)


def twopass_covariance(x, y):
    """Sample covariance (denominator n - 1) via a second pass."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    mx = twopass_mean(x)
    my = twopass_mean(y)
    total = 0.0
    for a, b in zip(x, y):
        total += (float(a) - mx) * (float(b) - my)
    return total / (len(x) - 1)


def pearson_r(x, y):
    """Pearson correlation from the two-pass moments."""
    return twopass_covariance(x, y) / math.sqrt(twopass_variance(x) * twopass_variance(y))


def pinv_least_squares(design, y):
    """Least-squares coefficients via the Moore-Penrose pseudoinverse."""
    return np.linalg.pinv(np.asarray(design, dtype=float)) @ np.asarray(y, dtype=float)


def pool_reference(estimates, variances, kind, n_rows):
    """Step-by-step pooling recomputation on the pooling scale.

    Returns a dict with keys estimate, within, between, total, df,
    ci_lower, ci_upper; correlation inputs are taken to be on the
    Fisher-z scale already and the interval is NOT back-transformed.
    """
    m = len(estimates)
    if m < 2:
        raise ValueError("need at least two imputations")
    qbar = sum(float(e) for e in estimates) / m
    within = sum(float(v) for v in variances) / m
    between = sum((float(e) - qbar) ** 2 for e in estimates) / (m - 1)
    total = within + (1.0 + 1.0 / m) * between
    k = 2 if kind in ("covariance", "correlation") else 1
    df_complete = n_rows - k
    if between == 0.0:
        df = float(df_complete)
    else:
        lam = (1.0 + 1.0 / m) * between / total
        df_old = (m - 1) / lam**2
        df_obs = (df_complete + 1.0) / (df_complete + 3.0) * df_complete * (1.0 - lam)
        df = df_old * df_obs / (df_old + df_obs)
    half = stats.t.ppf(0.975, df) * math.sqrt(total)
    return {
        "estimate": qbar,
        "within": within,
        "between": between,
        "total": total,
        "df": df,
        "ci_lower": qbar - half,
        "ci_upper": qbar + half,
    }


def prb_reference(method_estimates, full_estimates):
    """Percent relative bias with the truth taken as the full-data mean."""
    phi = twopass_mean(full_estimates)
    if phi == 0.0:
        raise ValueError("zero reference value")
    return abs(twopass_mean(method_estimates) - phi) / abs(phi) * 100.0


def ciw_reference(lowers, uppers):
    """Average confidence-interval width, one pair per replication."""
    widths = [float(u) - float(lo) for lo, u in zip(lowers, uppers)]
    return sum(widths) / len(widths)


def cic_reference(lowers, uppers, full_estimates):
    """Coverage of the full-data mean by the per-replication intervals."""
    phi = twopass_mean(full_estimates)
    hits = sum(1 for lo, u in zip(lowers, uppers) if float(lo) <= phi <= float(u))
    return hits / len(lowers)


def complete_rows_scan(mask):
    """Brute-force scan for fully observed rows."""
    out = []
    mask = np.asarray(mask, dtype=bool)
    for i in range(mask.shape[0]):
        if all(bool(mask[i, j]) for j in range(mask.shape[1])):
            out.append(i)
    return out


def auc_pair_count(scores, labels):
    """AUC by counting concordant pairs, ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes")
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


def quantile_bin_scan(column, n_cat):
    """Empirical equal-probability bin codes 1..n_cat via a literal scan.

    Cut points are the k/n_cat empirical quantiles; a value's code is
    one plus the number of cut points it strictly exceeds.
    """
    column = np.asarray(column, dtype=float)
    cuts = [float(np.quantile(column, k / n_cat)) for k in range(1, n_cat)]
    codes = np.empty(len(column))
    for i, value in enumerate(column):
        code = 1
        for cut in cuts:
            if value > cut:
                code += 1
        codes[i] = code
    return codes


def nearest_donors_full_sort(pred_obs, pred_mis, donors):
    """pmm donor lists from a stable argsort of the full n_mis x n_obs gap matrix.

    Equal gaps keep observed-row order, so ties go to the lower index.
    """
    pred_obs = np.asarray(pred_obs, dtype=float)
    pred_mis = np.asarray(pred_mis, dtype=float)
    gaps = np.abs(pred_obs[None, :] - pred_mis[:, None])
    return np.argsort(gaps, axis=1, kind="stable")[:, :donors]


def load_csv_reference(path, na_token="NA"):
    """The earlier ``load_csv``: the whole file read into a list, then numpy cell by cell.

    Kept to pin the messages and their row-major order.  It knows nothing
    of a byte-order mark, and a bad header reaches the container's
    unlabelled message.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    p = len(header)
    values = np.empty((len(rows), p), dtype=float)
    mask = np.ones((len(rows), p), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != p:
            raise ValueError(
                f"{path}: data row {i + 1} has {len(row)} fields, expected {p}"
            )
        for j, cell in enumerate(row):
            if cell == na_token:
                values[i, j] = np.nan
                mask[i, j] = False
                continue
            try:
                parsed = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: data row {i + 1}, column {header[j]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not np.isfinite(parsed):
                raise ValueError(
                    f"{path}: data row {i + 1}, column {header[j]!r}: "
                    f"non-finite value {cell!r}"
                )
            values[i, j] = parsed
    empty = np.flatnonzero(~mask.any(axis=0))
    if empty.size:
        raise ValueError(
            f"{path}: column {header[int(empty[0])]!r} has no observed values"
        )
    return IncompleteData(values=values, mask=mask, names=list(header), roles=[ROLE_AUXILIARY] * p)


def write_csv_reference(path, values, names, na_token="NA"):
    """The earlier ``write_csv``: every cell through ``repr`` and ``csv.writer``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(names))
        for row in np.asarray(values, dtype=float).tolist():
            writer.writerow([na_token if math.isnan(value) else repr(value) for value in row])


def pairwise_select_reference(values, mask, target):
    """The earlier quickpred screen: a loop over the columns, two ``np.std``-style
    correlations each (on the pairwise rows, and with the target's missingness
    indicator on the candidate's rows), degenerate ones counting zero."""

    def safe_corr(a, b):
        if a.size < 2:
            return 0.0
        sa = a.std()
        sb = b.std()
        if sa == 0.0 or sb == 0.0:
            return 0.0
        return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))

    target_mask = mask[:, target]
    indicator = (~target_mask).astype(float)
    strength = np.full(values.shape[1], -np.inf)
    for k in range(values.shape[1]):
        if k == target:
            continue
        both = mask[:, k] & target_mask
        r_value = safe_corr(values[both, k], values[both, target])
        rows_k = mask[:, k]
        r_indicator = safe_corr(values[rows_k, k], indicator[rows_k])
        strength[k] = max(abs(r_value), abs(r_indicator))
    return strength
