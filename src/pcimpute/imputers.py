"""Univariate draws for one incomplete column given complete predictors.

Two imputer kinds are provided.  The Bayesian normal imputer draws the
residual variance from its scaled inverse chi-square posterior and the
coefficients from their conditional normal posterior, then samples from
the posterior predictive.  On predictors centred on their means the
intercept is drawn around the outcome's mean, unridged, and the slopes
around a ridge-stabilized least-squares solution, so the draw does not
depend on where a predictor's values sit.  Predictive-mean matching reuses the same single
parameter draw to score observed and missing rows alike, then hands
each missing row the observed outcome of one of its nearest neighbors
in predicted-mean space.

Donors are found without an n_mis x n_obs gap matrix: the observed
predictions are sorted once, each missing prediction is placed among
them by binary search, and the 2k sorted neighbours around that place
are ranked by gap and then by observed-row index.  Their first k are
the donors, and the k-th of them sets the k-th smallest gap.  The
candidates with a gap no larger than that one form a contiguous run of
the sorted order, which lies inside the 2k neighbours unless exact ties
at the k-th gap carry it past their edge.  Only then is the run's
extent found by binary search over the whole order and the run ranked
again, so the donors are exactly those of a stable sort of every gap.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from types import ModuleType

import numpy as np


def _load_flapack() -> ModuleType:
    """scipy's LAPACK wrappers, the extension ``scipy.linalg._flapack``, without ``scipy.linalg``.

    ``scipy.linalg.lapack`` re-exports this extension's routines, so these are
    the same function objects, from the same library and its OpenBLAS.  But
    importing them from there first runs ``scipy.linalg``'s package init,
    which sets up the array API over numpy's namespace and so loads
    ``numpy.f2py``, ``numpy.testing`` and more: over half of a command's
    import time.  The extension is registered under its own name, so a later
    ``import scipy.linalg`` reuses it.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy  # scipy's own platform set-up, which its extensions expect

    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(
            f"no {name} extension in {directory} (scipy {scipy.__version__})", name=name
        )
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
# The one binding site of every LAPACK routine the package calls (``pca`` takes dsyevr).
dpotrf, dsyevr, dtrtrs = _flapack.dpotrf, _flapack.dsyevr, _flapack.dtrtrs

IMPUTER_BAYES = "bayesian-normal"
IMPUTER_PMM = "pmm"
IMPUTER_KINDS = (IMPUTER_BAYES, IMPUTER_PMM)

DEFAULT_RIDGE = 1e-5
DEFAULT_DONORS = 5
_TINY = float(np.finfo(float).tiny)


@dataclass(eq=False)
class LinearModelDraw:
    """One posterior draw of a normal linear model.

    ``coefficients`` holds the intercept first, then one slope per
    predictor; ``residual_sd`` is strictly positive.
    """

    coefficients: np.ndarray
    residual_sd: float

    def mean(self, x: np.ndarray) -> np.ndarray:
        """Predicted means ``intercept + x @ slopes`` of the rows of ``x``."""
        return self.coefficients[0] + x @ self.coefficients[1:]


@dataclass(frozen=True, eq=False)
class StaticBlock:
    """The draw's products of its first k columns, made once for the draws that share them.

    ``lower`` is ``L_s``, the lower Cholesky factor of the Gram's ridged
    k x k static block, and ``z`` is ``L_s^-1 X_s'(y - mean(y))``, ``X_s``
    those columns of ``x_obs``; k is ``lower.shape[0]``.
    """

    lower: np.ndarray
    z: np.ndarray
    ridge: float

    @classmethod
    def of(cls, y_obs, x_obs, gram, k: int, ridge: float = DEFAULT_RIDGE) -> StaticBlock:
        """The record of ``x_obs``'s first ``k`` columns, its inputs checked as the draw's are."""
        x, y = _inputs(x_obs, y_obs)
        r = x.shape[1]
        if not 0 < k <= r:
            raise ValueError(f"a static block of {k} columns must lie inside the {r} predictors")
        block = _checked_gram(x, y, ridge, gram, slice(k))[:k, :k]
        lower = _cholesky(block, ridge, 0, r, block)
        return cls(lower, dtrtrs(lower, x[:, :k].T @ (y - y.sum() / y.size), lower=1)[0], ridge)


def _cholesky(block: np.ndarray, ridge: float, before: int, r: int, whole: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of ``block + ridge * I``; ``block`` is not written.

    ``before`` leading minors of the draw's order-``r`` Gram precede the
    block, so a failure names the whole Gram's minor; ``whole``, the Gram
    ``block`` came from, is checked for overflow only then.
    """
    # LAPACK factors in place the Fortran-order copy f2py would otherwise make.
    # It reads the lower triangle (a Gram refreshed in place need not be
    # bitwise symmetric); ``clean`` zeroes the upper one.
    ridged = np.array(block, order="F")
    ridged.flat[:: len(ridged) + 1] += ridge  # the diagonal, in either memory order
    lower, info = dpotrf(ridged, lower=1, clean=1, overwrite_a=1)
    if info != 0:  # the order of the block's first leading minor that is not positive
        if not np.isfinite(whole).all():
            raise ValueError("non-finite regression coefficients: X'X or X'y overflowed")
        raise np.linalg.LinAlgError(
            f"ridged Gram is not positive definite (leading minor {before + info} of {r})"
        )
    return lower


def _checked_gram(x: np.ndarray, y: np.ndarray, ridge: float, gram, finite: slice) -> np.ndarray:
    """``gram``, formed when None, once the inputs pass; ``finite`` picks the checked columns."""
    r = x.shape[1]
    if x.shape[0] != y.shape[0]:
        raise ValueError("predictor and outcome row counts differ")
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge!r}")
    if gram is not None and np.shape(gram) != (r, r):
        raise ValueError(f"gram must be {r} x {r} for {r} predictors, got shape {np.shape(gram)}")
    if not (np.isfinite(x[:, finite]).all() and np.isfinite(y).all()):
        raise ValueError("design and outcome must be finite")
    if gram is not None:
        return np.asarray(gram, dtype=float)
    centred = x - x.mean(axis=0)
    return centred.T @ centred


def _solve(x: np.ndarray, y: np.ndarray, ridge: float, gram, noise, static=None):
    """The ridged slopes of ``y ~ 1 + x`` on centred predictors, and ``L^-T noise``.

    ``gram`` is ``xc' xc``, the unridged cross-product of ``x``'s centred
    columns (formed when None); this is the one place ``ridge * I`` is
    added.  ``L``, the lower Cholesky factor of ``xc' xc + ridge * I``, is
    never assembled.  With a ``static`` block of k columns it is
    ``[[L_s, 0], [W', L_b]]`` (Golub & Van Loan, *Matrix Computations*,
    4th ed., section 4.2): ``L_s`` and ``z_s = L_s^-1 X_s'(y - mean(y))``
    come from the ``StaticBlock``, ``W = L_s^-1 G_sb`` from one triangular
    solve, and ``L_b`` factors the border's Schur complement
    ``G_bb + ridge I - W'W``.  Without one ``L_b`` is one ``dpotrf`` of the
    whole Gram.  The border's ``z_b = L_b^-1 (X_b'(y - mean(y)) - W' z_s)``
    completes ``z = L^-1 x'(y - mean(y))``, and one back-solve of
    ``[z, noise]`` through ``L_b`` and then ``L_s`` gives the slopes
    ``L^-T z`` and the noise map ``L^-T noise`` together.  A failure names
    the first leading minor of the whole ridged Gram that is not positive.

    Returns ``(solved, lower)``: ``solved`` is r x 2, the slopes and then
    ``L^-T noise``, and ``lower`` is ``L_b``, the whole factor when there
    is no static block.  The unridged intercept in ``x``'s coordinates,
    ``mean(y) - mean(x) @ slopes``, is the mean of ``y - x @ slopes``.
    """
    r = x.shape[1]
    k = 0 if static is None else static.lower.shape[0]
    if static is not None:
        if gram is None:
            raise ValueError("a static block needs the gram it was made from")
        if static.ridge != ridge:
            raise ValueError(f"static block made at ridge {static.ridge!r}, not {ridge!r}")
        if k > r:
            raise ValueError(f"gram's static block of {k} columns must lie inside its {r}")
    # The static block's cells were checked as its record was made.
    matrix = _checked_gram(x, y, ridge, gram, slice(k, None))
    # The centred outcome sums to zero, so x' (y - mean) is the centred cross product.
    outcome = y - y.sum() / y.size
    solved = np.empty((r, 2))
    solved[:, 1] = noise
    lower = np.empty((0, 0))  # no border
    # LAPACK refuses an empty system, so an empty block skips its solves.
    if k < r:
        border, cross = matrix[k:, k:], x[:, k:].T @ outcome
        if k:
            w = dtrtrs(static.lower, matrix[:k, k:], lower=1)[0]
            border = border - w.T @ w
            cross -= w.T @ static.z
        lower = _cholesky(border, ridge, k, r, matrix)
        solved[k:, 0] = dtrtrs(lower, cross, lower=1)[0]
        solved[k:] = dtrtrs(lower, solved[k:], lower=1, trans=1)[0]
    if k:
        solved[:k, 0] = static.z
        if k < r:
            solved[:k] -= w @ solved[k:]
        solved[:k] = dtrtrs(static.lower, solved[:k], lower=1, trans=1)[0]
    # The inputs are finite, so a non-finite factor or solution can only come
    # from products that overflowed; one O(r) check covers both.
    if not np.isfinite(solved).all():
        raise ValueError("non-finite regression coefficients: X'X or X'y overflowed")
    return solved, lower


def _inputs(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("predictor matrix must be 2-d")
    return x, np.asarray(y, dtype=float).ravel()


def _missing_rows(x_mis, r: int) -> np.ndarray:
    """``x_mis`` as a 2-d float array of ``r`` predictor columns, or a ``ValueError`` naming it."""
    x_mis = np.asarray(x_mis, dtype=float)
    if x_mis.ndim != 2 or x_mis.shape[1] != r:
        raise ValueError(f"x_mis must be n x {r} (the predictor count), got shape {x_mis.shape}")
    return x_mis


def ridged_least_squares(x: np.ndarray, y: np.ndarray, ridge: float = DEFAULT_RIDGE):
    """Solve the ridge-stabilized normal equations for ``y ~ 1 + x``.

    The slopes are ridged on ``x``'s centred columns; the intercept,
    ``mean(y) - mean(x) @ slopes``, is not.  Returns ``(coefficients,
    cholesky_factor)``, the intercept first, where the factor is the lower
    Cholesky triangle of ``xc' xc + ridge * I`` (``xc``: ``x`` centred), zero above it.
    """
    x, y = _inputs(x, y)
    solved, lower = _solve(x, y, ridge, None, np.zeros(x.shape[1]))
    slopes = solved[:, 0]
    return np.append((y - x @ slopes).mean(), slopes), lower


def draw_linear_params(
    y_obs: np.ndarray,
    x_obs: np.ndarray,
    rng: np.random.Generator,
    ridge: float = DEFAULT_RIDGE,
    gram: np.ndarray | None = None,
    static: StaticBlock | None = None,
) -> LinearModelDraw:
    """Draw linear-model parameters from their posterior.

    The residual variance is RSS over a chi-square draw with
    ``n_obs - r - 1`` degrees of freedom (``r`` predictors).  On the
    predictors centred on their means the intercept is normal around
    ``mean(y)`` with variance ``sigma^2 / n_obs``, and the slopes are
    normal around the ridged least-squares solution with covariance
    ``sigma^2 (Xc'Xc + ridge I)^{-1}``; the draw is then mapped back to
    ``x_obs``'s own coordinates.  So a shift of a predictor column moves
    only the intercept.  The chi-square and then the normal vector are
    drawn first, so the solve that gives the slopes maps the noise too.
    ``gram``, when given, must be ``Xc'Xc`` (up to rounding), never ridged
    by the caller, and is not written: a caller that keeps it across draws
    whose predictors barely change saves its O(n_obs r^2) product.  Draws
    that share ``x_obs``'s first k columns, ``y_obs``, ``ridge`` and the
    Gram's k x k block, as a target's visits do, may share one ``static``
    record of them (``StaticBlock.of``); it saves each the O(k^3 / 3)
    factor of that block, its O(n_obs k) cross product with ``y_obs`` and
    the finiteness check of its cells.

    Raises
    ------
    ValueError
        Naming ``ridge`` when it is negative or not finite, and ``gram`` or
        ``static`` when it does not fit the draw; with an
        "overparameterized imputation model" message when the degrees of
        freedom are not positive, and with a "non-finite regression
        coefficients" message when ``X'X`` or ``X'y`` overflowed.
    numpy.linalg.LinAlgError
        A ``ValueError`` too, naming the leading minor at which the
        ridged Gram is not positive definite.
    """
    x_obs, y_obs = _inputs(x_obs, y_obs)
    n_obs, r = x_obs.shape
    df = n_obs - r - 1
    if df <= 0:
        raise ValueError(
            f"overparameterized imputation model: {r} predictors with "
            f"{n_obs} observed cases leaves {df} degrees of freedom"
        )
    chi2 = rng.chisquare(df)
    noise = rng.standard_normal(r + 1)
    solved = _solve(x_obs, y_obs, ridge, gram, noise[1:], static)[0]
    # One pass over x_obs: the fit of the slopes, and of their shift L^-T z[1:].
    fits = x_obs @ solved
    offsets = y_obs - fits[:, 0]
    level = offsets.sum() / n_obs
    residuals = offsets - level
    # An exact fit draws sigma 0; the floor keeps the residual SD positive.
    residual_sd = max(math.sqrt(float(residuals @ residuals) / chi2), _TINY)
    drawn = solved[:, 0] + residual_sd * solved[:, 1]
    # On centred predictors the intercept is mean(y) + sigma z[0] / sqrt(n); in
    # x_obs's coordinates it is less mean(x) @ drawn, which is mean(y - x @ drawn).
    intercept = level + residual_sd * (noise[0] / math.sqrt(n_obs) - fits[:, 1].sum() / n_obs)
    return LinearModelDraw(np.concatenate(([intercept], drawn)), residual_sd)


def draw_predictive(
    params: LinearModelDraw,
    x_mis: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the posterior predictive at the missing rows, ``x_mis``: 2-d, one column per slope."""
    x_mis = _missing_rows(x_mis, params.coefficients.shape[0] - 1)
    return params.mean(x_mis) + params.residual_sd * rng.standard_normal(x_mis.shape[0])


def _finite_vector(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds a non-finite value")
    return values


def _first_true(holds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the first position in ``[lo, hi)`` where ``holds`` is true, else ``hi``.

    ``holds`` maps an array of positions to booleans and must be false
    then true over each row's range; the search bisects all rows at once.
    """
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        found = holds(mid) | (mid >= hi)
        hi = np.where(found, mid, hi)
        lo = np.where(found, lo, mid + 1)
    return lo


def nearest_donors(
    pred_obs: np.ndarray,
    pred_mis: np.ndarray,
    donors: int,
) -> np.ndarray:
    """Indices of the ``donors`` observed rows nearest each missing row.

    Rows are ranked by absolute predicted-mean gap, and exact ties
    resolve to the lower observed-row index, as a stable sort of every
    gap would rank them.  Returns an array of shape
    ``(len(pred_mis), donors)``.

    The gap ``|s - v|`` to a missing prediction ``v`` falls and then
    rises along the sorted observed predictions ``s``, so the candidates
    form one contiguous run of that order (see the module docstring).
    Each row ranks only its 2k sorted neighbours: time is
    O(n_obs log n_obs + n_mis (log n_obs + k log k)) and memory
    O(n_obs + n_mis k).  Only a row whose run spills past those
    neighbours, where the one just past an edge ties the k-th gap,
    reaches the bisection, which finds both ends of its run in
    O(log n_obs) vectorized rounds; such a row then ranks its whole run,
    so ties among two or more distinct predictions can widen the time
    and memory to the run's length.  A spilling run of one predicted
    value, as under an intercept-only model, takes its k lowest row
    indices without ranking the run.

    Raises
    ------
    ValueError
        When either prediction array is not 1-d or holds a non-finite
        value (the search needs a total order), or when ``donors`` is
        not in [1, number of observed rows].
    """
    pred_obs = _finite_vector(pred_obs, "pred_obs")
    pred_mis = _finite_vector(pred_mis, "pred_mis")
    n_obs = pred_obs.shape[0]
    if not 1 <= donors <= n_obs:
        raise ValueError("donor count must be in [1, number of observed rows]")
    order = np.argsort(pred_obs, kind="stable")
    # One sentinel past the end, an infinite prediction with a row index past
    # every real one, so padded positions always rank last.
    ranked = np.append(pred_obs[order], np.inf)
    row_of = np.append(order, n_obs)
    split = np.searchsorted(ranked, pred_mis)
    width = min(2 * donors, n_obs)
    start = np.clip(split - donors, 0, n_obs - width)
    window = start[:, None] + np.arange(width)
    near = np.abs(ranked[window] - pred_mis[:, None])
    rows = row_of[window]
    # A gap above the k-th ranks after every gap at or below it, so ranking
    # the whole window ranks the run inside it.
    best = np.lexsort((rows, near), axis=1)[:, :donors]
    pools = np.take_along_axis(rows, best, axis=1)
    kth_gap = near[np.arange(pred_mis.shape[0]), best[:, -1]]

    def within(positions):
        return np.abs(ranked[positions] - pred_mis) <= kth_gap

    # The run leaves the window only where the neighbour past an edge ties the
    # k-th gap.  Position -1 and position n_obs are both the sentinel, whose
    # gap is infinite, so an edge at either end of the order never spills.
    spill = np.flatnonzero(within(start - 1) | within(start + width))
    if spill.size == 0:
        return pools
    # ``within`` reads these names, so from here on it tests the spilling rows alone.
    pred_mis, kth_gap, split = pred_mis[spill], kth_gap[spill], split[spill]
    first = _first_true(within, np.zeros_like(split), split)
    stop = _first_true(lambda positions: ~within(positions), split, np.full_like(split, n_obs))
    # A run of one predicted value ties every gap, and the stable sort kept
    # its rows in ascending index order: its first k rows are the donors.
    tied = ranked[first] == ranked[stop - 1]
    pools[spill[tied]] = row_of[first[tied, None] + np.arange(donors)]
    first, stop, rest = first[~tied], stop[~tied], pred_mis[~tied]
    run = first[:, None] + np.arange((stop - first).max(initial=donors))
    run = np.where(run < stop[:, None], run, n_obs)
    gaps = np.abs(ranked[run] - rest[:, None])
    rows = row_of[run]
    best = np.lexsort((rows, gaps), axis=1)[:, :donors]
    pools[spill[~tied]] = np.take_along_axis(rows, best, axis=1)
    return pools


def pmm_impute(
    y_obs: np.ndarray,
    x_obs: np.ndarray,
    x_mis: np.ndarray,
    rng: np.random.Generator,
    donors: int = DEFAULT_DONORS,
    ridge: float = DEFAULT_RIDGE,
    gram: np.ndarray | None = None,
    static: StaticBlock | None = None,
) -> np.ndarray:
    """Impute by predictive-mean matching against observed outcomes.

    A single posterior parameter draw scores observed and missing rows
    with one formula, so identical predictor rows tie exactly; each
    missing row then receives the observed outcome of one donor
    drawn uniformly from its ``donors`` nearest observed rows.  Every
    imputed value is therefore an observed value of the column.
    ``x_mis`` must be 2-d with ``x_obs``'s columns; ``ridge``, ``gram`` and
    ``static`` pass through to ``draw_linear_params``, which refuses them.
    """
    x_obs, y_obs = _inputs(x_obs, y_obs)
    x_mis = _missing_rows(x_mis, x_obs.shape[1])
    params = draw_linear_params(y_obs, x_obs, rng, ridge, gram, static)
    pools = nearest_donors(params.mean(x_obs), params.mean(x_mis), donors)
    picks = rng.integers(donors, size=x_mis.shape[0])
    return y_obs[pools[np.arange(x_mis.shape[0]), picks]]
