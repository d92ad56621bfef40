"""Shared builders and assertions for the test suite."""

from __future__ import annotations

import numpy as np

from pcimpute.data import ROLE_ANALYSIS, ROLE_AUXILIARY, ROLE_MAR, IncompleteData
from pcimpute.simulation import SimulationCondition, ampute, coarsen, generate_complete


def assert_observed_preserved(data: IncompleteData, completion: np.ndarray) -> None:
    """Every originally observed cell must survive imputation bitwise."""
    assert completion.shape == data.values.shape
    np.testing.assert_array_equal(completion[data.mask], data.values[data.mask])
    assert np.isfinite(completion).all()


def make_incomplete(
    seed: int = 0,
    n_rows: int = 60,
    n_cols: int = 6,
    missing: float = 0.2,
    n_analysis: int = 2,
    n_mar: int = 2,
) -> IncompleteData:
    """Random correlated dataset with missingness on the analysis columns."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n_rows, 1))
    values = 0.8 * base + 0.6 * rng.standard_normal((n_rows, n_cols))
    mask = np.ones((n_rows, n_cols), dtype=bool)
    for j in range(n_analysis):
        gone = rng.random(n_rows) < missing
        gone[:3] = False  # keep a few observed cells per column
        mask[gone, j] = False
    values = values.copy()
    values[~mask] = np.nan
    roles = (
        [ROLE_ANALYSIS] * n_analysis
        + [ROLE_MAR] * n_mar
        + [ROLE_AUXILIARY] * (n_cols - n_analysis - n_mar)
    )
    names = [f"x{j + 1}" for j in range(n_cols)]
    return IncompleteData(values=values, mask=mask, names=names, roles=roles)


def study_dataset(
    seed: int,
    noise_fraction: float = 0.0,
    categories: int | None = None,
    n_rows: int = 500,
    items_per_factor: int = 8,
    factors: int = 7,
):
    """One study replication: (incomplete data, complete matrix, condition)."""
    cond = SimulationCondition(
        n_rows=n_rows,
        factors=factors,
        items_per_factor=items_per_factor,
        noise_fraction=noise_fraction,
        categories=categories,
    )
    root = np.random.SeedSequence(seed)
    gen_child, amp_child = root.spawn(2)
    values, roles = generate_complete(cond, np.random.default_rng(gen_child))
    coarse = coarsen(values, roles, cond.categories)
    mar_ids = [j for j, role in enumerate(roles) if role == ROLE_MAR]
    data = ampute(coarse, roles, cond, np.random.default_rng(amp_child), values[:, mar_ids])
    return data, coarse, cond


def few_observed_target(seed: int = 83, observed: int = 3) -> IncompleteData:
    """n = 40, p = 20 normal data; analysis ``x1``, ``x2``; ``x2`` keeps ``observed`` cells.

    With 3, under ``pcr-aux`` with q = "max", ``x2``'s predictor budget
    (3 - 2 minus its one raw predictor) leaves no room for a component.
    """
    values = np.random.default_rng(seed).standard_normal((40, 20))
    values[observed:, 1] = np.nan
    values[:5, 0] = np.nan
    return IncompleteData.from_matrix(values).with_roles(analysis=["x1", "x2"])


def constant_auxiliary_block(seed: int = 89) -> IncompleteData:
    """n = 40, p = 6; analysis ``x1``, ``x2`` incomplete; ``x3``-``x6`` constant.

    ``pcr-aux`` extracts its components from the constant columns only.
    """
    values = np.random.default_rng(seed).standard_normal((40, 6))
    values[:, 2:] = 1.0
    values[:6, 0] = np.nan
    values[-6:, 1] = np.nan
    return IncompleteData.from_matrix(values).with_roles(analysis=["x1", "x2"])
