"""Container and CSV I/O for incomplete numeric datasets.

A dataset is a matrix of floats plus an explicit observedness mask.
Missing cells are carried as NaN in the value matrix, but the mask is
the source of truth: a cell is missing exactly when its mask entry is
False.  Every column carries a name and a role tag used by the
imputation strategies to split the matrix into the analysis block, the
known missingness predictors, and the auxiliary columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

ROLE_ANALYSIS = "analysis-target"
ROLE_MAR = "mar-predictor"
ROLE_AUXILIARY = "auxiliary"
ROLES = (ROLE_ANALYSIS, ROLE_MAR, ROLE_AUXILIARY)

DEFAULT_NA_TOKEN = "NA"


@dataclass(eq=False)
class IncompleteData:
    """Rectangular dataset with per-cell observedness.

    Parameters
    ----------
    values : ndarray, shape (n_rows, n_cols)
        Float matrix.  Observed cells must be finite; missing cells
        must hold NaN.
    mask : ndarray of bool, shape (n_rows, n_cols)
        True where the cell is observed.
    names : list of str
        Unique column names, one per column.
    roles : list of str
        Column role tags, each one of ``ROLES``.
    """

    values: np.ndarray
    mask: np.ndarray
    names: list[str]
    roles: list[str]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        n, p = self.values.shape
        if n < 1:
            raise ValueError("dataset needs at least one row")
        if p < 2:
            raise ValueError("dataset needs at least two columns")
        if self.mask.shape != self.values.shape:
            raise ValueError("mask shape does not match values shape")
        self.names = [str(s) for s in self.names]
        self.roles = [str(s) for s in self.roles]
        if len(self.names) != p:
            raise ValueError("need exactly one name per column")
        if len(set(self.names)) != p:
            raise ValueError("column names must be unique")
        if len(self.roles) != p:
            raise ValueError("need exactly one role per column")
        for role in self.roles:
            if role not in ROLES:
                raise ValueError(f"unknown column role {role!r}")
        if not np.isfinite(self.values[self.mask]).all():
            raise ValueError("observed cells must be finite")
        if self.mask.size and not np.isnan(self.values[~self.mask]).all():
            raise ValueError("missing cells must be NaN in the value matrix")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_matrix(
        cls,
        values: np.ndarray,
        names: list[str] | None = None,
        roles: list[str] | None = None,
    ) -> "IncompleteData":
        """Build a dataset from a float matrix, deriving the mask from NaN.

        Columns default to names ``x1..xp`` and the auxiliary role.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        if np.isinf(values).any():
            raise ValueError("values must be finite or NaN")
        p = values.shape[1]
        if names is None:
            names = [f"x{j + 1}" for j in range(p)]
        if roles is None:
            roles = [ROLE_AUXILIARY] * p
        return cls(values=values, mask=~np.isnan(values), names=list(names), roles=list(roles))

    def with_roles(
        self,
        analysis: list[str] = (),
        mar: list[str] = (),
    ) -> "IncompleteData":
        """Return a copy with roles reassigned by column name.

        Columns named in ``analysis`` become analysis targets, columns in
        ``mar`` become missingness predictors, and every other column is
        auxiliary.  Unknown or doubly assigned names raise ValueError.
        """
        overlap = set(analysis) & set(mar)
        if overlap:
            raise ValueError(f"columns assigned to two roles: {sorted(overlap)}")
        index = {name: j for j, name in enumerate(self.names)}
        roles = [ROLE_AUXILIARY] * self.n_cols
        for role, group in ((ROLE_ANALYSIS, analysis), (ROLE_MAR, mar)):
            for name in group:
                if name not in index:
                    raise ValueError(f"no column named {name!r}")
                roles[index[name]] = role
        return replace(self, roles=roles)

    def columns_with_role(self, role: str) -> np.ndarray:
        """Indices of the columns carrying ``role``, ascending."""
        if role not in ROLES:
            raise ValueError(f"unknown column role {role!r}")
        return np.array([j for j, r in enumerate(self.roles) if r == role], dtype=int)

    def incomplete_columns(self) -> np.ndarray:
        """Indices of columns with at least one missing cell, ascending."""
        return np.flatnonzero(~self.mask.all(axis=0))


def complete_case_rows(data: IncompleteData) -> np.ndarray:
    """Indices of rows with every cell observed, ascending."""
    return np.flatnonzero(data.mask.all(axis=1))


def load_csv(path, na_token: str = DEFAULT_NA_TOKEN) -> IncompleteData:
    """Read an incomplete dataset from a CSV file.

    The file must be UTF-8 with a header row of unique column names.
    Cells equal to ``na_token`` are missing; every other cell must parse
    as a finite float with ``.`` as the decimal separator.  All columns
    start with the auxiliary role; use ``with_roles`` to reassign.

    Raises
    ------
    ValueError
        On an empty file, a ragged row (reported by data-row number), an
        unparseable or non-finite cell (reported by row and column), or
        a column with no observed values.
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


def write_csv(
    path,
    values: np.ndarray,
    names: list[str],
    na_token: str = DEFAULT_NA_TOKEN,
) -> None:
    """Write a float matrix as CSV, rendering NaN cells as ``na_token``.

    Floats are written with ``repr`` so a load/write/load cycle
    reproduces every value bit for bit.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(names))
        for row in np.asarray(values, dtype=float).tolist():
            writer.writerow([na_token if math.isnan(value) else repr(value) for value in row])
