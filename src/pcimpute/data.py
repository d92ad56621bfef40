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
import io
import math
from array import array
from itertools import islice
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

    The file must be UTF-8 (a leading byte-order mark is skipped) with a
    header row of at least two unique column names.  Cells equal to
    ``na_token`` are missing; every other cell must parse as a finite
    float with ``.`` as the decimal separator.  All columns start with
    the auxiliary role; use ``with_roles`` to reassign.  The rows are
    parsed as they are read, into one flat buffer.

    Raises
    ------
    ValueError
        On an empty file, a header with fewer than two columns or a
        repeated name, a ragged row (reported by data-row number), an
        unparseable or non-finite cell (reported by row and column, the
        first in row-major order), or a column with no observed values.
        Every message starts with the path.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        p = len(header)
        if p < 2:
            raise ValueError(f"{path}: the header has {p} column(s); a dataset needs at least two")
        seen = set()
        for name in header:
            if name in seen:
                raise ValueError(f"{path}: column name {name!r} appears twice in the header")
            seen.add(name)
        cells = array("d")
        append, isfinite, nan = cells.append, math.isfinite, math.nan
        n = 0
        for n, row in enumerate(reader, start=1):
            if len(row) != p:
                raise ValueError(f"{path}: data row {n} has {len(row)} fields, expected {p}")
            for cell in row:
                if cell == na_token:
                    append(nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    column = header[len(cells) % p]
                    raise ValueError(
                        f"{path}: data row {n}, column {column!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
                if not isfinite(value):
                    column = header[len(cells) % p]
                    raise ValueError(
                        f"{path}: data row {n}, column {column!r}: non-finite value {cell!r}"
                    )
                append(value)
    if not n:
        raise ValueError(f"{path}: no data rows")
    # A parsed cell is finite, so NaN marks exactly the ``na_token`` cells.
    values = np.frombuffer(cells, dtype=float).reshape(n, p)
    mask = ~np.isnan(values)
    empty = np.flatnonzero(~mask.any(axis=0))
    if empty.size:
        raise ValueError(
            f"{path}: column {header[int(empty[0])]!r} has no observed values"
        )
    return IncompleteData(values=values, mask=mask, names=header, roles=[ROLE_AUXILIARY] * p)


@dataclass(frozen=True)
class _CsvTemplate:
    """A matrix's observed cells, formatted once for every file that shares them.

    ``lines[i]`` is data row i as CSV text with its line ending: finished
    when the row holds no NaN, otherwise a ``%`` format with one ``%s``
    slot per NaN cell (the ``repr`` of a finite float holds no ``%``).
    ``slots[i]`` counts row i's slots, and ``values`` keeps the matrix,
    so a file written from it can be checked to share its observed cells.
    """

    values: np.ndarray
    lines: list[str]
    slots: list[int]


def _csv_template(values: np.ndarray) -> _CsvTemplate:
    """Format every non-NaN cell of ``values`` once; each NaN cell becomes a slot."""
    values = np.array(values, dtype=float)
    lines = [
        ",".join(["%s" if value != value else repr(value) for value in row]) + "\r\n"
        for row in values.tolist()
    ]
    return _CsvTemplate(values, lines, np.isnan(values).sum(axis=1).tolist())


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it beside other fields in a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def _token_bits(na_token: str) -> np.uint64 | None:
    """The bits of the finite float whose ``repr`` is ``na_token``, or None if there is none."""
    try:
        value = float(na_token)
    except ValueError:
        return None
    if not math.isfinite(value) or repr(value) != na_token:
        return None
    return np.array(value).view(np.uint64)[()]


def _cell_label(path, cells: np.ndarray, names: list[str]) -> str:
    """``path``, the data row and the column name of the first True cell of ``cells``."""
    i, j = (int(k) for k in np.argwhere(cells)[0])
    return f"{path}: data row {i + 1}, column {names[j]!r}"


def write_csv(
    path,
    values: np.ndarray,
    names: list[str],
    na_token: str = DEFAULT_NA_TOKEN,
    *,
    template: _CsvTemplate | None = None,
) -> None:
    """Write a float matrix as CSV, rendering NaN cells as ``na_token``.

    Floats are written with ``repr`` so a load/write/load cycle
    reproduces every value bit for bit; a ±inf cell, which ``load_csv``
    would refuse, raises ValueError naming its row and column.

    ``template`` (from ``_csv_template`` on a matrix that shares every
    non-NaN cell with ``values``, such as the input of the runs that
    completed it) supplies those cells already formatted, so only the
    cells at its slots are formatted here.  Every non-NaN cell of the
    template must equal the cell of ``values`` bit for bit, or a
    ValueError names the first that differs.  Without it, the template
    is built from ``values`` itself.

    A ValueError is also raised, before the file is opened, when
    ``names`` does not hold one name per column, or when ``na_token`` is
    the ``repr`` of a cell to be written (``"0.0"`` against a 0.0 cell),
    which would read back as missing; a token such as ``"-999"`` is no
    float's ``repr``.
    """
    values = np.asarray(values, dtype=float)
    if len(names) != values.shape[1]:
        raise ValueError(
            f"{path}: {len(names)} column names for a matrix of {values.shape[1]} columns"
        )
    infinite = np.isinf(values)
    if infinite.any():
        raise ValueError(
            f"{_cell_label(path, infinite, names)}: cannot write non-finite value "
            f"{float(values[infinite][0])!r}"
        )
    if template is None:
        template = _csv_template(values)
    elif template.values.shape != values.shape:
        raise ValueError(
            f"{path}: matrix of shape {values.shape} does not match the template's "
            f"{template.values.shape}"
        )
    slot = np.isnan(template.values)
    changed = (values.view(np.uint64) != template.values.view(np.uint64)) & ~slot
    if changed.any():
        raise ValueError(
            f"{_cell_label(path, changed, names)}: observed cell {float(values[changed][0])!r} "
            f"differs from the template's {float(template.values[changed][0])!r}"
        )
    bits = _token_bits(na_token)
    if bits is not None:
        cells = values.view(np.uint64) == bits
        if cells.any():
            raise ValueError(
                f"{_cell_label(path, cells, names)}: na_token {na_token!r} is the text of "
                "this cell, which would read back as missing"
            )
    token = _csv_field(na_token)
    if values.shape[1] == 1 and not token:
        token = '""'  # csv.writer quotes a lone empty field, so the row is not blank
    fills = iter([token if value != value else repr(value) for value in values[slot].tolist()])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(list(names))
        handle.writelines(
            line % tuple(islice(fills, count)) if count else line
            for line, count in zip(template.lines, template.slots)
        )
