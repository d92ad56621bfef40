"""Data container and CSV round-trip tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcimpute.data import (
    IncompleteData,
    ROLE_ANALYSIS,
    ROLE_AUXILIARY,
    complete_case_rows,
    load_csv,
    write_csv,
)
from tests.oracles import complete_rows_scan


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestIncompleteData:
    def test_mask_is_source_of_truth(self):
        values = np.array([[1.0, np.nan], [2.0, 3.0]])
        data = IncompleteData.from_matrix(values)
        assert data.mask.tolist() == [[True, False], [True, True]]

    def test_observed_cells_must_be_finite(self):
        values = np.array([[1.0, np.inf], [2.0, 3.0]])
        mask = np.ones((2, 2), dtype=bool)
        with pytest.raises(ValueError, match="finite"):
            IncompleteData(values, mask, ["a", "b"], [ROLE_AUXILIARY] * 2)

    def test_missing_cells_must_be_nan(self):
        values = np.array([[1.0, 5.0], [2.0, 3.0]])
        mask = np.array([[True, False], [True, True]])
        with pytest.raises(ValueError, match="NaN"):
            IncompleteData(values, mask, ["a", "b"], [ROLE_AUXILIARY] * 2)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError, match="two columns"):
            IncompleteData.from_matrix(np.ones((3, 1)))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            IncompleteData.from_matrix(np.ones((3, 2)), roles=["nope", ROLE_AUXILIARY])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            IncompleteData.from_matrix(np.ones((3, 2)), names=["a", "a"])

    def test_with_roles(self):
        data = IncompleteData.from_matrix(np.ones((3, 3)), names=["a", "b", "c"])
        tagged = data.with_roles(analysis=["b"], mar=["c"])
        assert tagged.roles[1] == ROLE_ANALYSIS
        assert tagged.columns_with_role(ROLE_ANALYSIS).tolist() == [1]
        with pytest.raises(ValueError, match="two roles"):
            data.with_roles(analysis=["a"], mar=["a"])
        with pytest.raises(ValueError, match="no column"):
            data.with_roles(analysis=["zz"])

    def test_incomplete_columns_ascending(self):
        values = np.array([[1.0, np.nan, 2.0], [np.nan, 1.0, 2.0]])
        data = IncompleteData.from_matrix(values)
        assert data.incomplete_columns().tolist() == [0, 1]


class TestHelpers:
    def test_complete_case_rows_matches_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            values = rng.standard_normal((15, 4))
            values[rng.random((15, 4)) < 0.3] = np.nan
            values[0] = 1.0  # keep the container valid if a column empties
            data = IncompleteData.from_matrix(values)
            assert complete_case_rows(data).tolist() == complete_rows_scan(data.mask)


class TestCsv:
    def test_load_basic(self, tmp_path):
        path = _write(tmp_path, "a,b\n1.5,NA\n-2e3,0.25\n")
        data = load_csv(path)
        assert data.names == ["a", "b"]
        assert data.values[0, 0] == 1.5
        assert not data.mask[0, 1]
        assert data.values[1, 0] == -2000.0

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"row 2, column 'b'"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_all_missing_column_rejected(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,NA\n2,NA\n")
        with pytest.raises(ValueError, match="'b'"):
            load_csv(path)

    def test_custom_na_token(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,?\n2,3\n")
        data = load_csv(path, na_token="?")
        assert not data.mask[0, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(1, 12),
        n_cols=st.integers(2, 5),
        na_token=st.sampled_from(["NA", "?", "miss"]),
    )
    def test_round_trip_is_bitwise(self, tmp_path_factory, seed, n_rows, n_cols, na_token):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-8, 8)
        values[rng.random((n_rows, n_cols)) < 0.25] = np.nan
        values[0] = rng.standard_normal(n_cols)  # no all-missing columns
        data = IncompleteData.from_matrix(values)
        path = tmp_path_factory.mktemp("roundtrip") / "t.csv"
        write_csv(path, data.values, data.names, na_token=na_token)
        back = load_csv(path, na_token=na_token)
        np.testing.assert_array_equal(back.mask, data.mask)
        np.testing.assert_array_equal(
            back.values[back.mask], data.values[data.mask]
        )
        assert back.names == data.names
