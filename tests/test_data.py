"""Data container and CSV round-trip tests."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcimpute.data import (
    IncompleteData,
    ROLE_ANALYSIS,
    ROLE_AUXILIARY,
    complete_case_rows,
    _csv_template,
    load_csv,
    write_csv,
)
from tests.oracles import complete_rows_scan, load_csv_reference, write_csv_reference


_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 3.0, -7.0, 2.0**60, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _completion_cases(draw):
    """A source matrix with NaN gaps and a completion of it.

    Each cell is observed in both, imputed (NaN in the source only) or
    left missing in both; rows with and without gaps both occur.
    """
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    size = n_rows * n_cols
    cells = np.array(draw(st.lists(_CELLS, min_size=size, max_size=size)))
    kinds = np.array(draw(st.lists(st.sampled_from("oim"), min_size=size, max_size=size)))
    source = np.where(kinds == "o", cells, np.nan).reshape(n_rows, n_cols)
    completion = np.where(kinds == "m", np.nan, cells).reshape(n_rows, n_cols)
    return source, completion


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
        na_token=st.sampled_from(["NA", "?", "miss", "", "a,b"]),
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

    def test_duplicate_header_name_is_labelled(self, tmp_path):
        path = _write(tmp_path, "a,b,a\n1,2,3\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: column name 'a' appears twice")):
            load_csv(path)

    def test_one_column_header_is_labelled(self, tmp_path):
        path = _write(tmp_path, "a\n1\n2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: the header has 1 column(s)")):
            load_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1.5,NA\n2,3\n")
        data = load_csv(path)
        assert data.names == ["a", "b"]
        out = tmp_path / "out.csv"
        write_csv(out, data.values, data.names)
        assert out.read_bytes() == b"a,b\r\n1.5,NA\r\n2.0,3.0\r\n"

    def test_write_refuses_infinite_cell(self, tmp_path):
        path = tmp_path / "inf.csv"
        message = f"{path}: data row 2, column 'b': cannot write non-finite value -inf"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            write_csv(path, np.array([[1.0, 2.0], [3.0, -np.inf]]), ["a", "b"])
        assert not path.exists()

    def test_write_refuses_changed_observed_cell(self, tmp_path):
        source = np.array([[1.0, np.nan], [0.0, 2.0]])
        completion = np.array([[1.0, 4.0], [-0.0, 2.0]])
        path = tmp_path / "changed.csv"
        message = (
            f"{path}: data row 2, column 'a': observed cell -0.0 differs from the template's 0.0"
        )
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            write_csv(path, completion, ["a", "b"], template=_csv_template(source))
        assert not path.exists()

    def test_write_refuses_token_that_is_a_cell_text(self, tmp_path):
        # Written as "0.0", cell (1, a) would read back as missing.
        path = tmp_path / "token.csv"
        values = [[0.0, 1.0], [2.0, 3.0]]
        message = f"{path}: data row 1, column 'a': na_token '0.0' is the text of this cell"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_csv(path, values, ["a", "b"], na_token="0.0")
        assert not path.exists()
        # -999 is no float's repr, so it stays a usable sentinel; -0.0 is not 0.0.
        for token in ("-999", "-0.0"):
            write_csv(path, [[0.0, np.nan], [2.0, 3.0]], ["a", "b"], na_token=token)
            back = load_csv(path, na_token=token)
            np.testing.assert_array_equal(back.mask, [[True, False], [True, True]])

    def test_template_token_check_covers_shared_and_imputed_cells(self, tmp_path):
        template = _csv_template(np.array([[np.nan, 1.0], [2.0, 5.0]]))
        names = ["a", "b"]
        write_csv(tmp_path / "ok.csv", [[4.0, 1.0], [2.0, 5.0]], names, "0.0", template=template)
        path = tmp_path / "imputed.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: data row 1, column 'a'")):
            write_csv(path, [[0.0, 1.0], [2.0, 5.0]], names, "0.0", template=template)
        path = tmp_path / "shared.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: data row 2, column 'b'")):
            write_csv(path, [[4.0, 1.0], [2.0, 5.0]], names, "5.0", template=template)
        assert not path.exists()

    def test_write_refuses_name_count_mismatch(self, tmp_path):
        path = tmp_path / "names.csv"
        message = f"{path}: 2 column names for a matrix of 3 columns"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_csv(path, np.ones((2, 3)), ["a", "b"])
        assert not path.exists()

    @settings(max_examples=80, deadline=None)
    @given(case=_completion_cases(), na_token=st.sampled_from(["", "a,b", 'say "x"', "NA"]))
    @example(case=(np.array([[np.nan], [1.0]]), np.array([[np.nan], [1.0]])), na_token="")
    def test_write_bytes_match_reference(self, tmp_path_factory, case, na_token):
        source, completion = case
        names = [f"c{j}" for j in range(source.shape[1])]
        out = tmp_path_factory.mktemp("bytes")
        write_csv_reference(out / "reference.csv", completion, names, na_token)
        write_csv(out / "plain.csv", completion, names, na_token)
        write_csv(out / "template.csv", completion, names, na_token, template=_csv_template(source))
        expected = (out / "reference.csv").read_bytes()
        assert (out / "plain.csv").read_bytes() == expected
        assert (out / "template.csv").read_bytes() == expected

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from(["1.5", "-0.0", "NA", "oops", "inf", "nan", "1e999"]), min_size=2, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_load_faults_match_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("faults") / "f.csv"
        path.write_text("a,b,c\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        outcomes = []
        for load in (load_csv, load_csv_reference):
            try:
                data = load(path)
            except ValueError as err:
                outcomes.append(str(err))
            else:
                outcomes.append((data.values.tobytes(), data.mask.tobytes(), data.names))
        assert outcomes[0] == outcomes[1]
