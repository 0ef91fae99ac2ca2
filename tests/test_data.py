import json
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsurv import data
from latentsurv.cli import main
from latentsurv.data import (
    MISSING_TOKENS,
    CovariateBlock,
    Dataset,
    ParseError,
    Survival,
    adjust_zero_times,
    impute_missing,
    load_dataset,
    make_split,
    variance_filter,
    zscore_block,
    _read_matrix,
    _read_matrix_fast,
    _read_matrix_rows,
)
from latentsurv.serialize import write_dataset
from tests.conftest import count_calls, make_dataset, make_survival, traced_peak


def write_manifest(tmp_path, blocks, survival_rows, delim=","):
    """blocks: list of (name, kind, b, header_ids, rows) with rows = [(feat, cells...)]."""
    manifest = {"blocks": [], "survival": "surv.csv"}
    for name, kind, b, ids, rows in blocks:
        path = tmp_path / f"{name}.csv"
        lines = ["feature" + delim + delim.join(ids)]
        lines += [delim.join([r[0]] + [str(c) for c in r[1:]]) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        manifest["blocks"].append({"name": name, "kind": kind, "b": b, "path": f"{name}.csv"})
    (tmp_path / "surv.csv").write_text(
        "sample_id,time_days,event\n" + "\n".join(survival_rows) + "\n")
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    return mpath


class TestLoadDataset:
    def test_two_blocks_three_shared_samples(self, tmp_path):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2", "s3"],
              [("f1", 1.0, 2.0, 3.0), ("f2", 0.5, 0.5, 0.5)]),
             ("b", "binomial", 1, ["s1", "s2", "s3"],
              [("g1", 0, 1, 0)])],
            ["s1,5.0,1", "s2,3.0,0", "s3,1.0,1"])
        ds = load_dataset(mpath)
        assert ds.n_samples == 3
        assert len(ds.blocks) == 2
        assert ds.sample_ids == ("s1", "s2", "s3")
        np.testing.assert_array_equal(ds.blocks[0].values[0], [1.0, 2.0, 3.0])

    def test_event_encoding(self, tmp_path):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, 2.0)])],
            ["s1,5.0,1", "s2,3.0,0"])
        ds = load_dataset(mpath)
        assert ds.events()[0] == 1.0
        assert ds.events()[1] == 0.0

    def test_missing_sample_dropped_with_warning(self, tmp_path, caplog):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2", "s3"], [("f1", 1.0, 2.0, 3.0)]),
             ("b", "normal", 1, ["s1", "s2"], [("g1", 0.1, 0.2)])],
            ["s1,5.0,1", "s2,3.0,0", "s3,1.0,1"])
        with caplog.at_level("WARNING"):
            ds = load_dataset(mpath)
        assert ds.n_samples == 2
        assert "s3" not in ds.sample_ids
        assert any("dropped" in r.message for r in caplog.records)

    def test_non_numeric_cell_raises_with_location(self, tmp_path):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, "oops")])],
            ["s1,5.0,1", "s2,3.0,0"])
        with pytest.raises(ParseError, match="oops"):
            load_dataset(mpath)

    @pytest.mark.parametrize("cell", ["-inf", "1e400"])
    def test_infinite_cell_raises_with_location(self, tmp_path, cell):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, 2.0), ("f2", 0.5, cell)])],
            ["s1,5.0,1", "s2,3.0,0"])
        with pytest.raises(ParseError, match=re.escape(
                f"a.csv:3: non-finite cell {cell!r} (column 3)")):
            load_dataset(mpath)

    def test_first_faulty_line_reported(self, tmp_path):
        """Rows are checked in file order: an infinity on line 3 is reported
        before a non-numeric cell on line 5 and a short row on line 6."""
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, 2.0), ("f2", 0.5, "inf"),
                                               ("f3", 1.0, 2.0), ("f4", "oops", 2.0),
                                               ("f5", 1.0)])],
            ["s1,5.0,1", "s2,3.0,0"])
        with pytest.raises(ParseError,
                           match=re.escape("a.csv:3: non-finite cell 'inf' (column 3)")):
            load_dataset(mpath)

    def test_read_matrix_peak_memory(self, rng, tmp_path):
        """One loadtxt pass fills the matrix without a list of row arrays
        beside it, so reading a 200 x 3000 block peaks under 2x its matrix,
        and loading it, which hands the parsed matrix to the block, does too."""
        ds = make_dataset(rng, N=3000, d_x_normal=200)
        manifest = write_dataset(ds, tmp_path, "wide")
        (_, _, matrix), peak = traced_peak(_read_matrix, tmp_path / "wide_norm.csv")
        assert matrix.tobytes() == ds.blocks[0].values.tobytes()
        assert peak < 2 * matrix.nbytes
        loaded, peak = traced_peak(load_dataset, manifest)
        assert loaded.blocks[0].values.tobytes() == matrix.tobytes()
        assert peak < 2 * matrix.nbytes

    def test_subset_peak_memory(self, rng):
        """A subset takes each block's columns into one fresh array, which the
        block keeps without a copy, so taking 2400 of a 200 x 3000 block's
        columns peaks under 1.5x the subset's matrix."""
        ds = make_dataset(rng, N=3000, d_x_normal=200)
        idx = rng.permutation(3000)[:2400]
        sub, peak = traced_peak(ds.subset, idx)
        values = sub.blocks[0].values
        assert values.tobytes() == ds.blocks[0].values[:, idx].tobytes()
        assert not values.flags.writeable
        assert peak < 1.5 * values.nbytes

    def test_duplicate_sample_ids_raise(self, tmp_path):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s1"], [("f1", 1.0, 2.0)])],
            ["s1,5.0,1"])
        with pytest.raises(ParseError, match="duplicate"):
            load_dataset(mpath)

    def test_missing_survival_dropped(self, tmp_path, caplog):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, 2.0)])],
            ["s1,5.0,1", "s2,nan,0"])
        with caplog.at_level("WARNING"):
            ds = load_dataset(mpath)
        assert ds.sample_ids == ("s1",)

    def test_tab_delimited(self, tmp_path):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, 2.0)])],
            ["s1,5.0,1", "s2,3.0,0"], delim="\t")
        ds = load_dataset(mpath)
        assert ds.n_samples == 2

    def test_missing_tokens_masked(self, tmp_path):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2", "s3"], [("f1", 1.0, "NA", 3.0),
                                                     ("f2", "+nan", 2.0, "-nan")])],
            ["s1,5.0,1", "s2,3.0,0", "s3,1.0,1"])
        ds = load_dataset(mpath)
        np.testing.assert_array_equal(np.isnan(ds.blocks[0].values),
                                      [[False, True, False], [True, False, True]])

    @pytest.mark.parametrize("row, cells", [("s2,3.0", 2), ("s2,3.0,0,x", 4)])
    def test_survival_row_cell_count_checked(self, tmp_path, row, cells):
        mpath = write_manifest(
            tmp_path,
            [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, 2.0)])],
            ["s1,5.0,1", row])
        with pytest.raises(ParseError, match=f"surv.csv:3: expected 3 cells, got {cells}"):
            load_dataset(mpath)


def _cells(n, tokens, numbers):
    """n cells: all drawn from tokens and numbers, so that whole files load, or
    each one also from arbitrary text."""
    valid = st.one_of(st.sampled_from(tokens), numbers.map(repr))
    return st.one_of(st.lists(valid, min_size=n, max_size=n),
                     st.lists(st.one_of(valid, st.text(max_size=6)), min_size=n, max_size=n))


TIME_CELLS = _cells(4, ["0", "1", " 2.5 ", "1e300", "5e-324", "nan", "", "-1", "inf", "1e400"],
                    st.floats(min_value=0))
EVENT_CELLS = _cells(4, ["0", "1", "true", "FALSE", "", "2", "-1"], st.integers(0, 1))
BLOCK_CELLS = _cells(8, ["0", "1", "-2", "2.5", "NA", "", "-nan", "inf", "1e300"], st.floats())


def per_cell_reading(cells):
    """One matrix row read cell by cell (strip, a missing token is NaN, else
    float, then the infinity check): its values, or the error message."""
    values = []
    for col, cell in enumerate(cells, start=2):
        token = cell.strip()
        try:
            values.append(np.nan if token.lower() in MISSING_TOKENS else float(token))
        except ValueError:
            return f"non-numeric cell {token!r} (column {col})"
    for col, (cell, value) in enumerate(zip(cells, values), start=2):
        if math.isinf(value):
            return f"non-finite cell {cell.strip()!r} (column {col})"
    return np.array([values])


MATRIX_CELLS = [" 1.5 ", "NaN", "nan", "NA", "", "null", "-0", "1e308", "1_0", "inf", "abc",
                "-nan", "\t2\t", "1e400"]


class TestReadMatrixCells:
    @pytest.mark.parametrize("first", MATRIX_CELLS)
    def test_row_reads_as_per_cell(self, tmp_path, first):
        """Every pair of cells in one row: the matrix is byte-equal to the
        per-cell reading, and a refused cell gets the per-cell message."""
        path = tmp_path / "m.csv"
        for second in MATRIX_CELLS:
            cells = [first, second, "3"]
            path.write_text("feature,s1,s2,s3\nf1," + ",".join(cells) + "\n")
            want = per_cell_reading(cells)
            if isinstance(want, str):
                with pytest.raises(ParseError) as exc:
                    _read_matrix(path)
                assert str(exc.value) == f"{path}:2: {want}"
            else:
                ids, names, matrix = _read_matrix(path)
                assert (ids, names) == (["s1", "s2", "s3"], ["f1"])
                assert matrix.tobytes() == want.tobytes(), cells


def reading(read, path):
    """What one matrix reader makes of ``path``: ids, names, shape and matrix
    bytes, or the ParseError text."""
    try:
        ids, names, matrix = read(path)
    except ParseError as exc:
        return str(exc)
    return ids, names, matrix.shape, matrix.tobytes()


def assert_readers_agree(path):
    """``_read_matrix`` reads ``path`` as the row reader does, and so does the
    one-pass reader unless it refuses the file with a ValueError; returns
    whether it read the file. A warning, such as loadtxt's on a file with no
    data, is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = reading(_read_matrix_rows, path)
        assert reading(_read_matrix, path) == rows
        try:
            fast = _read_matrix_fast(path)
        except ValueError:
            fast = None
    if fast is not None:
        ids, names, matrix = fast
        assert (ids, names, matrix.shape, matrix.tobytes()) == rows
    return fast is not None


LONG_CELL = "0" * 199_999 + "1"

# (case, file text with {d} for the delimiter, read in one pass?)
MATRIX_FILES = [
    ("plain", "feature{d}s1{d}s2\nf1{d}1.5{d}-2\nf2{d}nan{d}3e-5\n", True),
    ("crlf", "feature{d}s1{d}s2\r\nf1{d}1.5{d}-2\r\nf2{d}-nan{d}3\r\n", True),
    ("blank and trailing lines", "feature{d}s1{d}s2\n\nf1{d}1{d}2\n\n\nf2{d}3{d}4\n\n\n", True),
    ("no final line break", "feature{d}s1{d}s2\nf1{d}1{d}2\nf2{d}3{d}4", True),
    ("spaces around names and cells", "feature{d}s1{d}s2\n  f1 {d} 1 {d}2  \n", True),
    ("quoted sample id", 'feature{d}"s{d}1"{d}"s""2"\nf1{d}1{d}2\n', True),
    ("sample id with a line break", 'feature{d}"s\n1"{d}s2\nf1{d}1{d}2\n', True),
    ("row with only a name", "feature{d}s1{d}s2\nf1{d}1{d}2\nf2\n", False),
    ("name and one delimiter", "feature{d}s1\nf1{d}\n", False),
    ("whitespace line", "feature{d}s1{d}s2\nf1{d}1{d}2\n  \n", False),
    ("header only", "feature{d}s1{d}s2\n", False),
    ("header and blank lines", "feature{d}s1{d}s2\n\n\n", False),
    ("empty file", "", False),
    ("blank first line", "\nfeature{d}s1\n", False),
    ("trailing delimiter", "feature{d}s1{d}s2\nf1{d}1{d}2{d}\n", False),
    ("trailing delimiter in every line", "feature{d}s1{d}s2{d}\nf1{d}1{d}2{d}\n", False),
    ("short row", "feature{d}s1{d}s2\nf1{d}1\n", False),
    ("duplicate ids", "feature{d}s1{d}s1\nf1{d}1{d}2\n", False),
    ("quoted name", 'feature{d}s1{d}s2\n"f{d}1"{d}1{d}2\n', False),
    ("quote in a name", 'feature{d}s1\nf"1{d}1\n', False),
    ("name with a line break", 'feature{d}s1\n"f\n1"{d}1\nf2{d}2\n', False),
    ("quoted cell", 'feature{d}s1{d}s2\nf1{d}"1.5"{d}2\n', False),
    ("infinite cell after a bad one", "feature{d}s1\nf1{d}x\nf2{d}inf\n", False),
    ("bad cell after an infinite one", "feature{d}s1\nf1{d}-inf\nf2{d}x\n", False),
    ("no sample ids", "feature\nf1\nf2\n", False),
    # fields longer than csv.field_size_limit(); loadtxt alone would read the cell as 1.0
    ("200 000-character cell", "feature{d}s1{d}s2\nf1{d}1{d}2\nf2{d}" + LONG_CELL + "{d}3\n", False),
    ("200 000-character name", "feature{d}s1\nf1{d}1\n" + "f" * 200_000 + "{d}2\n", False),
    ("200 000-character sample id", "feature{d}s1{d}" + "s" * 200_000 + "\nf1{d}1{d}2\n", False),
]


class TestOnePassReader:
    """The one-pass reader and the row reader give the same ids, names and
    matrix bytes, or the same ParseError text, on files in both delimiters."""

    @pytest.mark.parametrize("delim", [",", "\t"], ids=["comma", "tab"])
    @pytest.mark.parametrize("case, text, one_pass", MATRIX_FILES,
                             ids=[case for case, _, _ in MATRIX_FILES])
    def test_listed_files(self, tmp_path, delim, case, text, one_pass):
        path = tmp_path / "m.csv"
        path.write_bytes(text.format(d=delim).encode())
        assert assert_readers_agree(path) == one_pass

    @pytest.mark.parametrize("text, lineno", [
        ("feature,s1\nf1,1\nf2," + LONG_CELL + "\n", 3),
        ("feature,s1\n" + "f" * 200_000 + ",1\n", 2),
    ], ids=["cell", "name"])
    def test_field_over_the_csv_limit(self, tmp_path, text, lineno):
        """A field the csv module refuses is a ParseError naming its line, not
        a csv.Error; the listed files check that both readers agree on it."""
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:{lineno}: field larger"):
            _read_matrix(path)

    @pytest.mark.parametrize("delim", [",", "\t"], ids=["comma", "tab"])
    def test_every_pair_of_matrix_cells(self, tmp_path, delim):
        path = tmp_path / "m.csv"
        for first in MATRIX_CELLS:
            for second in MATRIX_CELLS:
                path.write_text(delim.join(["feature", "s1", "s2", "s3"]) + "\n"
                                + delim.join(["f1", first, second, "3"]) + "\n")
                assert_readers_agree(path)

    @settings(max_examples=200, deadline=None)
    @given(delim=st.sampled_from([",", "\t"]), newline=st.sampled_from(["\n", "\r\n"]),
           names=st.lists(st.text(max_size=4), min_size=1, max_size=3),
           cells=st.lists(st.one_of(st.sampled_from(MATRIX_CELLS), st.floats().map(repr),
                                    st.text(max_size=4)), min_size=6, max_size=6))
    def test_arbitrary_names_and_cells(self, delim, newline, names, cells):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            lines = [delim.join(["feature", "s1", "s2"])]
            lines += [delim.join([name, *cells[2 * i:2 * i + 2]]) for i, name in enumerate(names)]
            path.write_bytes(newline.join(lines).encode())
            assert_readers_agree(path)

    def test_written_blocks_read_in_one_pass(self, rng, tmp_path, monkeypatch):
        """Every block file write_dataset makes is read without the row
        reader, which would otherwise hide a slower path behind right values."""
        ds = make_dataset(rng, N=30, with_binomial=True, with_multinomial=True)
        calls = count_calls(monkeypatch, data, "_read_matrix_rows")
        back = load_dataset(write_dataset(ds, tmp_path, "clean"))
        assert calls[0] == 0
        for a, b in zip(back.blocks, ds.blocks):
            assert a.values.tobytes() == b.values.tobytes()


class TestLoaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(times=TIME_CELLS, events=EVENT_CELLS, cells=BLOCK_CELLS)
    def test_load_returns_valid_survival_or_parse_error(self, times, events, cells):
        """Arbitrary time, event and block cells: the loader returns finite
        non-negative times and 0/1 events, or a ParseError naming file:line;
        ``fit`` on the same files exits 0 or 2 without a traceback."""
        ids = ["s1", "s2", "s3", "s4"]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            mpath = write_manifest(
                tmp, [("a", "normal", 1, ids, [("f1", *cells[:4]), ("f2", *cells[4:])])],
                [f"{sid},{t},{e}" for sid, t, e in zip(ids, times, events)])
            try:
                ds = load_dataset(mpath)
            except ParseError as exc:
                assert re.match(r"\S+\.csv:\d+: ", str(exc)), str(exc)
            else:
                t, e = ds.times(), ds.events()
                assert np.all(np.isfinite(t) & (t >= 0))
                assert np.all((e == 0) | (e == 1))
                assert not any(np.isinf(blk.values).any() for blk in ds.blocks)
            result = CliRunner().invoke(main, ["fit", "--data", str(mpath), "--dz", "1",
                                               "--out", str(tmp / "model.json")])
            assert result.exit_code in (0, 2), result.output
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                repr(result.exception)


class TestBlockInvariants:
    def test_binomial_support_enforced(self):
        with pytest.raises(ValueError, match="binomial"):
            CovariateBlock(name="x", kind="binomial", b=1,
                           values=[[0.0, 2.0]], feature_names=("f",))

    def test_multinomial_column_sums_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            CovariateBlock(name="x", kind="multinomial", b=1,
                           values=[[1.0, 1.0], [1.0, 0.0]], feature_names=("a", "b"))

    def test_observed_count_cells_checked_beside_nan(self):
        with pytest.raises(ValueError, match="binomial"):
            CovariateBlock(name="x", kind="binomial", b=1,
                           values=[[np.nan, 2.0]], feature_names=("f",))
        with pytest.raises(ValueError, match="sum"):
            CovariateBlock(name="x", kind="multinomial", b=1,
                           values=[[np.nan, 1.0], [1.0, 1.0]], feature_names=("a", "b"))

    @pytest.mark.parametrize("cell", [np.inf, -np.inf])
    def test_infinite_cells_rejected(self, cell):
        with pytest.raises(ValueError, match="finite or NaN"):
            CovariateBlock(name="x", kind="normal", b=1, values=[[1.0, cell]],
                           feature_names=("f",))

    @pytest.mark.parametrize("time, event", [([1.0, 2.0], [1]), ([[1.0]], [[1]]),
                                             ([1.0], [2]), ([1.0], [np.nan])])
    def test_survival_shape_and_events_checked(self, time, event):
        with pytest.raises(ValueError):
            Survival(time=time, event=event)

    def test_values_copied_unless_read_only_and_owned(self, rng):
        """A block keeps a read-only, C-contiguous float array that owns its
        data, as the loader hands over; any other array is copied, so the
        caller holds no writable view of what the block holds."""
        owned = rng.standard_normal((3, 4))
        owned.setflags(write=False)
        block = CovariateBlock(name="x", kind="normal", b=1, values=owned,
                               feature_names=("a", "b", "c"))
        assert block.values is owned
        assert replace(block, name="y").values is owned
        fortran = np.asfortranarray(rng.standard_normal((3, 4)))
        fortran.setflags(write=False)
        for values in (rng.standard_normal((3, 4)), owned[:, :2], fortran):
            block = CovariateBlock(name="x", kind="normal", b=1, values=values,
                                   feature_names=("a", "b", "c"))
            assert not np.shares_memory(block.values, values)
            assert not block.values.flags.writeable and block.values.flags.c_contiguous
            np.testing.assert_array_equal(block.values, values)

    def test_survival_columns_stored_read_only(self, rng):
        ds = make_dataset(rng, N=5)
        assert ds.times() is ds.survival.time and ds.events() is ds.survival.event
        assert not ds.times().flags.writeable and not ds.events().flags.writeable

    def test_survival_negative_time_rejected(self, tmp_path):
        for time in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Survival(time=[time], event=[1])
        # read from a file, the error names the file and the line
        for time in ("-1.0", "inf"):
            mpath = write_manifest(
                tmp_path,
                [("a", "normal", 1, ["s1", "s2"], [("f1", 1.0, 2.0)])],
                ["s1,5.0,1", f"s2,{time},0"])
            with pytest.raises(ParseError, match=f"surv.csv:3: invalid time {time}"):
                load_dataset(mpath)


class TestVarianceFilter:
    def test_keeps_top_fraction(self, rng):
        values = np.vstack([np.full(5, i) + rng.standard_normal(5) * (i + 1)
                            for i in range(10)])
        block = CovariateBlock(name="x", kind="normal", b=1, values=values,
                               feature_names=tuple(f"f{i}" for i in range(10)))
        out = variance_filter(block, 0.3)
        assert out.d_x == 3
        var = values.var(axis=1)
        expected = set(np.argsort(-var, kind="stable")[:3])
        assert {int(n[1:]) for n in out.feature_names} == {int(i) for i in expected}

    def test_constant_features_tie_by_index(self):
        block = CovariateBlock(name="x", kind="normal", b=1,
                               values=np.ones((4, 3)),
                               feature_names=("f0", "f1", "f2", "f3"))
        out = variance_filter(block, 0.5)
        assert out.feature_names == ("f0", "f1")

    def test_fraction_one_identity(self, rng):
        block = CovariateBlock(name="x", kind="normal", b=1,
                               values=rng.standard_normal((4, 5)),
                               feature_names=("a", "b", "c", "d"))
        out = variance_filter(block, 1.0)
        np.testing.assert_array_equal(out.values, block.values)

    def test_idempotent(self, rng):
        block = CovariateBlock(name="x", kind="normal", b=1,
                               values=rng.standard_normal((10, 6)),
                               feature_names=tuple(f"f{i}" for i in range(10)))
        once = variance_filter(block, 0.4)
        twice = variance_filter(once, 1.0)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_bad_fraction(self, rng):
        block = CovariateBlock(name="x", kind="normal", b=1,
                               values=rng.standard_normal((2, 3)),
                               feature_names=("a", "b"))
        with pytest.raises(ValueError):
            variance_filter(block, 0.0)


class TestImputeMissing:
    def test_feature_over_threshold_dropped(self):
        values = np.arange(40, dtype=float).reshape(2, 20)
        values[0, :3] = np.nan  # 15% missing
        block = CovariateBlock(name="x", kind="normal", b=1, values=values,
                               feature_names=("f0", "f1"))
        out = impute_missing(block, 0.10)
        assert out.feature_names == ("f1",)

    def test_mean_imputation(self):
        values = np.array([[1.0, np.nan, 3.0]])
        block = CovariateBlock(name="x", kind="normal", b=1, values=values,
                               feature_names=("f",))
        out = impute_missing(block, max_missing_fraction=0.5)
        assert out.values[0, 1] == 2.0

    def test_no_missing_identity(self, rng):
        values = rng.standard_normal((3, 5))
        block = CovariateBlock(name="x", kind="normal", b=1, values=values,
                               feature_names=("a", "b", "c"))
        assert impute_missing(block) is block

    def test_observed_entries_bit_identical(self, rng):
        values = rng.standard_normal((4, 30))
        mask = rng.random((4, 30)) < 0.05
        masked = values.copy()
        masked[mask] = np.nan
        block = CovariateBlock(name="x", kind="normal", b=1, values=masked,
                               feature_names=tuple("abcd"))
        out = impute_missing(block)
        assert np.array_equal(out.values[~mask], values[~mask])

    def test_count_rounding_ties_toward_zero(self):
        # observed mean 0.5 -> tie -> rounds toward zero
        values = np.array([[0.0, 1.0, np.nan]])
        block = CovariateBlock(name="x", kind="binomial", b=1, values=values,
                               feature_names=("f",))
        out = impute_missing(block, max_missing_fraction=0.5)
        assert out.values[0, 2] == 0.0

    @pytest.mark.parametrize("kind", ["normal", "binomial"])
    def test_all_missing_feature_dropped_at_fraction_one(self, kind):
        values = np.array([[np.nan, np.nan, np.nan],
                           [1.0, np.nan, 0.0]])
        block = CovariateBlock(name="x", kind=kind, b=1, values=values,
                               feature_names=("gone", "kept"))
        out = impute_missing(block, max_missing_fraction=1.0)
        assert out.feature_names == ("kept",)
        assert out.values.tolist() == [[1.0, 0.5 if kind == "normal" else 0.0, 0.0]]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_fill_rule(self, n):
        """The fill is the nearest integer to the observed mean, ties toward
        zero, at most b: the floor/ceil/tie rule written out in full."""
        b = 4
        for k in range(b * n + 1):
            # n observed cells whose mean is k/n, then one missing cell
            observed = [b] * (k // b) + ([k % b] if k % b else [])
            observed += [0] * (n - len(observed))
            block = CovariateBlock(name="x", kind="binomial", b=b,
                                   values=np.array([observed + [np.nan]], dtype=float),
                                   feature_names=("f",))
            mean = np.mean(observed)
            expected = math.floor(mean + 0.5) if mean >= 0 else math.ceil(mean - 0.5)
            if abs(mean - math.trunc(mean)) == 0.5:
                expected = math.trunc(mean)
            expected = min(max(expected, 0), b)
            assert impute_missing(block, max_missing_fraction=0.5).values[0, -1] == expected

    def test_multinomial_columns_renormalized(self):
        values = np.array([[1.0, np.nan],
                           [0.0, 0.0],
                           [0.0, 0.0]])
        block = CovariateBlock(name="x", kind="multinomial", b=1, values=values,
                               feature_names=("a", "b", "c"))
        out = impute_missing(block, max_missing_fraction=0.6)
        np.testing.assert_allclose(out.values.sum(axis=0), 1.0)


class TestAdjustZeroTimes:
    def test_worked_example(self):
        out = adjust_zero_times(make_survival([0, 5, 10], [1, 1, 1]))
        assert list(out.time) == [0.5, 5, 10]

    def test_identity(self):
        surv = make_survival([1, 2], [1, 0])
        out = adjust_zero_times(surv)
        assert list(out.time) == [1, 2]

    def test_two_zeros(self):
        out = adjust_zero_times(make_survival([0, 0, 3], [1, 0, 1]))
        assert list(out.time) == pytest.approx([0.3, 0.3, 3])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            adjust_zero_times(make_survival([0, 0], [1, 1]))

    def test_order_preserved_and_positive(self, rng):
        times = np.concatenate([[0.0], rng.uniform(0.1, 9, size=20)])
        out = adjust_zero_times(make_survival(times, np.ones(21)))
        new = out.time
        assert np.all(new > 0)
        pos = times > 0
        assert np.array_equal(np.argsort(new[pos]), np.argsort(times[pos]))


class TestMakeSplit:
    def test_default_sizes(self):
        plan = make_split(100, seed=0)
        assert len(plan.test_indices) == 25
        assert [len(f) for f in plan.folds] == [15] * 5

    def test_small_case(self):
        plan = make_split(8, test_fraction=0.25, n_folds=2, seed=1)
        assert len(plan.test_indices) == 2
        assert sorted(len(f) for f in plan.folds) == [3, 3]

    def test_determinism(self):
        assert make_split(50, seed=7) == make_split(50, seed=7)

    def test_partition_property(self):
        plan = make_split(53, seed=3)
        everything = list(plan.test_indices) + [i for f in plan.folds for i in f]
        assert sorted(everything) == list(range(53))

    def test_learning_indices_excludes_fold_and_test(self):
        plan = make_split(40, seed=2)
        learn = set(plan.learning_indices(0))
        assert learn.isdisjoint(plan.folds[0])
        assert learn.isdisjoint(plan.test_indices)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_split(5, n_folds=5, seed=0)


def test_zscore_block(rng):
    block = CovariateBlock(name="x", kind="normal", b=1,
                           values=rng.standard_normal((3, 50)) * 4 + 2,
                           feature_names=("a", "b", "c"))
    out = zscore_block(block)
    np.testing.assert_allclose(out.values.mean(axis=1), 0, atol=1e-12)
    np.testing.assert_allclose(out.values.std(axis=1), 1, atol=1e-12)


def test_dataset_subset_alignment(rng):
    from tests.conftest import make_dataset
    ds = make_dataset(rng, N=10)
    sub = ds.subset([3, 1, 7])
    assert sub.sample_ids == ("s3", "s1", "s7")
    np.testing.assert_array_equal(sub.blocks[0].values[:, 0], ds.blocks[0].values[:, 3])
    assert sub.times()[1] == ds.times()[1] and sub.events()[1] == ds.events()[1]
