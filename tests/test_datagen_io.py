"""Synthetic data generation and the CSV round trip."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niwclust.datagen import GenSpec, generate
from niwclust.errors import EmptyTable, InvalidSpec, ParseError, RaggedRows
from niwclust.io import _read_bulk, _read_rows, read_csv, write_csv


def test_generation_is_deterministic():
    spec = GenSpec(kind="two_cluster_mixture", n=8, p=5, separation=1.5, seed=4)
    a, ta = generate(spec)
    b, tb = generate(spec)
    assert np.array_equal(a, b)
    assert ta.labels == tb.labels
    assert a.shape == (8, 5)


def test_single_gaussian_truth_is_one_cluster():
    data, truth = generate(GenSpec(kind="single_gaussian", n=6, p=4, seed=0))
    assert data.shape == (6, 4)
    assert truth.k == 1
    assert truth.labels == (1,) * 6


def test_two_cluster_offsets_hit_requested_separation():
    # memberships are iid coin flips; the per-coordinate group mean gap
    # concentrates on the separation value within 3 sigma of the
    # difference of the two group means
    spec = GenSpec(kind="two_cluster_mixture", n=50, p=10, separation=2.0,
                   seed=11)
    data, truth = generate(spec)
    labels = np.asarray(truth.labels)
    sizes = np.bincount(labels)[1:]
    assert sizes.sum() == 50 and sizes.min() >= 1
    gap = np.abs(data[labels == 2].mean(axis=0) - data[labels == 1].mean(axis=0))
    band = 3.0 * np.sqrt(1.0 / sizes[0] + 1.0 / sizes[1])
    assert np.all(np.abs(gap - 2.0) < band)


def test_zero_separation_still_records_components():
    data, truth = generate(GenSpec(kind="two_cluster_mixture", n=9, p=3,
                          separation=0.0, seed=2))
    assert truth.k == 2
    assert data.shape == (9, 3)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        GenSpec(kind="single_gaussian", n=1, p=4)
    with pytest.raises(InvalidSpec):
        GenSpec(kind="single_gaussian", n=4, p=1)
    with pytest.raises(InvalidSpec):
        GenSpec(kind="two_cluster_mixture", n=4, p=4, separation=-1.0)
    with pytest.raises(InvalidSpec):
        GenSpec(kind="three_towers", n=4, p=4)
    with pytest.raises(InvalidSpec, match="unknown kind"):
        GenSpec(kind="k_cluster_mixture", n=4, p=4)


@pytest.mark.parametrize("kind", ["single_gaussian", "two_cluster_mixture"])
@pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
def test_non_finite_separation_rejected(kind, separation):
    with pytest.raises(InvalidSpec, match="separation"):
        GenSpec(kind=kind, n=4, p=4, separation=separation)


def test_read_plain_numeric_csv(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n")
    table = read_csv(path)
    assert table.names is None
    assert np.array_equal(table.values, [[1.0, 2.0], [3.0, 4.0]])


def test_header_and_metadata_roundtrip(tmp_path):
    path = tmp_path / "named.csv"
    write_csv(path, [[1.5, -2.0]], names=("alpha", "beta"),
              metadata="demo run")
    text = path.read_text()
    assert text.startswith("# demo run\n")
    table = read_csv(path)
    assert table.names == ("alpha", "beta")
    assert np.array_equal(table.values, [[1.5, -2.0]])


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    values = rng.standard_normal((20, 30)) * 10.0 ** rng.integers(-8, 9, (20, 30))
    path = tmp_path / "dense.csv"
    write_csv(path, values)
    back = read_csv(path).values
    assert back.shape == values.shape
    assert np.array_equal(back, values)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert err.value.row == 3
    assert err.value.col == 2
    assert "oops" in str(err.value)


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(RaggedRows):
        read_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only metadata\n\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_cells_are_written_as_17_significant_digits(tmp_path):
    tiny = np.nextafter(0.0, 1.0)  # smallest subnormal
    row = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 0.1, -1e300]
    path = tmp_path / "special.csv"
    write_csv(path, [row, row[::-1]], names=[f"c{j}" for j in range(len(row))])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(f"c{j}" for j in range(len(row)))
    for line, cells in zip(lines[1:], [row, row[::-1]]):
        assert line == ",".join(format(float(v), ".17g") for v in cells)


def test_name_count_must_match_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "w.csv", [[1.0, 2.0]], names=("only",))


@given(st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False,
                       width=64), min_size=3, max_size=3),
    min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "prop.csv"
    values = np.array(rows, dtype=float)
    write_csv(path, values)
    assert np.array_equal(read_csv(path).values, np.atleast_2d(values))


def _lines(path):
    with open(path, newline="") as fh:
        return fh.readlines()


def _assert_same_table(a, b):
    assert a.names == b.names
    assert a.values.shape == b.values.shape
    assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
            2.2250738585072009e-308, 1e-310, 1.7976931348623157e308]
_CELLS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(width=64),
    # up to 17 digits at a random decimal exponent, past both ends of
    # the float64 range
    st.builds(lambda m, e: float(f"{m}e{e}"),
              st.integers(-10**17, 10**17), st.integers(-345, 310)),
)


@given(st.integers(1, 6).flatmap(lambda w: st.lists(
           st.lists(_CELLS, min_size=w, max_size=w), min_size=1, max_size=6)),
       st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_bulk_read_equals_per_row_read(tmp_path_factory, rows, named, savetxt):
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    values = np.array(rows, dtype=float)
    names = [f"c{j}" for j in range(values.shape[1])] if named else None
    if savetxt:
        np.savetxt(path, values, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(names) if named else "")
    else:
        write_csv(path, values, names=names, metadata="grid")
    lines = _lines(path)
    assert _read_bulk(lines) is not None  # the bulk path took it
    _assert_same_table(read_csv(path), _read_rows(lines, path))
    assert np.array_equal(read_csv(path).values, values, equal_nan=True)


@pytest.mark.parametrize("text, expected", [
    # cells only float accepts, and a quoted one
    ("1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),
    ("\u0661,2\n", [[1.0, 2.0]]),
    ('"1.5",2\n', [[1.5, 2.0]]),
    ('"a,b",c\n1,2\n', [[1.0, 2.0]]),
    ('"a",b\n1,2\n', [[1.0, 2.0]]),
    # a quote in a comment joins the lines after it into the comment
    ('# a,"b\n1,2\n3,4\n', EmptyTable),
    # no comment character inside a data line
    ("a,b\n1,2#x\n", ParseError),
    ("1,2\n  # note\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n \t \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\r\n1,2\r\n\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    # a trailing comma makes the first row a header with an empty name
    ("1,2,\n3,4,\n", ParseError),
    ("a,b\n1,2,\n", RaggedRows),
    # the data agree on a width the header does not have
    ("a,b,c\n1,2\n3,4\n", RaggedRows),
    ("", EmptyTable),
    ("a,b\n", EmptyTable),
    ("# meta\n\na,b\n\n", EmptyTable),
    # a quoted cell past csv's field size limit (131,072 characters)
    pytest.param('a,b\n1,2\n3,"' + "1" * 140_000 + '"\n', ParseError,
                 id="quoted-cell-past-the-field-size-limit"),
])
def test_edge_cells_read_as_the_per_row_parser_reads_them(tmp_path, text, expected):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, list):
            table = read_csv(path)
            assert np.array_equal(table.values, expected)
            _assert_same_table(table, _read_rows(_lines(path), path))
            return
        with pytest.raises(expected) as bulk:
            read_csv(path)
        with pytest.raises(expected) as rows:
            _read_rows(_lines(path), path)
    assert str(bulk.value) == str(rows.value)
    if expected is ParseError:
        assert (bulk.value.row, bulk.value.col) == (rows.value.row, rows.value.col)


def test_clean_tables_skip_the_per_row_parser(tmp_path, monkeypatch):
    def per_row(lines, path):
        raise AssertionError("per-row parser called")

    monkeypatch.setattr("niwclust.io._read_rows", per_row)
    path = tmp_path / "clean.csv"
    write_csv(path, [[1.0, -0.0], [np.nan, 5e-324]], names=("a", "b"),
              metadata="clean")
    assert read_csv(path).names == ("a", "b")
    np.savetxt(path, [[1.5], [2.5]], fmt="%.17g")
    assert read_csv(path).values.shape == (2, 1)


def test_comment_character_is_a_parse_error_at_its_column(tmp_path):
    path = tmp_path / "hash.csv"
    path.write_text("a,b\n1,2#x\n")
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert (err.value.row, err.value.col, err.value.text) == (2, 2, "2#x")


def _cell_by_cell(rows):
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


_REPEATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.0, -0.0, -np.nan,
            np.inf, 5e-324, -5e-324, np.nan, 0.0]


@pytest.mark.parametrize("rows", [
    # repeats of signed zeros, NaNs of both signs, infinities, subnormals,
    # in narrow and wide rows
    [_REPEATS * 5],
    [_REPEATS],
    [[0.5] * 62 + [-0.0, 0.0]],
    [[0.5] * 63 + [-0.0, 0.0], [-0.0] * 65],
    [np.random.default_rng(3).standard_normal(1000)],
    [[0.1] * 500],
    [[1.0], [-0.0]],
    # co-clustering rows: counts over 150 kept sweeps
    np.random.default_rng(5).integers(0, 151, (40, 80)) / 150.0,
])
def test_rows_are_written_as_formatted_cell_by_cell(tmp_path, rows):
    path = tmp_path / "rows.csv"
    write_csv(path, rows)
    assert path.read_bytes() == _cell_by_cell(rows).encode()


def test_names_and_metadata_lines_are_unchanged(tmp_path):
    path = tmp_path / "named.csv"
    write_csv(path, [[0.0, 0.0], [0.5, -0.0]], names=("sweep", "k"),
              metadata="niwclust | seed=1")
    assert path.read_bytes() == b"# niwclust | seed=1\nsweep,k\n0,0\n0.5,-0\n"
