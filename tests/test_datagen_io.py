"""Synthetic data generation and the CSV round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niwclust.datagen import GenSpec, generate
from niwclust.errors import InvalidSpec, ParseError, RaggedRows
from niwclust.io import read_csv, write_csv


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
