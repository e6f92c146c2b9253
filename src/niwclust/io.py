"""Rectangular numeric CSV reading and writing.

Numbers are emitted with 17 significant digits so a write/read round
trip reproduces every float64 bit-exactly.  Leading lines starting with
'#' carry run metadata and are skipped on read; an optional single
header row is detected by a non-numeric first data line.

Reading has two paths that return the same table.  The bulk path finds
the blank lines, the comment lines and the header with the rules above,
then parses every data line in one ``np.loadtxt`` call (no quote
character, no comment character).  Where both accept a cell, loadtxt
and Python's ``float`` agree bit for bit, and loadtxt accepts no cell
that ``float`` rejects.  Everything else goes to the per-row
``csv.reader`` path: a comment or header line holding a quote, a data
line loadtxt rejects, and a width that differs from the header's.  That
path alone raises ParseError, RaggedRows and EmptyTable, and it reads
the cell forms only ``float`` accepts ('1_0', non-ASCII digits).

Writing formats each row with one '%.17g' template, and each of the
first few distinct rows once (a settled chain's co-clustering matrix
has a handful of distinct rows).
"""

import csv
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyTable, ParseError, RaggedRows

__all__ = ["CsvTable", "read_csv", "write_csv"]

# write_csv keeps the lines of at most this many distinct rows, so the
# memory it holds stays O(width).
_LINES = 8


class CsvTable(NamedTuple):
    values: np.ndarray
    names: Optional[tuple]


def write_csv(path, values, names: Optional[Sequence[str]] = None, metadata: Optional[str] = None) -> None:
    """Write a numeric table, optionally with column names and metadata.

    metadata, when given, becomes a single leading comment line
    ('# ...') that read_csv skips.  names are joined with commas as
    given, unquoted.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    width = values.shape[1]
    template = ",".join(["%.17g"] * width) + "\n"
    with open(path, "w", newline="") as fh:
        if metadata is not None:
            fh.write(f"# {metadata}\n")
        if names is not None:
            if len(names) != width:
                raise ValueError(f"{len(names)} names for {width} columns")
            fh.write(",".join(names) + "\n")
        # a row at a time, so the table is never held as Python floats
        lines = {}  # a row's bytes -> its line, for at most _LINES rows
        for row in values:
            key = row.tobytes()
            line = lines.get(key)
            if line is None:
                line = template % tuple(row.tolist())
                if len(lines) < _LINES:
                    lines[key] = line
            fh.write(line)


def read_csv(path) -> CsvTable:
    """Read a rectangular numeric CSV written by write_csv or by hand.

    Raises
    ------
    ParseError
        On a non-numeric cell (1-based row/column file coordinates), or a
        line that is not UTF-8.  A leading byte-order mark is dropped.
    RaggedRows
        When rows disagree on length.
    EmptyTable
        When the file holds no data rows.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise _undecodable(path) from None
    table = _read_bulk(lines)
    return table if table is not None else _read_rows(lines, path)


def _undecodable(path) -> ParseError:
    """The error for the first line of path that is not UTF-8.  No
    multi-byte character holds a newline byte, so lines decode alone."""
    with open(path, "rb") as fh:
        for row, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(row, None, f"not UTF-8: {exc.reason}")
    raise AssertionError(f"{path} decodes line by line")


def _read_bulk(lines) -> Optional[CsvTable]:
    """The table of lines from one np.loadtxt call, or None.

    None sends the lines to _read_rows, which gives the table or the
    error.
    """
    data = []
    for line in lines:
        head = line.lstrip()
        if head.startswith("#"):
            if '"' in line:  # csv quoting may join it to the next lines
                return None
        elif head:
            data.append(line)
    # loadtxt warns on empty input, and it rejects a data line with a
    # quote, so only a quoted header needs catching here
    if not data or '"' in data[0]:
        return None
    names = None
    cells = data[0].rstrip("\r\n").split(",")
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        names = tuple(cell.strip() for cell in cells)
        del data[0]
        if not data:
            return None
    try:
        values = np.loadtxt(data, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    if names is not None and values.shape[1] != len(names):
        return None
    return CsvTable(values=values, names=names)


def _read_rows(lines, path) -> CsvTable:
    """Parse lines a row at a time with csv.reader; raises on bad input."""
    rows = []
    names = None
    width = None
    reader = csv.reader(lines)
    for cells in _checked(reader):
        line_num = reader.line_num
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        if cells[0].lstrip().startswith("#"):
            continue
        if width is None and names is None:
            try:
                rows.append([_parse_cell(c, line_num, j) for j, c in enumerate(cells)])
                width = len(cells)
            except ParseError:
                names = tuple(c.strip() for c in cells)
                width = len(cells)
            continue
        if len(cells) != width:
            raise RaggedRows(
                f"line {line_num} has {len(cells)} cells, expected {width}"
            )
        rows.append([_parse_cell(c, line_num, j) for j, c in enumerate(cells)])
    if not rows:
        raise EmptyTable(f"{path} holds no data rows")
    return CsvTable(values=np.array(rows, dtype=float), names=names)


def _checked(reader):
    """The rows of a csv.reader; a line the reader itself rejects (a cell
    past its field size limit, say) is a ParseError at its line number."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(reader.line_num, None, str(exc)) from None


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(row, col + 1, text) from None
