"""Rectangular numeric CSV reading and writing.

Numbers are emitted with 17 significant digits so a write/read round
trip reproduces every float64 bit-exactly.  Leading lines starting with
'#' carry run metadata and are skipped on read; an optional single
header row is detected by a non-numeric first data line.
"""

import csv
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import EmptyTable, ParseError, RaggedRows

__all__ = ["CsvTable", "read_csv", "write_csv"]


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
        for row in values:
            fh.write(template % tuple(row.tolist()))


def read_csv(path) -> CsvTable:
    """Read a rectangular numeric CSV written by write_csv or by hand.

    Raises
    ------
    ParseError
        On a non-numeric cell (1-based row/column file coordinates).
    RaggedRows
        When rows disagree on length.
    EmptyTable
        When the file holds no data rows.
    """
    rows = []
    names = None
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for cells in reader:
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


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(row, col + 1, text) from None
