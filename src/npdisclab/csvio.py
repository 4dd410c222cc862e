"""CSV emission and round-trip parsing for experiment output.

Comments are '#'-prefixed lines before the header row.  Floats are written
with shortest round-trip decimals so a re-read reproduces the exact binary
values; booleans (numpy's included) become true/false, integers (numpy's
included) their decimal digits, infinities inf/-inf, and text is written
verbatim, even where it would parse as a number.

:func:`write_rows` formats a table by columns, one block of
:data:`BLOCK_ROWS` rows at a time.  A column of the block whose cells are
all built-in floats is mapped through ``repr``, the text
:func:`format_cell` gives each of them, without its per-cell type tests;
every other column goes cell by cell through :func:`format_cell`.  The
output is the same text as a row-by-row writer's.  The block bounds the
text held in memory at once, and a 2-D array is converted to Python floats
one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: rows formatted and written per block by :func:`write_rows`
BLOCK_ROWS = 4096


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    try:
        # float() strips subclasses such as np.float64, whose repr is wrapped
        return repr(float(value))
    except (TypeError, ValueError):
        return str(value)


def parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _column_text(cells) -> list[str]:
    if set(map(type, cells)) == {float}:
        return list(map(repr, cells))
    return [format_cell(v) for v in cells]


def write_rows(stream, comments, columns, rows) -> None:
    """Write ``comments``, the header and ``rows`` (a sequence of rows or a 2-D array).

    Raises ValueError if the header is empty or a row's width differs from it.
    """
    if not columns:
        raise ValueError("a table needs at least one column")
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(columns) + "\n")
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        if isinstance(block, np.ndarray):
            block = block.tolist()
        widths = set(map(len, block))
        if widths != {len(columns)}:
            raise ValueError(f"rows {start}..{start + len(block) - 1} have "
                             f"{sorted(widths)} cells for {len(columns)} columns")
        texts = [_column_text(cells) for cells in zip(*block)]
        stream.write("\n".join(map(",".join, zip(*texts))) + "\n")


@dataclass
class CsvDocument:
    comments: list[str]
    columns: list[str]
    rows: list[list]


def read_rows(stream) -> CsvDocument:
    """Parse output written by :func:`write_rows` back into values."""
    comments, columns, rows = [], None, []
    for raw in stream:
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
        else:
            rows.append([parse_cell(c) for c in cells])
    if columns is None:
        raise ValueError("no header row found")
    return CsvDocument(comments, columns, rows)
