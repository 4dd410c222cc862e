"""CSV emission and round-trip parsing for experiment output.

Comments are '#'-prefixed lines before the header row.  Floats are written
with shortest round-trip decimals so a re-read reproduces the exact binary
values; booleans become true/false, infinities inf/-inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        # float() strips subclasses such as np.float64, whose repr is wrapped
        return repr(float(value))
    try:
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


def write_rows(stream, comments, columns, rows) -> None:
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(format_cell(v) for v in row) + "\n")


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
