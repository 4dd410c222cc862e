"""The block-columnar CSV writer against the row-by-row text it replaces.

``write_rows`` formats each block of ``BLOCK_ROWS`` rows column by column;
the reference below is the row writer it must match byte for byte.  Row
counts straddle the block edges, and tables are built by cycling a few
drawn rows, so a 3B + 7-row table costs little to draw.
"""

import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from npdisclab.csvio import BLOCK_ROWS, format_cell, write_rows  # noqa: E402

B = BLOCK_ROWS
ROW_COUNTS = [0, 1, B - 1, B, B + 1, 3 * B + 7]

EXAMPLES = settings(derandomize=True, max_examples=15, deadline=None)

#: values whose text is easy to get wrong: non-finite, signed zeros,
#: subnormals and the exponent switches of repr
SPECIAL = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
           1.5e-310, -2.2250738585072e-308, 1e16, 1e-5, 1e22, 0.1, 1 / 3]

floats = st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
CELLS = {
    "float": floats,
    "float64": floats.map(np.float64),
    "int": st.integers(min_value=-(2**70), max_value=2**70),
    "int64": st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "npbool": st.booleans().map(np.bool_),
    "str": st.text(alphabet="abcxyz_ -.", max_size=8),
}
CELLS["mixed"] = st.one_of(*CELLS.values())
comments = st.lists(st.text(alphabet="abc =0.5", max_size=12), max_size=2)


def reference(comments, columns, rows):
    """The row-by-row writer's text."""
    out = [f"# {line}\n" for line in comments] + [",".join(columns) + "\n"]
    out += [",".join(map(format_cell, row)) + "\n" for row in rows]
    return "".join(out)


def written(comments, columns, rows):
    buf = io.StringIO()
    write_rows(buf, comments, columns, rows)
    return buf.getvalue()


@st.composite
def tables(draw, n_rows):
    """(columns, rows): a few drawn rows cycled to ``n_rows``, one cell swapped."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    row = st.tuples(*[CELLS[k] for k in kinds]).map(list)
    templates = draw(st.lists(row, min_size=1, max_size=5))
    rows = [list(templates[i % len(templates)]) for i in range(n_rows)]
    if n_rows:
        # one odd cell turns its column's block mixed and leaves the other blocks as they were
        i = draw(st.integers(0, n_rows - 1))
        j = draw(st.integers(0, len(kinds) - 1))
        rows[i][j] = draw(CELLS["mixed"])
    return [f"c{j}" for j in range(len(kinds))], rows


@st.composite
def float_arrays(draw, n_rows):
    width = draw(st.integers(1, 6))
    templates = draw(st.lists(st.lists(floats, min_size=width, max_size=width),
                              min_size=1, max_size=5))
    rows = np.array([templates[i % len(templates)] for i in range(n_rows)],
                    dtype=float).reshape(n_rows, width)
    return [f"c{j}" for j in range(width)], rows


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
@EXAMPLES
@given(data=st.data())
def test_lists_match_row_writer(n_rows, data):
    columns, rows = data.draw(tables(n_rows))
    notes = data.draw(comments)
    assert written(notes, columns, rows) == reference(notes, columns, rows)


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
@EXAMPLES
@given(data=st.data())
def test_float_arrays_match_row_writer(n_rows, data):
    columns, rows = data.draw(float_arrays(n_rows))
    assert written(["x"], columns, rows) == reference(["x"], columns, rows)


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0], [3.0]],
    [[1.0, 2.0, 3.0]],
    [[1.0, 2.0]] * B + [[1.0]],
    np.zeros((3, 3)),
], ids=["short-row", "wide-rows", "short-row-in-second-block", "wide-array"])
def test_ragged_rows_raise(rows):
    with pytest.raises(ValueError, match="cells for 2 columns"):
        written([], ["a", "b"], rows)


def test_empty_header_raises():
    with pytest.raises(ValueError, match="at least one column"):
        written([], [], [[], []])


@pytest.mark.parametrize("text", ["1e5", "Infinity", " 7", "-0"])
def test_text_cells_are_written_verbatim(text):
    # text that would parse as a float is still text, not the float's repr
    assert format_cell(text) == text
    assert written([], ["family"], [[text]]) == f"family\n{text}\n"
