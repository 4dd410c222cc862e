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

from npdisclab import csvio  # noqa: E402
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


# -- the float kernel against repr ------------------------------------------------


def written_lines(values):
    """The data lines ``write_rows`` gives a one-column float array."""
    return written([], ["x"], np.asarray(values, dtype=float)[:, None]).splitlines()[1:]


def mismatches(values):
    values = np.asarray(values, dtype=float)
    want = list(map(repr, values.tolist()))
    got = written_lines(values)
    assert len(got) == len(want)
    return [(w, g) for w, g in zip(want, got) if w != g][:5]


def edge_values():
    """Powers of two and ten with their neighbours, small integers, the
    fixed/scientific switch points, subnormals and non-finite values, both signs."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             np.array([float(f"1e{e}") for e in range(-323, 309)])])
    neighbours = [np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
    switches = [1e16, 9999999999999998.0, 1e-4, 1e-5, np.nextafter(1e-4, 0.0),
                np.nextafter(1e16, 0.0), 5e-324, 1e-310, 2.2250738585072009e-308,
                2.2250738585072014e-308, 0.0, np.inf, np.nan, 1.7976931348623157e308]
    values = np.concatenate([powers, *neighbours, np.arange(-5000.0, 5001.0), switches])
    return np.concatenate([values, -values])


def test_kernel_is_repr_on_edge_values():
    assert mismatches(edge_values()) == []


def test_kernel_is_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20240601).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert mismatches(bits.view(np.float64)) == []


def test_kernel_is_repr_on_random_uniform_values():
    # the recipes' values: every decimal exponent between 1e-12 and 1e12, both signs
    rng = np.random.default_rng(7)
    values = rng.uniform(-1.0, 1.0, 50_000) * 10.0 ** rng.integers(-12, 13, 50_000)
    assert mismatches(values) == []


def test_array_and_its_rows_write_the_same_text():
    # float cells of row lists and of a 2-D array take the same kernel, across block edges
    bits = np.random.default_rng(3).integers(0, 2**64, (2 * B + 3, 3), dtype=np.uint64)
    table = bits.view(np.float64)
    columns = ["a", "b", "c"]
    assert written([], columns, table) == written([], columns, table.tolist())


def test_float_cells_of_mixed_columns_take_the_kernel(monkeypatch):
    # a float next to text in one column is still formatted by the kernel
    calls = []
    original = csvio.float_fields
    monkeypatch.setattr(csvio, "float_fields", lambda v: calls.append(len(v)) or original(v))
    assert written([], ["c"], [[0.1], ["x"], [2.5e-7], [3]]) == "c\n0.1\nx\n2.5e-07\n3\n"
    assert calls == [2]


def test_text_with_nul_raises():
    with pytest.raises(ValueError, match="NUL"):
        written([], ["family"], [["a\0b"]])
