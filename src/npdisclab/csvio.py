"""CSV emission and round-trip parsing for experiment output.

Comments are '#'-prefixed lines before the header row.  Floats are written
with shortest round-trip decimals so a re-read reproduces the exact binary
values; booleans (numpy's included) become true/false, None (an undecided
verdict) inconclusive, integers (numpy's included) their decimal digits,
infinities inf/-inf, and text is written verbatim, even where it would
parse as a number.

:func:`write_rows` checks, converts and formats a table one
:func:`~npdisclab.row_blocks` slice of rows at a time, at most
``npdisclab.BLOCK_ENTRIES`` cells, as one byte matrix with a row per cell:
the cell's text padded with NUL bytes, then its separator (a comma, or a
newline after the last column).  The text written is the matrix with its
NUL bytes dropped through a boolean mask, so a text cell may not hold a NUL
character.  A block of 2^14 float cells holds 0.9 MiB of 56-byte fields
plus the Schubfach uint64 temporaries, about 3.8 MiB at its peak.

Float cells (``float`` and ``np.float64`` cells of row lists, and every
cell of a float array) go through one numpy kernel, :func:`float_fields`:

- the digits are Schubfach's (R. Giulietti, "The Schubfach way to render
  doubles", 2020; the JDK's ``DoubleToDecimal``): the shortest decimal that
  rounds back to the double, and the closest one of that length, computed
  exactly in uint64 arithmetic from a table of 126-bit powers of ten;
- the layout is ``repr``'s: fixed point for decimal exponents -4..15, with
  ``.0`` when there is no fraction, and ``d.ddde±XX`` otherwise;
- zeros need no special case, while subnormal and non-finite cells are rare
  and take ``repr`` itself.

So a float cell's text is ``repr(float(v))``, the text :func:`format_cell`
gives it, and every other cell takes :func:`format_cell` text: the output
equals a row-by-row ``",".join(map(format_cell, row))`` writer's.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from . import row_blocks

#: bytes per float cell; see :func:`_layout_tables`
FLOAT_FIELD = 56

_U = np.uint64
_1, _2, _10, _32, _63 = _U(1), _U(2), _U(10), _U(32), _U(63)
_LO32, _LO63 = _U(2**32 - 1), _U(2**63 - 1)
_K_MIN, _K_MAX = -324, 292  # Schubfach's decimal scales k of the doubles
_E_MIN, _E_MAX = -324, 308  # decimal exponents of their leading digits


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "inconclusive"
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


@cache
def _g_table() -> tuple:
    """g1, g1 >> 32, g1 & (2^32 - 1), g0 >> 32, g0 & (2^32 - 1) for k = -324..292.

    Schubfach's g(k): 10^-k = beta 2^r with 2^125 <= beta < 2^126, and
    g = floor(beta) + 1 = g1 2^63 + g0.
    """
    powers = [1]
    for _ in range(-_K_MIN):
        powers.append(10 * powers[-1])
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = powers[abs(k)]
        bits = p.bit_length()
        g.append(((1 << (125 + bits)) // p if k > 0 else p << 126 >> bits) + 1)
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & (2**63 - 1) for v in g], dtype=np.uint64)
    return g1, g1 >> _32, g1 & _LO32, g0 >> _32, g0 & _LO32


@cache
def _layout_tables():
    """Lookup tables that lay 17 digits out as ``repr`` does.

    A float field is 56 bytes, written as uint32 and uint64 words:

    - bytes 0..7: a sign and, for exponents -4..-1, ``0.`` and zeros;
    - bytes 11..27: the digits shown before the point;
    - byte 30 the point, bytes 31..47 the digits shown after it;
    - bytes 48..52: the exponent ``e±XX``; byte 55 is left for the separator.

    Both digit runs are written whole; a mask chosen by (digits before the
    point, digits shown) keeps the bytes a value shows.
    """
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    digits = np.concatenate([np.repeat(pairs, 100, 0), np.tile(pairs, (100, 1))], 1)
    quads = digits.view(np.uint32).ravel()  # the 10 000 four-digit groups
    last = ((digits != ord("0")) * np.arange(1, 5, dtype=np.uint8)).max(1)
    # digit count of a 17-digit number whose last nonzero digit is in group i
    sig = [np.where(last > 0, last + np.uint8(1 + 4 * i), np.uint8(0)) for i in range(4)]
    lead = [np.frombuffer(b"".join(p + b"%d" % d for d in range(10)), np.uint32)
            for p in (b"\0\0\0", b"\0\0.")]
    exps = range(_E_MIN, _E_MAX + 1)
    before = np.array([max(e + 1, 0) if -4 <= e < 16 else 1 for e in exps])
    min_shown = np.array([e + 2 if 0 <= e < 16 else 1 for e in exps], np.uint8)
    head = np.frombuffer(b"".join((sign + (b"0." + b"0" * (-e - 1)) * (-4 <= e < 0)).ljust(8, b"\0")
                                  for e in exps for sign in (b"", b"-")), np.uint64)
    tail = np.frombuffer(b"".join((b"e%+03d" % e * (not -4 <= e < 16)).ljust(8, b"\0")
                                  for e in exps), np.uint64)
    b, s = np.divmod(np.arange(17 * 18), 18)
    j = np.arange(17)
    mask = np.zeros((b.size, FLOAT_FIELD), np.uint8)
    mask[:, :8] = mask[:, 48:] = 255
    mask[:, 11:28] = 255 * (j < b[:, None])
    mask[:, 30] = 255 * ((b >= 1) & (s > b))
    mask[:, 31:48] = 255 * ((j >= b[:, None]) & (j < s[:, None]))
    return quads, sig, lead, before, min_shown, head, tail, mask.view(np.uint64)


def _rop(g, cp):
    """Schubfach's rop(g cp 2^-127), g = g1 2^63 + g0, as the JDK computes it.

    Only the high 64 bits of g0 cp are kept before rounding to odd; an exact
    round-to-odd of the whole product differs from ``repr`` on some doubles.
    cp < 2^61 and every 32-bit half but cp's low one is below 2^31, so no
    partial sum overflows.
    """
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> _32, cp & _LO32

    def mul_high(ah, al):
        return ah * ch + ((ah * cl + al * ch + ((al * cl) >> _32)) >> _32)

    z = ((g1 * cp) >> _1) + mul_high(g0h, g0l)
    return (mul_high(g1h, g1l) + (z >> _63)) | (((z & _LO63) + _LO63) >> _63)


def _schubfach(biased, frac):
    """(f, k): the shortest decimal f 10^k that rounds to the double c 2^q.

    c = 2^52 + frac and q = biased - 1075 describe a normal double; of the
    shortest decimals, f 10^k is the closest, with ties to even f.
    """
    q = biased - 1075
    irregular = (frac == 0) & (biased > 1)  # the lower neighbour is closer
    k = (q * 661971961083 - 274743187321 * irregular) >> 41
    h = (q + ((k * -913124641741) >> 38) + 2).astype(np.uint64)
    g = [np.take(column, k - _K_MIN) for column in _g_table()]
    cb = (frac | _U(2**52)) << _2
    vbl = _rop(g, (cb - np.where(irregular, _1, _2)) << h)
    vb, vbr = _rop(g, cb << h), _rop(g, (cb + _2) << h)
    odd_c = frac & _1
    s = vb >> _2
    t = s + _1
    sp10 = s // _10 * _10
    upin = vbl + odd_c <= sp10 << _2
    wpin = ((sp10 + _10) << _2) + odd_c <= vbr
    uin, win = vbl + odd_c <= s << _2, (t << _2) + odd_c <= vbr
    mid = (s + t) << _1
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _1) == 0)))
    # the JDK's s >= 100 test always holds: s >= c >= 2^52
    return np.where(upin != wpin, sp10 + _10 * ~upin, t - lower), k


def float_fields(values) -> np.ndarray:
    """(len(values), FLOAT_FIELD) uint8: each value's ``repr``, NUL-padded."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.empty((x.size, FLOAT_FIELD), np.uint8)
    bits = x.view(np.uint64)
    biased = (bits >> _U(52)).astype(np.int64) & 0x7FF
    frac = bits & _U(2**52 - 1)
    special = (biased == 0) | (biased == 0x7FF)  # zeros, subnormals, inf and nan
    zero = special & (frac == 0) & (biased == 0)
    if special.any():  # run as 1.0; a zero then gets the digit 0, the rest repr
        biased, frac = np.where(special, 1023, biased), np.where(special, _U(0), frac)

    f, k = _schubfach(biased, frac)

    # f >= c >= 2^52 has 16 or 17 digits: scale it to 17
    short = f < _U(10**16)
    f = np.where(short, f * _10, f).view(np.int64)
    ie = k + (15 - _E_MIN) + ~short  # row of the leading digit's exponent
    hi, lo = np.divmod(f, 10**8)
    d0, hi = np.divmod(hi, 10**8)
    d0[zero] = 0
    groups = np.divmod(hi, 10**4) + np.divmod(lo, 10**4)
    quads, sig, lead, before, min_shown, head, tail, mask = _layout_tables()
    words, longs = out.view(np.uint32), out.view(np.uint64)
    words[:, 2], words[:, 7] = np.take(lead[0], d0), np.take(lead[1], d0)
    n = np.uint8(1)  # digits up to the last nonzero one
    for i, group in enumerate(groups):
        words[:, 3 + i] = words[:, 8 + i] = np.take(quads, group)
        n = np.maximum(n, np.take(sig[i], group))
    longs[:, 0] = np.take(head, 2 * ie + (bits >> _63).astype(np.int64))
    longs[:, 6] = np.take(tail, ie)
    longs &= np.take(mask, np.take(before, ie) * 18 + np.maximum(n, np.take(min_shown, ie)), 0)
    rest = np.flatnonzero(special & ~zero)
    if rest.size:
        text = _text_bytes([repr(v) for v in x[rest].tolist()])
        out[rest] = 0
        out[rest, :text.shape[1]] = text
    return out


def _text_bytes(texts) -> np.ndarray:
    """(len(texts), width) uint8: each text's UTF-8 bytes, NUL-padded."""
    raw = [t.encode() for t in texts]
    if any(b"\0" in r for r in raw):
        raise ValueError("a text cell holds a NUL character")
    width = max(map(len, raw), default=0) or 1
    return np.array(raw, dtype=f"S{width}").view(np.uint8).reshape(len(raw), width)


def _block_text(block, width) -> str:
    """The CSV text of one block: a float array, or rows of ``width`` cells."""
    if isinstance(block, np.ndarray):
        fields = float_fields(block)
    else:
        cells = [v for row in block for v in row]
        is_float = np.array([isinstance(v, float) for v in cells], dtype=bool)
        text = _text_bytes([format_cell(v) for v, f in zip(cells, is_float) if not f])
        fields = np.zeros((len(cells), max(FLOAT_FIELD, text.shape[1] + 1)), np.uint8)
        fields[is_float, :FLOAT_FIELD] = float_fields([v for v, f in zip(cells, is_float) if f])
        fields[~is_float, :text.shape[1]] = text
    fields[:, -1] = ord(",")
    fields.reshape(-1, width, fields.shape[1])[:, -1, -1] = ord("\n")
    flat = fields.ravel()
    return flat[flat != 0].tobytes().decode()


def write_rows(stream, comments, columns, rows) -> None:
    """Write ``comments``, the header and ``rows``.

    ``rows`` is a sequence of rows, a 2-D array, or any table with ``len()``
    whose slices of rows are 2-D float arrays; it is read one
    :func:`~npdisclab.row_blocks` slice at a time, so a table that forms
    each slice on demand (:class:`~npdisclab.tangential.BoundaryTable`) is
    never held whole.  Raises ValueError if the header is empty or a row's
    width differs from it.
    """
    if not columns:
        raise ValueError("a table needs at least one column")
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(columns) + "\n")
    for span in row_blocks(len(rows), len(columns)):
        block = rows[span]
        if isinstance(block, np.ndarray) and block.ndim == 2 and block.dtype.kind == "f":
            widths = {block.shape[1]}
        else:
            block = block.tolist() if isinstance(block, np.ndarray) else block
            widths = set(map(len, block))
        if widths != {len(columns)}:
            raise ValueError(f"rows {span.start}..{span.stop - 1} have "
                             f"{sorted(widths)} cells for {len(columns)} columns")
        stream.write(_block_text(block, len(columns)))


class CsvDocument(NamedTuple):
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
