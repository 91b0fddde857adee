"""The CSV text of the artifacts: '%.17g' for whole float64 arrays in numpy.

`format_cells` gives each value the bytes of `b"%.17g" % v`.  A value whose
17-significant-digit decimal exponent is X is printed from the 17-digit
integer D = round(|v| 10^(16 - X)), ties to even, in fixed notation for
-4 <= X <= 16 and in exponent notation otherwise.  D takes no decimal
arithmetic.  With |v| = m 2^e (0.5 <= m < 1) and 10^(16 - X) = (hi + lo) 2^t
(1 <= hi < 2, lo the correctly rounded rest), Dekker's product of m and hi,
with Veltkamp's splitting (Dekker, Numer. Math. 18, 1971), is q + r exactly,
and scaled by 2^(e + t) it is ph + pl with ph >= 2^53 an integer, hence
even, so D = ph + rint(pl).  For 0 <= 16 - X <= 22 the power of ten is a
double, lo is 0, and D is exact, ties included: that is every value in
fixed notation.  Otherwise r also carries m lo, and q + r is within 2^-104
of m 10^(16 - X) 2^-t, so pl is within 2^-46 of the exact remainder, as
2^(e + t) <= 2^58; D is then taken only when pl lies more than MARGIN =
2^-40 from a half-integer.  CPython's own '%.17g', correctly rounded (Gay,
1990), prints every other value, one at a time: those near ties, every
value whose log10 estimate of X gives D outside (10^16, 10^17), zeros,
subnormals, infinities and NaNs.

`write_csv` writes a table of such cells in chunks of whole lines of about
CHUNK_ROWS rows, so its temporaries stay well under a MiB for any table.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# The bytes of a cell, NUL where unused, in six 8-byte words: the sign,
# "0.000", the first digit and a point; four times four digits, each with a
# point after it; "e", the exponent's sign, its three digits and three NULs.
WIDTH = 48
_DIGITS = slice(6, 39, 2)

CHUNK_ROWS = 2048
MARGIN = 2.0 ** -40

_SPLIT = 2.0 ** 27 + 1.0
# The decimal exponents X of the normal doubles, whose 10^(16 - X) are
# tabulated.
_X0, _X1 = -308, 308
_MIN_BITS, _MAX_BITS = np.array([np.finfo(np.float64).smallest_normal, np.inf]
                                 ).view(np.uint64).tolist()


def _power_of_ten(k: int) -> tuple[float, float, int]:
    """(hi, lo, t) with 10^k = (hi + lo + d) 2^t, 1 <= hi < 2, hi and lo
    correctly rounded and |d| <= 2^-106, from exact integers."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    t = num.bit_length() - den.bit_length()
    if num < den << t if t >= 0 else num << -t < den:
        t -= 1
    num, den = (num, den << t) if t >= 0 else (num << -t, den)
    hi = num / den
    h = int(math.ldexp(hi, 52))
    return hi, ((num << 52) - h * den) / (den << 52), t


@functools.cache
def _tables():
    """What `format_cells` looks up, built on first use.

    `by_x[j][X - _X0]` gives, for 10^(16 - X) = (hi + lo) 2^t: hi, its two
    Veltkamp halves, lo, t, the |pl - rint(pl)| past which D is left to
    CPython (0.5, never, when lo is 0), the exponent's word and the first
    template row of X's notation.  `words[g]` is the word of the four digits
    of g, 0xFF after each, and `leads[d]` that of a first digit d.
    `kept[j][g]` is twice the count of significant digits through group
    j + 1 of D, if that group is g and none follows (0 for g = 0; 2 at least
    for j = 0).  `templates[row + kept + s]`, s = 1 for a negative value, is
    the cell with the layout's own characters, 0xFF where D's digits go and
    NUL elsewhere.
    """
    x = np.arange(_X0, _X1 + 1)
    hi, lo, t = np.array([_power_of_ten(16 - k) for k in x.tolist()]).T
    split = _SPLIT * hi
    hh = split - (split - hi)

    g = np.arange(10000, dtype=np.int16)
    words = np.full((10000, 8), 0xFF, np.uint8)
    for place in range(4):
        words[:, 6 - 2 * place] = g // 10 ** place % 10 + 48
    zeros = sum((g % place == 0).view(np.int8) for place in (10, 100, 1000, 10000))
    kept = np.where(g > 0, 2 * (4 * np.arange(4, dtype=np.int8)[:, None] + 5 - zeros),
                    0).astype(np.int8)
    kept[0, 0] = 2
    leads = np.full((16, 8), 0xFF, np.uint8)
    leads[:, 6] = 48 + np.arange(16) % 10
    exponent = np.zeros((x.size, 8), np.uint8)
    exponent[:, :2] = 0xFF
    for place in range(3):
        exponent[:, 4 - place] = np.abs(x) // 10 ** place % 10 + 48

    # Notations: fixed with X = c - 4 for c <= 20; then exponent notation
    # with sign "-", "-" and three digits, "+", "+" and three digits.
    tmpl = np.zeros((25, 18, 2, WIDTH), np.uint8)
    tmpl[:, :, 1, 0] = ord("-")
    n = np.arange(18)[:, None]
    for c in range(25):
        cell, e = tmpl[c], c - 4
        shown = n
        if c <= 20 and e < 0:
            cell[:, :, 1:2 - e] = np.frombuffer(b"0.000", np.uint8)[:1 - e]
        elif c <= 20:
            shown = np.maximum(n, e + 1)
            cell[n[:, 0] > e + 1, :, 7 + 2 * e] = ord(".")
        else:
            cell[n[:, 0] > 1, :, 7] = ord(".")
            cell[:, :, 40:42] = np.frombuffer(b"e-" if c < 23 else b"e+", np.uint8)
            cell[:, :, 42 + c % 2:45] = 0xFF
        cell[:, :, _DIGITS] = np.where(np.arange(17) < shown, 0xFF, 0)[:, None, :]
    notation = np.where((x >= -4) & (x <= 16), x + 4,
                        21 + 2 * (x > 0) + (np.abs(x) >= 100))
    by_x = (hi, hh, hi - hh, lo, t.astype(np.intc),
            np.where(lo == 0.0, 0.5, 0.5 - MARGIN),
            exponent.view(np.uint64).ravel(), 36 * notation)
    return (by_x, words.view(np.uint64).ravel(), leads.view(np.uint64).ravel(),
            kept, tmpl.view(f"V{WIDTH}").ravel())


def format_cells(values) -> np.ndarray:
    """The '%.17g' text of each value of a float64 array, as a uint8 array of
    shape values.shape + (WIDTH,): the text's bytes in order, NUL-padded."""
    v = np.asarray(values, np.float64)
    shape, v = v.shape, v.ravel()
    by_x, words, leads, kept, tmpl = _tables()
    a = np.abs(v)
    # The normal doubles; anything else is printed as 1 is, D = 10^16, which
    # sends it to CPython.
    a = np.where(a.view(np.uint64) - _MIN_BITS < _MAX_BITS - _MIN_BITS, a, 1.0)
    # log10 |v| - _X0 > 0, so the cast rounds it down.
    i = (np.log10(a) - _X0).astype(np.intp)
    hi, hh, hl, lo, t, tie, exponent, row = (col.take(i) for col in by_x)
    m, e = np.frexp(a)
    e += t
    mh = m * _SPLIT
    mh -= mh - m
    ml = m - mh
    q = m * hi
    r = mh * hh
    r -= q
    r += mh * hl
    r += ml * hh
    r += ml * hl
    r += m * lo
    np.ldexp(q, e, out=q)
    np.ldexp(r, e, out=r)
    rd = np.rint(r)
    r -= rd
    bad = np.abs(r, out=r) > tie
    big = q.astype(np.int64)
    big += rd.astype(np.int64)
    bad |= (big - (10 ** 16 + 1)).view(np.uint64) >= 9 * 10 ** 16 - 1

    head = big // 10 ** 8
    big -= head * 10 ** 8
    lead = head // 10 ** 8
    head -= lead * 10 ** 8
    first, third = head // 10000, big // 10000
    groups = (first, head - first * 10000, third, big - third * 10000)
    n = kept[0].take(groups[0])
    for j in (1, 2, 3):
        np.maximum(n, kept[j].take(groups[j]), out=n)
    row += n
    row += v < 0
    cells = tmpl.take(row).view(np.uint64).reshape(-1, 6)
    cells[:, 0] &= leads.take(lead, mode="clip")
    for j, group in enumerate(groups, 1):
        cells[:, j] &= words.take(group)
    cells[:, 5] &= exponent
    cells = cells.view(np.uint8)
    if bad.any():
        cells[bad] = _text([b"%.17g" % f for f in v[bad].tolist()], WIDTH)
    return cells.reshape(shape + (WIDTH,))


def _text(strings: list[bytes], width: int = 0) -> np.ndarray:
    """Byte strings as a NUL-padded uint8 matrix, one row each, at least
    `width` wide."""
    rows = np.array(strings, f"S{width}" if width else np.bytes_)
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def text_cells(strings: list[str]) -> np.ndarray:
    """Text cells, one a string, as `write_csv` takes them."""
    return _text([s.encode() for s in strings])


def write_csv(path, header: str, columns) -> None:
    """Write `header`, then one line per row of `columns`, comma-separated.

    Each column is a float64 array, printed as '%.17g', or a uint8 array of
    text cells (`format_cells`, `text_cells`) whose last axis holds the
    bytes, NULs left out.  Their other axes broadcast to the table's, rows
    in C order.  The text goes to the file in chunks of whole lines of the
    first axis, about CHUNK_ROWS rows each.
    """
    text = [col.dtype == np.uint8 for col in columns]
    shape = np.broadcast_shapes(*(col.shape[:-1] if t else col.shape
                                  for col, t in zip(columns, text)))
    widths = [col.shape[-1] if t else WIDTH for col, t in zip(columns, text)]
    starts = list(itertools.accumulate((w + 1 for w in widths), initial=0))
    lines = min(shape[0], max(1, CHUNK_ROWS // max(1, math.prod(shape[1:]))))
    # The separators and the text cells every line repeats are written once;
    # each chunk overwrites the rest.
    block = np.empty((lines,) + shape[1:] + (starts[-1],), np.uint8)
    varying = []
    for col, t, start, end in zip(columns, text, starts, starts[1:]):
        block[..., end - 1] = ord(",")
        if not t:
            col = col if col.shape == shape else np.broadcast_to(col, shape)
            varying.append((col, t, slice(start, end - 1)))
        elif col.ndim <= len(shape) or col.shape[0] == 1:
            block[..., start:end - 1] = col
        else:
            varying.append((col, t, slice(start, end - 1)))
    block[..., -1] = ord("\n")
    floats = [col for col, t, _ in varying if not t]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for first in range(0, shape[0], max(lines, 1)):
            chunk = slice(first, first + lines)
            part = block[:min(lines, shape[0] - first)]
            if len(floats) > 1:
                cells = format_cells(np.stack([col[chunk] for col in floats], -1))
            elif floats:
                cells = format_cells(floats[0][chunk])[..., None, :]
            k = 0
            for col, t, slot in varying:
                if t:
                    part[..., slot] = col[chunk]
                else:
                    part[..., slot] = cells[..., k, :]
                    k += 1
            fh.write(part.tobytes().translate(None, b"\0"))
