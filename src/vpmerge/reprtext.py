"""The series CSV, and the repr() text of its float64 values computed by numpy.

The series CSV holds similarities, which repr() prints positionally from
1e-4 up to 1: "0." and the shortest digit string that reads back as the
same double.  This module computes that text for a whole block in [1e-4, 1)
at once, writes "1.0" for 1.0 and calls repr() for every other value.
Every field is right-aligned and padded with spaces, and no field text
holds a space, so write_series_csv lays a block of rows out in fields and
one boolean index drops the padding.

Shortest digits (Steele and White, PLDI 1990; Adams, "Ryu", PLDI 2018).  A
double v = f 2^e with f < 2^53 reads back from every real in the open
interval ((2f - 1) 2^(e-1), (2f + 1) 2^(e-1)).  Take q = 17 - floor(log10 v),
so that v 10^q lies in [10^17, 10^18), and count in units of 10^-q: the
interval is (2f -+ 1) 5^q / 2^r with r = 1 - q - e, which is 36..46 in
range.  Its ends are odd over 2^r, never integers, so its integers are
A = floor(lower) + 1 .. B = floor(upper) whatever the ends' inclusivity.
The shortest text has the largest j for which a multiple of 10^j lies in
[A, B]; among those multiples repr takes the one nearest the exact v, ties
to the even digit, and writes D = multiple / 10^j zero-padded to q - j
digits.  Every product is exact in two uint64 limbs.

A power of two has a lower half-gap half as wide; the interval above
ignores that, which changes no output in range: each of the 13 powers of
two in [1e-4, 1) prints the same with either interval (tests/test_reprtext.py).
"""

from __future__ import annotations

import numpy as np

WIDTH = 24  # the longest repr of a float64, as in "-2.2250738585072014e-308"
_SPACE = ord(" ")
# 1e-4, 0.001, 0.01 and 0.1 each round up, so a double >= one of them is >=
# that power of ten in real arithmetic, and one below it is below it
_LOW = 1e-4
_POW5 = np.array([5**q for q in range(22)], np.uint64)
_POW10 = np.array([10**j for j in range(18)], np.int64)
_M32 = np.uint64(0xFFFFFFFF)
# the four ASCII digits of 0..9999 as one little-endian word each
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_QUADS = _QUADS.view("<u4")[:, 0]
_FIELD = np.dtype(f"V{WIDTH}")
_BLOCK_ROWS = 4096  # series CSV rows built and written at once


def _field_masks():
    """(KEEP, PAD), rows indexed by a digit count w <= 21, each a WIDTH-byte
    field as three uint64 words: (digits & KEEP[w]) | PAD[w] is "0." and the
    last w of the digits right-aligned, padded with spaces."""
    keep = np.zeros((22, WIDTH), np.uint8)
    pad = np.full((22, WIDTH), _SPACE, np.uint8)
    for w in range(22):
        keep[w, WIDTH - w:] = 0xFF
        pad[w, WIDTH - w:] = 0
        pad[w, WIDTH - w - 2:WIDTH - w] = np.frombuffer(b"0.", np.uint8)
    return keep.view("<u8"), pad.view("<u8")


_KEEP, _PAD = _field_masks()


def _product(a: np.ndarray, c: np.ndarray):
    """a c for uint64 a < 2^54 and c < 2^49, exact, as (low, high) uint64 limbs."""
    a0, a1 = a & _M32, a >> 32
    c0, c1 = c & _M32, c >> 32
    low = a0 * c0
    mid = (low >> 32) + a1 * c0 + a0 * c1  # < 2^56
    return (mid << 32) | (low & _M32), a1 * c1 + (mid >> 32)


def _add(limbs, c: np.ndarray):
    low = limbs[0] + c
    return low, limbs[1] + (low < c)  # the carry


def _shift(limbs, s: np.ndarray) -> np.ndarray:
    """floor(x / 2^s) of the two-limb x, for 0 < s < 64 and a result below 2^64."""
    return (limbs[1] << (64 - s)) | (limbs[0] >> s)


def _digits(d: np.ndarray) -> np.ndarray:
    """(n, 3) uint64: the WIDTH ASCII digits of the int64 d < 10^20,
    zero-padded on the left, as three little-endian words per row."""
    out = np.empty((d.size, WIDTH // 4), "<u4")
    out[:, 0] = _QUADS[0]
    for col in range(WIDTH // 4 - 1, 0, -1):
        q = d // 10000
        out[:, col] = _QUADS[d - q * 10000]
        d = q
    return out.view("<u8")


def write_series_csv(path, steps, mt: np.ndarray, values: np.ndarray) -> None:
    """Write the per-pair series CSV (rows i,j,t,repr(v)) from detect_series'
    matrix and values, _BLOCK_ROWS rows at a time.  A block is laid out in
    fields right-aligned in spaces (the pair "i,j,", the step "t,", the
    value and a newline), and one boolean index drops the spaces."""
    pair_a, pair_b = np.triu_indices(len(mt), 1)  # detect_series' pair order
    step_text = _right_aligned([f"{t}," for t in steps])
    flat = values.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(b"pair_a,pair_b,step,value\n")
        for start in range(0, flat.size, _BLOCK_ROWS):
            pair, step = np.divmod(np.arange(start, min(start + _BLOCK_ROWS, flat.size)),
                                   len(steps))
            first, stop = pair[0], pair[-1] + 1
            pair_text = _right_aligned([f"{a},{b}," for a, b in zip(
                pair_a[first:stop].tolist(), pair_b[first:stop].tolist())])
            block = np.concatenate([np.take(pair_text, pair - first, axis=0),
                                    np.take(step_text, step, axis=0),
                                    repr_text(flat[start:start + len(pair)]),
                                    np.full((len(pair), 1), ord("\n"), np.uint8)], axis=1)
            fh.write(block[block != _SPACE])


def _right_aligned(texts: list, width: int = 0) -> np.ndarray:
    """(len(texts), w) uint8: each text right-aligned in spaces, w the
    larger of width and the longest text's length."""
    width = max([width, *map(len, texts)])
    return np.frombuffer("".join(t.rjust(width) for t in texts).encode(),
                         np.uint8).reshape(len(texts), width)


_ONE = _right_aligned(["1.0"], WIDTH).view(_FIELD)[0, 0]


def repr_text(values: np.ndarray) -> np.ndarray:
    """(n, WIDTH) uint8: row i is repr(float(values[i])) right-aligned and
    padded on the left with spaces."""
    v = np.ascontiguousarray(values, np.float64).reshape(-1)
    inside = (v >= _LOW) & (v < 1.0)
    out = np.empty(v.size, _FIELD)
    rows = np.flatnonzero(inside)
    out[rows] = _positional(v[rows])
    one = v == 1.0
    out[one] = _ONE
    rest = np.flatnonzero(~(inside | one))
    out[rest] = _right_aligned(list(map(repr, v[rest].tolist())), WIDTH).view(_FIELD)[:, 0]
    return out.view(np.uint8).reshape(v.size, WIDTH)


def _grid(v: np.ndarray):
    """(q, A, B, floor(2 v 10^q), whether 2 v 10^q is an integer) of each
    double v in [float(1e-4), 1), in units of 10^-q."""
    bits = v.view(np.uint64)
    f = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = 18 + (v < 0.1) + (v < 0.01) + (v < 0.001)  # v 10^q in [10^17, 10^18)
    r = np.uint64(1076) - (bits >> 52) - q.astype(np.uint64)  # 1 - q - e for v = f 2^e
    five = _POW5[q]
    lower = _product(2 * f - 1, five)  # (v - half an ulp) 10^q 2^r
    centre = _add(lower, five)
    return (q, _shift(lower, r).view(np.int64) + 1, _shift(_add(centre, five), r).view(np.int64),
            _shift(centre, r - 1).view(np.int64), (f & ((np.uint64(1) << (r - 2)) - 1)) == 0)


def _positional(v: np.ndarray) -> np.ndarray:
    """repr_text of doubles in [float(1e-4), 1), "0." and the shortest
    digits, as WIDTH-byte fields."""
    q, lo_end, hi_end, twice, exact = _grid(v)
    # j, the most zeros the digits can end in: the largest j with a multiple of
    # 10^j in [A, B], i.e. with B mod 10^j <= B - A, which grows with j.  [A, B]
    # is an ulp wide, above 11 as v 10^q >= 10^17 > 11 f, so it holds a multiple of 10.
    gap = hi_end - lo_end
    j = np.ones(v.size, np.int64)
    live = np.arange(v.size)
    for k in range(2, 18):
        fits = hi_end[live] % _POW10[k] <= gap[live]
        live = live[fits]
        j[live] = k
        if not live.size:
            break
    p = np.take(_POW10, j)
    # the multiple nearest the centre, twice / 2: round half to an even quotient
    # (the centre exceeds twice / 2 unless exact), then back into [A, B]
    digits = twice // (2 * p)
    rem = twice - digits * (2 * p)
    digits += (rem > p) | ((rem == p) & (~exact | ((digits & 1) == 1)))
    digits -= digits * p > hi_end
    digits += digits * p < lo_end
    width = q - j  # digits after "0."
    text = _digits(digits)
    text &= np.take(_KEEP, width, axis=0)
    text |= np.take(_PAD, width, axis=0)
    return text.view(_FIELD).reshape(-1)
