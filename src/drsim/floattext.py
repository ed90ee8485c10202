"""The bytes repr writes for float64 values, a block of values at a time.

repr(x) is the shortest decimal text that reads back to x, and of two such
texts the closer to x (Steele & White 1990; Gay's dtoa, mode 0). text()
works it out with numpy where repr writes a plain decimal, for finite
1e-4 <= x < 1e7:

- Scale: k = 16 - floor(log10 x), so y = x * 10**k has 17 integer digits.
  10**k is an exact double for k <= 22, and Dekker's TwoProduct gives y
  exactly as hi + lo (numpy never fuses a multiply and an add), so
  y = D + f with D its integer part and 0 <= f < 1.
- Interval: the reals that read back to x lie within half an ulp of it;
  scaled by 10**k the half-gap stays exact (a power of two times an exact
  double). No candidate lies on an end of that interval: the midpoints
  between doubles below 1e7 have 30 or more decimals, a candidate at most
  20. And each power of two in the domain has a form of 13 digits or fewer.
  So two of dtoa's rules never decide here: ends that belong to the
  interval at an even mantissa, and the narrower gap below a power of two.
- Shortest: the interval holds the integers D - below ... D + above. Of
  the multiples of 10**m next to y, m = 3, 2, 1, the coarsest m with one
  inside wins, the closer one if both are. The half-gap exceeds 1/2
  (y >= 1e16 > 2**53), so failing those, the nearest integer lies inside.
- Digits: the winner's 17 digits, laid out by k, less its m trailing zeros.

Every decision is exact. f, the half-gap and the integers are multiples of
2**(e + k - 1) >= 2**-47 (x = M * 2**e), so a half-gap less an integer
below 16 needs at most 52 bits: below and above, the ceilings of rounded
differences, are put right by such exact comparisons.

±0.0 are the literals. Any other value goes to repr one at a time: outside
that domain (negative, subnormal, >= 1e7, nan, inf), an exact tie between
the two candidates, which dtoa breaks by the even digit, or a form of 13
digits or fewer (a multiple of 10**4 inside the interval).
"""

import numpy as np

BLOCK = 4096          # values formatted at once, so that temporaries stay small
WIDTH = 32            # text columns per value; a repr is at most 24 bytes

_TEN = np.array([float(10 ** k) for k in range(23)])   # exact doubles
_SPLIT = 134217729.0                                    # 2**27 + 1, Dekker's splitter
_TEN_HI = _SPLIT * _TEN - (_SPLIT * _TEN - _TEN)
_TEN_LO = _TEN - _TEN_HI
_EXPONENT = np.uint64(0x7FF << 52)
_ULP_SHIFT = np.uint64(52 << 52)                        # x's exponent less 52: its ulp

# A plain value's text row: three unused bytes and "0.000", then D0 . D1 .
# ... D6 . (each digit with a point after it), then D7 ... D16, as fields
# that tables of digit groups fill. Its keep mask keeps "0." and the zeros a
# value below 1 needs, the digits less the trailing zeros, and the one point
# a value of 1 or more needs; the other bytes become NUL.
_ROW = np.dtype([("lead", "<u8"), ("d01", "<u4"), ("d23", "<u4"), ("d45", "<u4"),
                 ("d6", "<u2"), ("d78", "<u2"), ("d9_12", "<u4"), ("d13_16", "<u4")])
_LEAD = np.frombuffer(b"   0.000", "<u8")[0]
_DIGIT = np.frombuffer("".join(f"{i}." for i in range(10)).encode(), "<u2")
_DIGITS2 = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2")
_DOTTED2 = np.frombuffer("".join(f"{i // 10}.{i % 10}." for i in range(100)).encode(), "<u4")
_DIGITS4 = (_DIGITS2[:, None].astype("<u4") | _DIGITS2.astype("<u4") << 16).ravel()
_DIGIT_COLUMN = [8 + 2 * i for i in range(7)] + list(range(22, 32))


def _keep_masks():
    """Row 4k + m: 1 at the columns a plain value of scale k with m trailing
    zeros keeps."""
    keep = np.zeros((23 * 4, WIDTH), np.uint8)
    for k in range(10, 21):
        whole = 17 - k
        for m in range(4):
            row = keep[4 * k + m]
            row[_DIGIT_COLUMN[:17 - m]] = 1
            if whole > 0:
                row[7 + 2 * whole] = 1
            else:
                row[[3, 4, *range(8 + whole, 8)]] = 1
    return keep


_KEEP = _keep_masks()


def _scaled(x, k):
    """(D, f): y = x * 10**k, exactly, as its integer part and the rest."""
    ten, ten_hi, ten_lo = _TEN[k], _TEN_HI[k], _TEN_LO[k]
    hi = x * ten
    split = _SPLIT * x
    x_hi = split - (split - x)
    x_lo = x - x_hi
    lo = ((x_hi * ten_hi - hi) + x_hi * ten_lo + x_lo * ten_hi) + x_lo * ten_lo
    floor_lo = np.floor(lo)
    return hi.astype(np.int64) + floor_lo.astype(np.int64), lo - floor_lo


def _interval(x, k, f):
    """(below, above): the interval of reals that read back to x, scaled by
    10**k, holds the integers D - below ... D + above."""
    ulp = ((x.view(np.uint64) & _EXPONENT) - _ULP_SHIFT).view(np.float64)
    gap = ulp * _TEN[k] * 0.5
    # the ceilings of inexact differences, put right by exact comparisons
    # (r + f < gap and q - f < gap for an integer r or q)
    below = np.ceil(gap - f) - 1
    below -= f >= gap - below
    below += f < gap - (below + 1)
    above = np.ceil(f + gap) - 1
    above -= f <= above - gap
    above += f > above + 1 - gap
    return below, above


def _shortest(x):
    """(c, k, m, ok) for x in the domain: c the shortest digits as a 17-digit
    integer, k its scale, m its trailing zeros, ok False where repr decides."""
    k = 16 - np.floor(np.log10(x)).astype(np.intp)
    d, f = _scaled(x, k)
    below, above = _interval(x, k, f)
    # next to a power of ten, log10's rounding can leave y outside [1e16, 1e17)
    ok = (d >= 10 ** 16) & (d < 10 ** 17)
    low = (d - d // 10 ** 4 * 10 ** 4).astype(np.float64)    # D mod 10**4
    top, span = low + above, below + above
    m = np.zeros(len(x), np.intp)
    for level in (1, 2, 3, 4):
        scale = _TEN[level]
        hit = top - np.floor(top / scale) * scale <= span   # a multiple of scale inside
        if level == 4:
            ok &= ~hit
        else:
            m += hit
    scale = _TEN[m]
    r = low - np.floor(low / scale) * scale             # D less the multiple below it
    q = scale - r                                       # the multiple above it less D
    down, up = r <= below, q <= above
    two_f = 2.0 * f                                     # y is closer to D - r iff 2f < q - r
    ok &= ~(down & up & (two_f == q - r))
    step = np.where(up & ~(down & (two_f < q - r)), q, -r)
    return d + step.astype(np.int64), k, m, ok


def _digit_rows(c):
    """(n, WIDTH) text rows of the 17-digit integers c in the plain layout."""
    rows = np.empty(len(c), _ROW)
    rows["lead"] = _LEAD
    top = c // 10 ** 8                                  # D0 ... D8
    low = c - top * 10 ** 8
    high = low // 10 ** 4
    rows["d9_12"] = _DIGITS4[high]
    rows["d13_16"] = _DIGITS4[low - high * 10 ** 4]
    for field, table, scale in (("d78", _DIGITS2, 100), ("d6", _DIGIT, 10),
                                ("d45", _DOTTED2, 100), ("d23", _DOTTED2, 100)):
        rest = top // scale
        rows[field] = table[top - rest * scale]
        top = rest
    rows["d01"] = _DOTTED2[top]
    return rows.view(np.uint8).reshape(len(c), WIDTH)


def text(values):
    """uint8 text of a float64 array, values' shape plus WIDTH bytes: each
    value's bytes less their NULs are the ASCII of its repr."""
    x = np.asarray(values, dtype=np.float64)
    flat = x.ravel()
    out = np.empty((len(flat), WIDTH), np.uint8)
    for start in range(0, len(flat), BLOCK):
        out[start:start + BLOCK] = _block(flat[start:start + BLOCK])
    return out.reshape(*x.shape, WIDTH)


def _literals(texts):
    return np.array(texts, f"S{WIDTH}").view(np.uint8).reshape(len(texts), WIDTH)


_ZERO = _literals([b"0.0", b"-0.0"])


def _block(x):
    domain = (x >= 1e-4) & (x < 1e7)
    c, k, m, ok = _shortest(np.where(domain, x, 1.0))
    out = _digit_rows(c)
    out *= np.take(_KEEP, 4 * k + m, axis=0)
    zero = x == 0
    out[zero] = _ZERO[np.signbit(x[zero]).astype(np.intp)]
    rest = np.flatnonzero(~(domain & ok | zero))
    if len(rest):
        out[rest] = _literals([repr(v).encode() for v in x[rest].tolist()])
    return out


def strings(items):
    """(n, width) uint8 text of a list of ASCII str, NUL-padded as text() pads."""
    array = np.array([item.encode() for item in items], "S")
    return array.view(np.uint8).reshape(len(array), array.itemsize)


def join(fields, shape):
    """One bytes object of the rows of shape, in C order, each the
    concatenation of its fields less their NUL bytes: a field is bytes, the
    same in every row, or a uint8 text that broadcasts to shape plus a last
    axis of bytes."""
    parts = [np.frombuffer(field, np.uint8) if isinstance(field, bytes) else field
             for field in fields]
    rows = np.concatenate([np.broadcast_to(part, (*shape, part.shape[-1])) for part in parts],
                          axis=-1)
    return rows.tobytes().translate(None, b"\0")
