"""CSV text of a float table, each value written as format(v, ".17g") writes it.

``csv_lines`` formats a 2-D float64 table in a fixed number of array passes
per block of rows, instead of one dtoa call per value, and gives the same
bytes.

For each value it finds the decimal exponent k and the 17-digit integer
D = round(|v| 10^(16-k)) in [10^16, 10^17) exactly. 10^(16-k) is a
double-double hi + lo built from Python ints; |v| hi is split exactly by
Dekker's two-product (Dekker 1971) and |v| lo is added, so the fraction
that decides the rounding is known to about 1e-14. k is the floor(log10)
estimate, corrected by at most one decade against a table of thresholds:
the smallest double whose 17-digit rounding is at least 10^k, built exactly
from Python ints. So |v| 10^(16-k) lies in [10^16 - 1/2, 10^17 - 1/2), and D
never carries to 10^17.

Each field is then four little-endian 64-bit words, 32 bytes: the sign,
the "0.000" prefix of fixed notation below 1, the 17 digits with the point
inserted among them, "e+XX" and the separator. Bytes a field does not use
are zero and are dropped at the end. The ASCII digits come from a table
of 4-digit words, and what depends only on k (the prefix, the point's
position, the exponent) from tables indexed by k. That is %g: fixed
notation for -4 <= k < 17, d.ddde+XX otherwise, trailing zeros and a lone
point removed, at least two exponent digits.

A value is written by ``"%.17g" % v`` instead, one at a time, if it is
not finite, is zero (-0.0 included), has |v| outside [1e-250, 1e250], or
lies within 1e-6 of a unit of its 17th digit of a rounding tie, where the
exact value is rounded half to even (2**-25 = 2.98023223876953125e-08 is
one).

The arithmetic is float64 and int64 only, with np.where for selections:
numpy loops that a run already uses, so formatting pages in little more
of numpy's code.
"""
from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

# the fast path's range of |v|: 10^(16-k) and every partial product stay normal
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_K_MIN, _K_MAX = -260, 260  # the exponents the k tables cover, with room for the estimate
_TIE = 1e-6
# rows formatted at once; a block's temporaries stay under about 200 KB
_BLOCK_ROWS = 512
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles
_NO_POINT = 18  # point position of fixed notation below 1: past every digit
_REGION = 6  # field byte of the first digit, after the sign and the "0.000" prefix
_DOTS = int.from_bytes(b"." * 8, "little")
_SEP_BYTE = 29  # "e+XXX" fills field bytes 24..28 of the 32


def _mask_words(n: int) -> list[int]:
    """The three words of a 24-byte mask with its first n bytes set."""
    mask = (1 << 8 * n) - 1
    return [mask >> 64 * word & (2 ** 64 - 1) for word in range(3)]


def _layout(k: int) -> tuple[int, int, int, int]:
    """The point's position among the digits, the digits kept even if zero,
    the prefix bytes and the exponent bytes of a value with exponent k."""
    if k < -4 or k >= 17:
        return 1, 1, 0, int.from_bytes(b"e%+03d" % k, "little")
    if k < 0:
        return _NO_POINT, 0, int.from_bytes(b"\x000." + b"0" * (-k - 1), "little"), 0
    return k + 1, k + 1, 0, 0


def _pow10(s: int) -> tuple[float, float]:
    """10^s as hi + lo: hi the double nearest 10^s, lo the double nearest
    the rest. int -> float and int / int both round correctly."""
    if s >= 0:
        p = 10 ** s
        hi = float(p)
        return hi, float(p - int(hi))
    p = 10 ** -s
    hi = 1 / p
    num, den = hi.as_integer_ratio()
    return hi, (den - num * p) / (den * p)


def _threshold(k: int) -> float:
    """The smallest double whose 17-digit rounding is at least 10^k: the
    first at or above (2 10^17 - 1) 10^(k-17) / 2. int / int rounds
    correctly; a result below the bound steps up one double."""
    num, den = 2 * 10 ** 17 - 1, 2
    if k >= 17:
        num *= 10 ** (k - 17)
    else:
        den *= 10 ** (17 - k)
    t = num / den
    p, q = t.as_integer_ratio()
    return math.nextafter(t, math.inf) if p * den < num * q else t


def _split(a):
    c = _SPLIT * a
    big = c - (c - a)
    return big, a - big


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables, built on first use.

    By 4-digit group 0..9999: group, its ASCII in the low four bytes and its
    count of trailing zeros above them. By k - _K_MIN, in columns: scale,
    10^(16-k) as hi, lo and hi's Veltkamp halves; threshold, see _threshold;
    layout, see _layout. By a position p among the digits, the field masks
    of three words: before, the bytes before the digit p; dot, a point at p;
    after, the bytes after it.
    """
    # from the 100 two-digit pairs, a hundred groups at a time: building all
    # 10^4 at once would raise the heap's high-water mark by its temporaries
    pair = [int.from_bytes(b"%02d" % i, "little") for i in range(100)]
    pair_zeros = [(i % 10 == 0) + (i == 0) for i in range(100)]
    low, low_zeros = np.array(pair) << 16, np.array(pair_zeros)
    group = np.empty(10_000, np.int64)
    for high in range(100):
        zeros = np.where(low_zeros == 2, 2 + pair_zeros[high], low_zeros)
        group[100 * high:100 * high + 100] = low | pair[high] | zeros << 32

    exponents = range(_K_MIN, _K_MAX + 1)
    hi, lo = np.array([_pow10(16 - k) for k in exponents]).T
    filled = [_mask_words(_REGION + p) for p in range(_NO_POINT + 2)]
    masks = np.array([[(b, _DOTS & (b ^ c), ~c & (2 ** 64 - 1))
                       for b, c in zip(filled[p], filled[p + 1])]
                      for p in range(_NO_POINT + 1)], np.uint64).view(np.int64)
    before, dot, after = masks.transpose(2, 1, 0)
    return SimpleNamespace(
        group=group,
        scale=np.stack((hi, lo, *_split(hi))),
        threshold=np.array([_threshold(k) for k in exponents]),
        layout=np.array([_layout(k) for k in exponents], np.int64).T.copy(),
        before=before, dot=dot, after=after)


def _scaled(a, scale):
    """a 10^(16-k) as a normalised double-double (s, r), |r| <= ulp(s)/2,
    from the columns of _tables().scale for k."""
    hi, lo, hi_big, hi_small = scale
    p = a * hi
    a_big, a_small = _split(a)
    e = ((a_big * hi_big - p) + a_big * hi_small + a_small * hi_big) + a_small * hi_small
    r = e + a * lo  # p + e == a hi exactly
    s = p + r
    return s, r - (s - p)


def csv_lines(table: np.ndarray):
    """The rows of a 2-D float64 table as CSV text: values joined by ",",
    each row ended by "\\n", each value the bytes of format(v, ".17g").

    Yields the text of _BLOCK_ROWS rows at a time, so the temporaries of a
    block stay small.
    """
    for start in range(0, len(table), _BLOCK_ROWS):
        yield _block_lines(table[start:start + _BLOCK_ROWS])


def _round17(v: np.ndarray):
    """Per value: k - _K_MIN; D as s plus a small integer, s an even float
    in [10^16, 10^17]; and whether the value must fall back to %, where D
    means nothing."""
    t = _tables()
    a = np.abs(v)
    fallback = ~((a >= _FAST_MIN) & (a <= _FAST_MAX))  # True for NaN, inf and zeros
    a[fallback] = 2.0  # a stand-in off the decade bounds
    # k - _K_MIN, the column of the k tables; truncation floors the positive sum
    at = (np.log10(a) - _K_MIN).astype(np.intp)
    # floor(log10) is at most one decade off: threshold[at] <= a < threshold[at + 1]
    at += a >= np.take(t.threshold, at + 1)
    at -= a < np.take(t.threshold, at)
    s, r = _scaled(a, np.take(t.scale, at, axis=1))
    # s >= 10^16 > 2^53 is an integer; r, within 8 of 0, decides the rounding
    nearest = np.rint(r)
    fallback |= np.abs(r - nearest) > 0.5 - _TIE
    return at, s, nearest, fallback


def _digit_groups(s: np.ndarray, nearest: np.ndarray):
    """The leading digit of each D = s + nearest, and its four 4-digit groups.

    Exact in floats: every product below is an integer under 2^53 times a
    power of two, and every difference an integer under 2^53.
    """
    upper = np.floor(s / 1e8)
    lower = s - upper * 1e8 + nearest
    carry = np.floor(lower / 1e8)
    upper += carry
    lower -= carry * 1e8
    lead = np.floor(upper / 1e8)
    halves = np.stack((upper - lead * 1e8, lower))
    tops = np.floor(halves / 1e4)
    groups = np.empty((4, len(s)), np.intp)
    groups[0::2] = tops
    groups[1::2] = halves - tops * 1e4
    return lead, groups


def _digit_words(s: np.ndarray, nearest: np.ndarray):
    """The 17 ASCII digits of each D = s + nearest as three words of a field
    twice, in bytes 6..22 and in bytes 7..23; and the number of digits up
    to the last nonzero one."""
    lead, groups = _digit_groups(s, nearest)
    words = np.take(_tables().group, groups)
    zeros = words >> 32
    words &= 0xFFFFFFFF
    shifted = np.empty((3, len(s)), np.int64)
    shifted[0] = (lead.astype(np.int64) + ord("0")) << 56
    shifted[1:] = words[0::2] | words[1::2] << 32
    digits = shifted >> 8
    digits[:2] |= shifted[1:] << 56

    trailing = zeros[0]
    for j in (1, 2, 3):  # a group of four zeros continues the run
        trailing = np.where(zeros[j] == 4, trailing + 4, zeros[j])
    return digits, shifted, 17 - trailing


def _number_words(v: np.ndarray, at: np.ndarray, s: np.ndarray, nearest: np.ndarray):
    """The first three words of each field: the sign, the prefix, and from
    byte 6 the digits with the point."""
    t = _tables()
    digits, shifted, ndigits = _digit_words(s, nearest)
    point, whole, head = (np.take(column, at) for column in t.layout[:3])
    # the digits kept, and the point if a digit follows it
    length = np.maximum(ndigits, whole) + np.where(ndigits > point, 1, 0)
    digits &= np.take(t.before, point, axis=1)
    digits |= np.take(t.dot, point, axis=1)
    shifted &= np.take(t.after, point, axis=1)
    digits |= shifted
    digits &= np.take(t.before, length, axis=1)
    digits[0] |= (v.view(np.int64) >> 63) & ord("-") | head
    return digits


def _block_lines(table: np.ndarray) -> str:
    """The CSV text of one block of rows, from 32-byte fields: sign, prefix,
    digits with the point from byte 6, exponent from byte 24, separator."""
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=float).ravel()
    at, s, nearest, fallback = _round17(v)
    out = np.empty((rows * cols, 4), np.dtype("<i8"))
    out[:, :3] = _number_words(v, at, s, nearest).T
    separators = np.array([ord(",")] * (cols - 1) + [ord("\n")]) << 8 * (_SEP_BYTE - 24)
    out[:, 3] = (np.take(_tables().layout[3], at).reshape(rows, cols) | separators).ravel()

    out = out.view(np.uint8)
    slow = np.flatnonzero(fallback)
    if len(slow):
        texts = np.array(["%.17g" % value for value in v[slow].tolist()], f"S{_SEP_BYTE}")
        out[slow, :_SEP_BYTE] = texts.view(np.uint8).reshape(len(slow), _SEP_BYTE)
    return out.tobytes().translate(None, b"\0").decode("ascii")
