"""CSV lines of float64 cells written as ``repr`` writes them, a block at
once, with no Python object per cell.  For 1e-11 <= |x| < 1e16 the digits
come from exact integers, as in Ryu and Schubfach: with x = M 2^E and
y = x 10^s in [10^16, 10^17), M 5^s fits in two 64-bit words, y's integer
part above its fraction.  Of the integers within half an ulp of y (a
quarter below when M = 2^52), the one with the most trailing zeros gives
the digits; of two, the nearer, and an exact tie the even one, as
CPython's dtoa rounds.  The interval is 1.1 to 22 units wide, so it holds
at most one multiple of 100.  Its ends need no open or closed rule: a
bound is an integer only for s = 1 and E <= 1, y = 10 M or 20 M, and then
y -+ 5 or y -+ 10 has fewer trailing zeros than y.  Zeros are written
here too; any other value goes through ``repr``."""

import numpy as np

__all__ = ["lines"]

_HIDDEN = np.uint64(1 << 52)
# by biased exponent: floor(log10 2^e2) (exact for |e2| < 1650), and in
# the exact range the least M with M 2^(e2 - 52) >= 10^(that + 1)
_K0 = ((np.arange(2048) - 1023) * 78913) >> 18
_THR = np.full(2048, 1 << 63, dtype=np.uint64)
_THR[986:1077] = [-(-(10 ** max(k + 1, 0) << max(52 - e, 0))
                    // (10 ** max(-k - 1, 0) << max(e - 52, 0)))
                  for e, k in zip(range(-37, 54), _K0[986:1077].tolist())]
_P5 = np.array([5 ** s for s in range(28)], dtype=np.uint64)
# a cell is 6 words, 48 bytes: sign and "0.000" prefix; digits 0 .. 15
# left of the point; the point and digits 0 .. 15 right of it; digit 16,
# the exponent and a free byte for the separator.  NUL marks an empty byte
_LEAD = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in (
    b"", b"0.", b"0.0", b"0.00", b"0.000")), dtype=np.uint64)
_SUFFIX = np.frombuffer(b"".join(
    (b"\0e-%02d" % -k if k <= -5 else b"").ljust(8, b"\0")
    for k in range(-11, 16)), dtype=np.uint64)
_ASCII = np.uint64(0x3030303030303030)
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
_WORDS = np.array([[0], [8]])          # first digit of each digit word


def _digits(bits: np.ndarray):
    """Whether each float64 of ``bits`` is in the exact range, and there its
    shortest digits c in [10^16, 10^17) and decimal exponent k, c 10^(k - 16)
    rounding back to it.  Outside it, c and k are 1.0's."""
    ex = (bits >> 52 & 0x7FF).astype(np.intp)
    m = bits & (_HIDDEN - 1) | _HIDDEN
    k = _K0.take(ex) + (m >= _THR.take(ex))
    exact = (k >= -11) & (k <= 15)
    ex, k = 1023 + (ex - 1023) * exact, k * exact
    s = 16 - k
    es = ex - 1075 + s                  # y = M 5^s 2^es
    p5 = _P5.take(s)
    # M 5^s = hi 2^64 + lo, from 32-bit limbs
    m0, m1, p0, p1 = m & 0xFFFFFFFF, m >> 32, p5 & 0xFFFFFFFF, p5 >> 32
    low = m0 * p0
    mid = m0 * p1 + m1 * p0
    lo = low + (mid << 32)
    hi = m1 * p1 + (mid >> 32) + (lo < low)
    sh = np.maximum(-es, 0).view(np.uint64)
    yi = (((hi << 63 - sh) << 1 | lo >> sh)
          << np.maximum(es, 0).view(np.uint64)).view(np.int64)
    frac = lo & ((np.uint64(1) << sh) - 1)
    # in units of 2^-sh1 of y: the fraction f2 and the half-ulp h; the
    # rounding interval's integers are a .. b, its bounds taken as closed
    sh1 = np.maximum(1 - es, 0).view(np.uint64)
    f2 = frac << 1
    h = p5 << np.maximum(es - 1, 0).view(np.uint64)
    a = yi - (((h >> (m == _HIDDEN)) - f2).view(np.int64)
              >> sh1.view(np.int64))
    b = yi + ((f2 + h) >> sh1).view(np.int64)
    # the nearest integer and the nearer multiple of 10 in [a, b], a tie
    # to the even one, unless a multiple of 100 is in it
    twice, half = f2 << 1, np.uint64(1) << sh1
    one = yi + ((twice > half) | (twice == half) & (yi & 1 == 1))
    tens = yi // 10
    down = tens * 10
    r = yi - down
    up = (r > 5) | (r == 5) & ((frac > 0) | (tens & 1 == 1))
    up = (down + 10 <= b) & (up | (down < a))
    c = one + (down + 10 * up - one) * ((down >= a) | up)
    hundreds = b // 100 * 100
    c += (hundreds - c) * (hundreds >= a)
    top = c == 10 ** 17
    return exact, c - 9 * 10 ** 16 * top, k + top


def _swar8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each v < 10^8, a byte each, the first
    digit in the lowest byte."""
    hi = v // 10000
    t = hi | (v - hi * 10000) << 32         # 2 lanes of 4 digits
    q = t * 5243 >> 19 & 0x7F0000007F       # a lane // 100
    t = q | (t - q * 100) << 16             # 4 lanes of 2 digits
    q = t * 103 >> 10 & 0xF000F000F000F     # a lane // 10
    return q | (t - q * 10) << 8


def _cells(x: np.ndarray) -> np.ndarray:
    """uint64 (len(x), 6): row j's 48 bytes hold repr(x[j]) among NULs,
    with byte 45 NUL."""
    bits = x.view(np.uint64)
    exact, c, k = _digits(bits)
    zero = bits << 1 == 0
    c *= ~zero
    lead = c // 10 ** 9
    rest = c - lead * 10 ** 9
    tens = rest // 10
    words = _swar8(np.stack([lead, tens]).view(np.uint64))
    last = rest - tens * 10
    # significant digits: through the highest nonzero byte of a word
    log2 = (words.astype(np.float64).view(np.int64) >> 52) - 1023
    used = np.maximum((log2 >> 3) + 1, 0) + _WORDS * (words > 0)
    nd = np.maximum(used.max(axis=0), 17 * (last > 0))
    expo = k <= -5
    point = k + 1 - k * expo
    shown = np.maximum(nd, (point + 1) * ~expo)
    # a word's bytes left of the point, and those shown
    left = _MASKS.take(point - _WORDS, mode="clip")
    digits = words + _ASCII
    right = digits & (_MASKS.take(shown - _WORDS, mode="clip") & ~left)
    at = point - 1 - _WORDS
    dot = (point >= 1) & ~(expo & (nd == 1)) & (at >= 0) & (at < 8)
    right |= (46 * dot).view(np.uint64) << (8 * (at & 7)).view(np.uint64)
    out = np.empty((len(x), 6), dtype=np.uint64)
    sign = bits >> 63
    out[:, 0] = 45 * sign | _LEAD.take(1 - point, mode="clip") << 8 * sign
    out[:, 1:3] = (digits & left).T
    out[:, 3:5] = right.T
    out[:, 5] = (((last + 48) * (shown > 16)).view(np.uint64)
                 | _SUFFIX.take(k + 11))
    slow = np.flatnonzero(~exact & ~zero)
    if len(slow):
        text = b"".join(repr(v).encode().ljust(48, b"\0")
                        for v in x[slow].tolist())
        out[slow] = np.frombuffer(text, dtype=np.uint64).reshape(-1, 6)
    return out


def lines(table) -> str:
    """The rows of a 2-D float array as CSV lines: each cell written as
    ``repr(float(cell))``, joined by commas, each row ending in a newline."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    cells = _cells(table.ravel()).view(np.uint8).reshape(*table.shape, 48)
    cells[:, :, 45] = ord(",")
    cells[:, -1, 45] = ord("\n")
    return cells[cells != 0].tobytes().decode("ascii")
