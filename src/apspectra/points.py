"""Deterministic two-sided symbolic sequences, observables and metrics.

Every generator is a pure function of its parameters and the queried
coordinate, so windows can be evaluated lazily, repeatedly and
concurrently with identical results.  The group acts by
``(t.x)(k) = x(k + t)``; all operations here follow that single sign
convention.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Mapping

import numpy as np

__all__ = [
    "Record",
    "PointGen",
    "PeriodicPoint",
    "SubstitutionPoint",
    "SturmianPoint",
    "BernoulliPoint",
    "StepPoint",
    "BlockPoint",
    "shift",
    "eval_window",
    "Observable",
    "Track",
    "observable_track",
    "CylinderMetric",
    "MAX_RADIUS",
    "cylinder_weights",
    "CylinderSums",
    "smeared_counts",
    "smeared_mismatch",
    "mismatch_track",
    "metric_d",
    "sup_metric_lb",
    "FIBONACCI_RULES",
    "THUE_MORSE_RULES",
    "PERIOD_DOUBLING_RULES",
]


class Record:
    """An immutable value with named fields, like a frozen dataclass: the
    fields are the class annotations in order, a class attribute of a
    field's name is its default.  Unlike a dataclass, a record class
    compiles no code when it is defined, which keeps start-up short."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls, rest = type(self), self._fields[len(args):]
        if (len(args) > len(self._fields) or kwargs.keys() - set(rest)
                or any(n not in kwargs and not hasattr(cls, n) for n in rest)):
            raise TypeError(f"{cls.__name__}() takes the fields "
                            f"{', '.join(self._fields)}, each once")
        self.__dict__.update(zip(self._fields, args), **{
            n: kwargs[n] if n in kwargs else getattr(cls, n) for n in rest})
        self.__post_init__()

    def __post_init__(self):
        """Checks or normalises the fields; set one with object.__setattr__."""

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):    # only records of one class are comparable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class PointGen:
    """Base class for two-sided symbolic sequences over a finite alphabet."""

    alphabet: tuple[str, ...]

    def codes(self, start: int, stop: int) -> np.ndarray:
        """Alphabet indices of x(start..stop-1)."""
        raise NotImplementedError


def shift(x: PointGen, t: int) -> PointGen:
    """The translated point t.x with (t.x)(k) = x(k + t)."""
    return x if t == 0 else _Shifted(x, t)


def eval_window(x: PointGen, a: int, b: int) -> str:
    """Letters x(a..b), both endpoints included."""
    if a > b:
        raise ValueError("window start must not exceed its end")
    codes = x.codes(a, b + 1)
    return "".join(x.alphabet[c] for c in codes)


class _Shifted(PointGen):
    def __init__(self, base: PointGen, offset: int):
        if isinstance(base, _Shifted):
            offset += base.offset
            base = base.base
        self.base = base
        self.offset = int(offset)
        self.alphabet = base.alphabet

    def codes(self, start: int, stop: int) -> np.ndarray:
        return self.base.codes(start + self.offset, stop + self.offset)


class PeriodicPoint(PointGen):
    """x(t) = pattern[t mod p]."""

    def __init__(self, pattern: str):
        if not pattern:
            raise ValueError("pattern must be nonempty")
        self.pattern = pattern
        self.alphabet = tuple(sorted(set(pattern)))
        index = {a: i for i, a in enumerate(self.alphabet)}
        self._codes = np.array([index[c] for c in pattern], dtype=np.int64)

    def codes(self, start: int, stop: int) -> np.ndarray:
        t = np.arange(start, stop, dtype=np.int64)
        return self._codes[t % len(self.pattern)]


FIBONACCI_RULES = {"0": "01", "1": "0"}
THUE_MORSE_RULES = {"0": "01", "1": "10"}
PERIOD_DOUBLING_RULES = {"0": "01", "1": "00"}


def _two_letter_factors(rules: Mapping[str, str]) -> set[str]:
    """Closure of the legal two-letter words of the substitution."""
    def pairs_of(word):
        return {word[i:i + 2] for i in range(len(word) - 1)}

    factors: set[str] = set()
    for w in rules.values():
        factors |= pairs_of(w)
    while True:
        new = set(factors)
        for p in factors:
            new |= pairs_of(rules[p[0]] + rules[p[1]])
        if new == factors:
            return factors
        factors = new


class SubstitutionPoint(PointGen):
    """Two-sided fixed point of a primitive substitution.

    The seed is a legal two-letter word l.r placed at coordinates
    (-1, 0).  Internally the rules are iterated with the smallest power
    p for which sigma^p(l) ends in l and sigma^p(r) starts with r, so
    each expansion extends the cached words without rewriting them.
    """

    def __init__(self, rules: Mapping[str, str],
                 seed: tuple[str, str] = ("0", "0"), name: str = ""):
        self.rules = dict(rules)
        self.alphabet = tuple(sorted(self.rules))
        if any(len(a) != 1 or ord(a) > 127 for a in self.alphabet):
            raise ValueError("letters must be single ASCII characters")
        if any(set(w) - set(self.alphabet) for w in self.rules.values()):
            raise ValueError("rule words must stay inside the alphabet")
        if any(not w for w in self.rules.values()):
            raise ValueError("rule words must be nonempty")
        self.seed = (str(seed[0]), str(seed[1]))
        self.name = name
        left, right = self.seed
        if left not in self.alphabet or right not in self.alphabet:
            raise ValueError("each seed entry must be one letter of the alphabet")
        if left + right not in _two_letter_factors(self.rules):
            raise ValueError(f"seed pair {left + right!r} is not legal for these rules")
        self._power = self._stable_power(left, right)
        byte_index = np.full(256, -1, dtype=np.int64)
        for i, a in enumerate(self.alphabet):
            byte_index[ord(a)] = i
        self._byte_index = byte_index
        self._left_word = left
        self._right_word = right
        self._lock = threading.Lock()

    def _apply(self, word: str, times: int = 1) -> str:
        for _ in range(times):
            word = "".join(self.rules[c] for c in word)
        return word

    def _stable_power(self, left: str, right: str) -> int:
        # sigma^p(l) ends in l iff p steps of l -> last letter of sigma(l) fix l
        last, first = left, right
        size = dict.fromkeys(self.rules, 1)     # |sigma^p(a)|, capped at 2
        for p in range(1, 25):
            last, first = self.rules[last][-1], self.rules[first][0]
            size = {a: min(2, sum(size[b] for b in w))
                    for a, w in self.rules.items()}
            if last == left and first == right:
                if min(size[left], size[right]) < 2:
                    raise ValueError("a seed letter's word does not grow "
                                     "under the rules")
                return p
        raise ValueError("seed pair is not stabilized by any small power of the rules")

    def _ensure(self, start: int, stop: int) -> None:
        with self._lock:
            while len(self._left_word) < max(0, -start):
                self._left_word = self._apply(self._left_word, self._power)
            while len(self._right_word) < max(0, stop):
                self._right_word = self._apply(self._right_word, self._power)

    def codes(self, start: int, stop: int) -> np.ndarray:
        if stop <= start:
            return np.zeros(0, dtype=np.int64)
        self._ensure(start, stop)
        parts = []
        if start < 0:
            lw = self._left_word
            parts.append(lw[len(lw) + start:len(lw) + min(stop, 0)])
        if stop > 0:
            parts.append(self._right_word[max(start, 0):stop])
        raw = np.frombuffer("".join(parts).encode("ascii"), dtype=np.uint8)
        return self._byte_index[raw]


class SturmianPoint(PointGen):
    """Rotation coding: x(t) = 1 iff frac(t*alpha + rho) in [1-alpha, 1)."""

    alphabet = ("0", "1")

    def __init__(self, alpha: float, rho: float = 0.0):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        self.alpha = float(alpha)
        self.rho = float(rho)

    def codes(self, start: int, stop: int) -> np.ndarray:
        t = np.arange(start, stop, dtype=float)
        frac = np.mod(t * self.alpha + self.rho, 1.0)
        return (frac >= 1.0 - self.alpha).astype(np.int64)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; input and output are uint64 arrays."""
    z = (z + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class BernoulliPoint(PointGen):
    """Coin flips keyed by (seed, t) in counter mode.

    Each coordinate is hashed independently, so window evaluation is
    order-independent and reproducible regardless of access pattern.
    """

    alphabet = ("0", "1")

    def __init__(self, p: float, seed: int):
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        self.p = float(p)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._key = _splitmix64(np.array([self.seed], dtype=np.uint64))[0]

    def codes(self, start: int, stop: int) -> np.ndarray:
        t = np.arange(start, stop, dtype=np.int64).view(np.uint64)
        h = _splitmix64(t ^ self._key)
        u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        return (u < self.p).astype(np.int64)


class StepPoint(PointGen):
    """x(t) = 1 for t >= 0 and 0 below."""

    alphabet = ("0", "1")

    def codes(self, start: int, stop: int) -> np.ndarray:
        t = np.arange(start, stop, dtype=np.int64)
        return (t >= 0).astype(np.int64)


class BlockPoint(PointGen):
    """Dyadic block sequence: 1 on [2^n, 2^n + 2^(n-1)) for n >= 1.

    Coordinates t <= 0 carry a fixed fill letter (default "0").
    """

    alphabet = ("0", "1")

    def __init__(self, fill: str = "0"):
        if fill not in self.alphabet:
            raise ValueError("fill letter must be '0' or '1'")
        self.fill = fill

    def codes(self, start: int, stop: int) -> np.ndarray:
        t = np.arange(start, stop, dtype=np.int64)
        pos = t >= 2
        tp = t[pos].astype(np.float64)
        n = np.floor(np.log2(tp)).astype(np.int64)
        # guard against log2 rounding at exact powers of two
        n = np.where(2 ** (n + 1) <= t[pos], n + 1, n)
        n = np.where(2 ** n > t[pos], n - 1, n)
        inside = (t[pos] - 2 ** n) < 2 ** (n - 1)
        vals = np.zeros(len(t), dtype=np.int64)
        vals[pos] = inside.astype(np.int64)
        if self.fill == "1":
            vals[t <= 0] = 1
        return vals


# ---------------------------------------------------------------------------
# observables and tracks
# ---------------------------------------------------------------------------


class Track(Mapping):
    """A finite map t -> complex backed by a dense array."""

    __slots__ = ("start", "values")

    def __init__(self, start: int, values: np.ndarray):
        self.start = int(start)
        self.values = np.asarray(values)

    @property
    def stop(self) -> int:
        return self.start + len(self.values)

    def __getitem__(self, t):
        i = int(t) - self.start
        if not 0 <= i < len(self.values):
            raise KeyError(t)
        v = self.values[i]
        return complex(v) if np.iscomplexobj(self.values) else float(v)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(range(self.start, self.stop))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))


class Observable(Record):
    """A cylinder function: finite window of offsets plus a total value table.

    ``table`` maps every letter pattern on the window (a string, one
    letter per offset) to a complex value.  Evaluation at t reads the
    letters of the point at ``t + window``.
    """

    window: tuple[int, ...]
    table: Mapping[str, complex]
    name: str = ""

    def __post_init__(self):
        if not self.window:
            raise ValueError("observable window must be nonempty")
        width = len(self.window)
        for pattern in self.table:
            if len(pattern) != width:
                raise ValueError(f"pattern {pattern!r} does not fit window width {width}")

    @classmethod
    def indicator(cls, letter: str, alphabet, offset: int = 0,
                  name: str = "") -> "Observable":
        table = {a: (1.0 + 0.0j if a == letter else 0.0 + 0.0j) for a in alphabet}
        return cls((offset,), table, name or f"indicator[{letter}@{offset}]")

    @classmethod
    def letter_values(cls, values: Mapping[str, complex], offset: int = 0,
                      name: str = "") -> "Observable":
        table = {a: complex(v) for a, v in values.items()}
        return cls((offset,), table, name or "letter-values")

    @classmethod
    def constant(cls, value: complex, alphabet, name: str = "const") -> "Observable":
        return cls((0,), {a: complex(value) for a in alphabet}, name)

    def sup_norm(self) -> float:
        return float(max((abs(v) for v in self.table.values()), default=0.0))

    def lookup_array(self, alphabet: tuple[str, ...]) -> np.ndarray:
        """Dense table over all patterns of ``alphabet`` on the window.

        Raises KeyError naming the first missing pattern, which is how
        partial tables get caught.
        """
        values = []
        # entry k's digits in base len(alphabet), lowest first, spell its
        # pattern; a missing one stops the loop before any array is built
        for letters in itertools.product(alphabet, repeat=len(self.window)):
            pattern = "".join(reversed(letters))
            if pattern not in self.table:
                raise KeyError(f"observable table misses pattern {pattern!r}")
            values.append(self.table[pattern])
        return np.array(values, dtype=complex)


def observable_track(f: Observable, x: PointGen, t0: int, t1: int) -> Track:
    """Samples f(t.x) for t in [t0, t1]; both endpoints included."""
    if t1 < t0:
        raise ValueError("empty track range")
    w = f.window
    lo, hi = t0 + min(w), t1 + max(w) + 1
    codes = x.codes(lo, hi)
    base = len(x.alphabet)
    lut = f.lookup_array(x.alphabet)
    n = t1 - t0 + 1
    key = np.zeros(n, dtype=np.int64)
    mult = 1
    for off in w:
        a = t0 + off - lo
        key += codes[a:a + n] * mult
        mult *= base
    vals = lut[key]
    if np.max(np.abs(vals.imag), initial=0.0) == 0.0:
        vals = vals.real.copy()
    return Track(t0, vals)


# ---------------------------------------------------------------------------
# cylinder metric
# ---------------------------------------------------------------------------


# the largest cylinder sum, 3 * 2^MAX_RADIUS - 2, must fit an int32
MAX_RADIUS = 28


def _check_radius(radius: int) -> None:
    if not 1 <= radius <= MAX_RADIUS:
        raise ValueError(f"metric radius must lie in 1..{MAX_RADIUS}")


def cylinder_weights(radius: int) -> tuple[np.ndarray, float]:
    """Weights 2^-|k| for |k| <= radius and their total mass."""
    _check_radius(radius)
    k = np.arange(-radius, radius + 1)
    w = np.power(2.0, -np.abs(k))
    return w, float(w.sum())


class CylinderMetric(Record):
    """Weighted mismatch distance on a window of coordinates around 0.

    d(x, y) = (1/C) sum_{|k| <= radius} 2^-|k| [x(k) != y(k)] with
    C the total weight, so values lie in [0, 1] and vanish exactly when
    the two points agree on the comparison window.
    """

    radius: int = 16

    @property
    def weights(self) -> np.ndarray:
        return cylinder_weights(self.radius)[0]

    @property
    def normalizer(self) -> float:
        return cylinder_weights(self.radius)[1]

    def distance(self, x: "PointGen", y: "PointGen") -> float:
        return metric_d(x, y, self.radius)


def _shift_add(high: np.ndarray, shift: int, low: np.ndarray,
               dst: np.ndarray, taps: int) -> np.ndarray:
    """(high << shift) + low, a sum of ``taps`` mask entries, written into
    the head of the int32 buffer ``dst`` viewed as the narrowest type
    that holds 2^taps - 1: narrow passes move fewer bytes."""
    dtype = np.uint8 if taps <= 8 else np.uint16 if taps <= 16 else np.int32
    out = dst.view(dtype)[:len(low)]
    # a multiply: numpy's uint8 shift is not vectorised
    np.multiply(high, 1 << shift, out=out, dtype=dtype)
    return np.add(out, low, out=out, dtype=dtype)


def _geometric_sums(g: np.ndarray, taps: int, rising: bool,
                    out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Sums of ``taps`` consecutive entries of the 0/1 array ``g`` with
    power-of-two weights.

    Entry i is sum_{k<taps} 2^k g[i + k] when ``rising``, else
    sum_{k<taps} 2^(taps-1-k) g[i + k].  The tap count is built from its
    leading bit by doubling (h_2L from two copies of h_L) and one
    add-one step (h_L+1 from h_L and g) per further set bit.  The passes
    alternate between the int32 buffers ``spare`` and ``out``, as long
    as ``g``, so that the last one writes ``out``; the result is a view
    of ``out`` (or ``g`` itself for one tap).
    """
    bits = bin(taps)[3:]
    passes = len(bits) + bits.count("1")
    dst, nxt = (out, spare) if passes % 2 else (spare, out)
    h, length = g, 1
    for bit in bits:
        if rising:
            h = _shift_add(h[length:], length, h[:-length], dst, 2 * length)
        else:
            h = _shift_add(h[:-length], length, h[length:], dst, 2 * length)
        dst, nxt, length = nxt, dst, 2 * length
        if bit == "1":
            if rising:
                h = _shift_add(h[1:], 1, g[:len(h) - 1], dst, length + 1)
            else:
                h = _shift_add(h[:-1], 1, g[length:], dst, length + 1)
            dst, nxt, length = nxt, dst, length + 1
    return h


class CylinderSums:
    """Reusable buffers for the cylinder sums of masks of up to n entries.

    Write a letter-mismatch mask into the boolean ``mask``, or into a
    prefix of it (for instance with ``np.not_equal(..., out=work.mask[:m])``),
    then ``counts(radius, m)``.  The doubling passes run in the three
    int32 ``rows``, so repeated calls allocate nothing; each call
    overwrites the sums the last one returned.
    """

    def __init__(self, n: int):
        self.mask = np.empty(n, dtype=bool)
        self.rows = np.empty((3, n), dtype=np.int32)

    def counts(self, radius: int,
               length: int | None = None) -> tuple[np.ndarray, int]:
        """Integer cylinder sums of the first ``length`` entries of ``mask``
        (all of them by default) along their run of coordinates.

        Entry i of S is sum_{|k|<=radius} 2^(radius-|k|) mask[i + radius + k]
        in int32, and C = 3 * 2^radius - 2 is the total weight, so S / C
        is the cylinder distance at i.  The run loses ``radius``
        coordinates at each end.  S is a view of ``rows``.
        """
        _check_radius(radius)
        g, (a, b, c) = self.mask[:length].view(np.uint8), self.rows
        n = len(g) - 2 * radius
        # the left sums stay in row a while the right ones use rows b and c
        left = _geometric_sums(g[:n + radius - 1], radius, True, a, b)
        right = _geometric_sums(g[radius:], radius + 1, False, b, c)
        return (np.add(right, left, out=c[:n], dtype=np.int32),
                3 * 2 ** radius - 2)


def smeared_counts(mask: np.ndarray, radius: int) -> tuple[np.ndarray, int]:
    """``CylinderSums.counts`` of one mask, in buffers of its own."""
    work = CylinderSums(len(mask))
    work.mask[:] = mask
    return work.counts(radius)


def smeared_mismatch(mask: np.ndarray, radius: int) -> np.ndarray:
    """Cylinder distances (1/C) sum_{|k|<=radius} 2^-|k| mask[i + radius + k]."""
    s, c = smeared_counts(mask, radius)
    return s / c


def mismatch_track(x: PointGen, y: PointGen, s0: int, s1: int,
                   radius: int = 16) -> np.ndarray:
    """d(s.x, s.y) for s in [s0, s1)."""
    lo, hi = s0 - radius, s1 + radius
    xc = x.codes(lo, hi)
    yc = y.codes(lo, hi)
    if x.alphabet != y.alphabet:
        xc = np.array([x.alphabet[i] for i in xc])
        yc = np.array([y.alphabet[i] for i in yc])
    return smeared_mismatch(xc != yc, radius)


def metric_d(x: PointGen, y: PointGen, radius: int = 16) -> float:
    """Weighted mismatch metric (1/C) sum_{|k|<=K} 2^-|k| [x(k) != y(k)]."""
    return float(mismatch_track(x, y, 0, 1, radius)[0])


def sup_metric_lb(x: PointGen, y: PointGen, horizon: int,
                  radius: int = 16) -> float:
    """max over |s| <= horizon of d(s.x, s.y); a lower bound for the sup metric."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    d = mismatch_track(x, y, -horizon, horizon + 1, radius)
    return float(np.max(d))
