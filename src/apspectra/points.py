"""Deterministic two-sided symbolic sequences, observables and metrics.

Every generator is a pure function of its parameters and the queried
coordinate, so windows can be evaluated lazily, repeatedly and
concurrently with identical results.  The group acts by
``(t.x)(k) = x(k + t)``; all operations here follow that single sign
convention.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Mapping

import numpy as np

from .errors import MissingSamples

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
    "observable_keys",
    "observable_track",
    "observable_source",
    "sup_norm",
    "MAX_RADIUS",
    "cylinder_weights",
    "CylinderSums",
    "smeared_counts",
    "smeared_mismatch",
    "mismatch_track",
    "metric_d",
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
        # the pattern turned to start's phase, tiled: no array of coordinates
        return np.resize(np.roll(self._codes, -(start % len(self.pattern))),
                         max(stop - start, 0))


FIBONACCI_RULES = {"0": "01", "1": "0"}
THUE_MORSE_RULES = {"0": "01", "1": "10"}
PERIOD_DOUBLING_RULES = {"0": "01", "1": "00"}


# the letter lengths |sigma^j(a)| are capped here, past every int64 coordinate
_LENGTH_CAP = 2 ** 63


class SubstitutionPoint(PointGen):
    """Two-sided fixed point of a substitution sigma.

    The seed is a legal two-letter word l.r at coordinates (-1, 0); with p
    the smallest power for which sigma^p(l) ends in l and sigma^p(r) starts
    with r, the point reads sigma^(pK)(l).sigma^(pK)(r) for every K.  A
    window is read by descending from the seed letters, one application of
    sigma per level, expanding only the tiles that meet it: its work follows
    its width, not its coordinates.
    """

    def __init__(self, rules: Mapping[str, str],
                 seed: tuple[str, str] = ("0", "0"), name: str = ""):
        self.rules = dict(rules)
        self.alphabet = tuple(sorted(self.rules))
        # the seed checks below take time quadratic to cubic in the letters
        if len(self.alphabet) > 128 or any(len(a) != 1 for a in self.alphabet):
            raise ValueError("letters must be at most 128 single characters")
        if any(not w or set(w) - set(self.alphabet) for w in self.rules.values()):
            raise ValueError("rule words must be nonempty words over the alphabet")
        self.seed, self.name = (str(seed[0]), str(seed[1])), name
        if not set(self.seed) <= set(self.alphabet):
            raise ValueError("each seed entry must be one letter of the alphabet")
        index = {a: i for i, a in enumerate(self.alphabet)}
        images = [tuple(index[c] for c in self.rules[a]) for a in self.alphabet]
        self._seed = seed = (index[self.seed[0]], index[self.seed[1]])
        # the legal two-letter words: the pairs inside an image, closed under
        # a.b -> (last letter of sigma(a)).(first letter of sigma(b))
        pairs, new = set(), {w[i:i + 2] for w in images for i in range(len(w) - 1)}
        while new:
            pairs |= new
            new = {(images[a][-1], images[b][0]) for a, b in new} - pairs
        if seed not in pairs:
            raise ValueError(f"seed pair {''.join(self.seed)!r} is not legal")
        # sigma^j(a) grows exponentially in j iff a reaches a letter b whose
        # image holds two letters of b's own strongly connected class
        n = len(images)
        count = np.array([np.bincount(w, minlength=n) for w in images])
        reach = np.linalg.matrix_power(np.eye(n, dtype=bool) | (count > 0), n)
        pumps = (count * (reach & reach.T)).sum(axis=1) >= 2
        if not (reach[list(seed)] & pumps).any(axis=1).all():
            raise ValueError("a seed letter's word does not grow exponentially")
        ends = [seed]       # the last letter of sigma^j(l), the first of sigma^j(r)
        for _ in range(24):
            ends.append((images[ends[-1][0]][-1], images[ends[-1][1]][0]))
        if seed not in ends[1:]:
            raise ValueError("no power p <= 24 of the rules fixes the seed pair")
        self._power = ends.index(seed, 1)
        self._lengths = [(1,) * n]      # level j: |sigma^j(a)|, capped
        # per side: the images (mirrored for the left half), and concatenated
        self._tables = [(t, np.fromiter(itertools.chain(*t), np.int64))
                        for t in ([w[::-1] for w in images], images)]
        self._size = np.array([len(w) for w in images])
        self._offset = np.cumsum(self._size) - self._size

    def _descend(self, side: int, start: int, stop: int) -> np.ndarray:
        """Letters [start, stop) of sigma^(pK)(seed), 0 <= start, stop <= 2^63,
        of the right half (side 1) or of the mirrored left half (side 0)."""
        if stop <= start:
            return np.zeros(0, dtype=np.int64)
        images, flat = self._tables[side]
        letter, lengths = self._seed[side], self._lengths
        if lengths[-1][letter] < stop:
            # levels a power at a time, on a copy published whole: a
            # thread still reading the old table reads all of it
            lengths = list(lengths)
            while lengths[-1][letter] < stop:
                for _ in range(self._power):
                    lengths.append(tuple(min(_LENGTH_CAP, sum(
                        lengths[-1][b] for b in w)) for w in images))
            self._lengths = lengths
        depth = next(j for j in range(0, len(lengths), self._power)
                     if lengths[j][letter] >= stop)
        # the run of tiles meeting the window starts at lo, its last tile at
        # last; only the children of its end tiles can fall outside
        run, lo, last = np.array([letter], dtype=np.int64), 0, 0
        for size in reversed(lengths[:depth]):
            tail, head = (list(itertools.accumulate(
                (size[c] for c in images[tile]), initial=edge))
                for tile, edge in ((run[-1], last), (run[0], lo)))
            keep = bisect.bisect_left(tail, stop)
            drop = bisect.bisect_right(head, start) - 1
            lo, last = head[drop], tail[keep - 1]
            sizes = self._size[run]
            at = np.repeat(self._offset[run] - np.cumsum(sizes) + sizes, sizes)
            at += np.arange(len(at))
            run = flat[at[drop:len(at) - len(tail) + 1 + keep]]
        return run

    def codes(self, start: int, stop: int) -> np.ndarray:
        left = self._descend(0, -min(stop, 0), -start)
        return np.concatenate((left[::-1], self._descend(1, max(start, 0), stop)))


# coordinates computed at once by SturmianPoint.codes and BernoulliPoint.codes:
# each float or hash temporary holds 64 KiB
HASH_BLOCK = 1 << 13


class SturmianPoint(PointGen):
    """Rotation coding: x(t) = 1 iff frac(t*alpha + rho) in [1-alpha, 1)."""

    alphabet = ("0", "1")

    def __init__(self, alpha: float, rho: float = 0.0):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        self.alpha = float(alpha)
        self.rho = float(rho)

    def codes(self, start: int, stop: int) -> np.ndarray:
        # in blocks: the float temporaries stay a block long
        out = np.empty(max(stop - start, 0), dtype=np.int64)
        for a in range(start, stop, HASH_BLOCK):
            b = min(a + HASH_BLOCK, stop)
            frac = np.mod(np.arange(a, b, dtype=float) * self.alpha + self.rho, 1.0)
            np.greater_equal(frac, 1.0 - self.alpha, out=out[a - start:b - start])
        return out


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; input and output are uint64 arrays."""
    z = z + np.uint64(0x9E3779B97F4A7C15)       # wraps modulo 2^64
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
        # hashed in blocks: the hash temporaries stay a block long
        out = np.empty(max(stop - start, 0), dtype=np.int64)
        for a in range(start, stop, HASH_BLOCK):
            b = min(a + HASH_BLOCK, stop)
            t = np.arange(a, b, dtype=np.int64).view(np.uint64)
            h = _splitmix64(t ^ self._key)
            u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
            np.less(u, self.p, out=out[a - start:b - start])
        return out


class StepPoint(PointGen):
    """x(t) = 1 for t >= 0 and 0 below."""

    alphabet = ("0", "1")

    def codes(self, start: int, stop: int) -> np.ndarray:
        out = np.zeros(max(stop - start, 0), dtype=np.int64)
        out[max(-start, 0):] = 1
        return out


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
        # one slice fill per block (and for the fill): slices clipped at 0
        out = np.zeros(max(stop - start, 0), dtype=np.int64)
        if self.fill == "1":
            out[:max(1 - start, 0)] = 1
        for n in range(1, max(stop, 1).bit_length()):
            out[max(2 ** n - start, 0):max(2 ** n + 2 ** (n - 1) - start, 0)] = 1
        return out


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

    def read(self, a: int, b: int) -> np.ndarray:
        """Values on [a, b), a view: the track as a sample source.

        The first coordinate the track lacks raises :class:`MissingSamples`.
        """
        if b <= a:
            return np.zeros(0)
        if a < self.start or b > self.stop:
            raise MissingSamples(a if a < self.start else self.stop)
        return self.values[a - self.start:b - self.start]

    def sup_norm(self) -> float:
        return sup_norm(self.values)


def sup_norm(values: np.ndarray) -> float:
    """max |v| over ``values``, 0 for none."""
    if np.iscomplexobj(values):
        # |v| a block at a time: no float array as long as the values
        return max((float(np.max(np.abs(values[k:k + HASH_BLOCK])))
                    for k in range(0, len(values), HASH_BLOCK)), default=0.0)
    # real values need no array of |v|: their extremes decide; + 0.0
    # turns the -0.0 that a max over -0.0 entries keeps into 0.0
    return float(max(values.max(initial=0.0), -values.min(initial=0.0))) + 0.0


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
        partial tables get caught.  A zero imaginary part reads +0.0, so
        a real track and a complex one agree bit for bit once copied to
        complex, whichever range is read.
        """
        values = []
        # entry k's digits in base len(alphabet), lowest first, spell its
        # pattern; a missing one stops the loop before any array is built
        for letters in itertools.product(alphabet, repeat=len(self.window)):
            pattern = "".join(reversed(letters))
            if pattern not in self.table:
                raise KeyError(f"observable table misses pattern {pattern!r}")
            values.append(self.table[pattern])
        table = np.array(values, dtype=complex)
        table.imag += 0.0
        return table


def observable_keys(f: Observable, x: PointGen, t0: int, t1: int,
                    table=None) -> tuple[np.ndarray, np.ndarray]:
    """``(key, table)`` with f(t.x) = table[key] for t in [t0, t1], both
    endpoints included: ``table`` is ``f.lookup_array(x.alphabet)``,
    built when not given."""
    if t1 < t0:
        raise ValueError("empty track range")
    w = f.window
    lo, hi = t0 + min(w), t1 + max(w) + 1
    codes = x.codes(lo, hi)
    base = len(x.alphabet)
    lut = f.lookup_array(x.alphabet) if table is None else table
    n = t1 - t0 + 1
    # key = sum_j codes(t + w[j]) base^j by Horner's rule, in place in
    # int64: no temporary per offset
    key = np.zeros(n, dtype=np.int64)
    for off in reversed(w):
        a = t0 + off - lo
        key *= base
        key += codes[a:a + n]
    return key, lut


def observable_track(f: Observable, x: PointGen, t0: int, t1: int,
                     table=None) -> Track:
    """Samples f(t.x) for t in [t0, t1]; both endpoints included
    (``table`` as for :func:`observable_keys`)."""
    key, lut = observable_keys(f, x, t0, t1, table)   # its codes are freed
    # the track is real unless an entry with an imaginary part occurs
    if lut.imag.any():
        seen = np.bincount(key, minlength=len(lut)) > 0
        if lut.imag[seen].any():
            return Track(t0, lut[key])
    return Track(t0, lut.real[key])


def observable_source(f: Observable, x: PointGen):
    """The samples f(t.x) for t in [a, b) as a function of (a, b): a
    sample source that reads them when called and holds none but f's
    lookup table, built once."""
    table = f.lookup_array(x.alphabet)
    return lambda a, b: observable_track(f, x, a, b - 1, table).values


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
