"""Window schedules and averaging estimators on the integers.

Everything downstream averages along a nested family of finite integer
windows.  The estimators here never return bare numbers for limits: they
return the whole trajectory of partial window averages together with a
verdict (converged / oscillating / undecided), so that finite-scale
artifacts stay distinguishable from genuine convergence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyShiftRange, NeverBelow
from .points import Record, Track, sup_norm

__all__ = [
    "FolnerSchedule",
    "Character",
    "phases",
    "grid_thetas",
    "phase_sums",
    "EstimatorConfig",
    "Converged",
    "Oscillating",
    "Undecided",
    "MeanEstimate",
    "AdmissibleSeminorm",
    "StabilizationReport",
    "Sweep",
    "WindowSegments",
    "sliding_sums",
    "max_sliding_sums",
    "estimate",
    "partial_means",
    "upper_mean",
    "uniform_mean",
    "seminorm_eval",
    "stabilization_check",
]


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


class FolnerSchedule(Record):
    """A nested family of finite integer windows B_1, B_2, ...

    Each window is a half-open interval stored as ``(start, length)``.
    Window lengths must never decrease; every built-in kind except the
    alternating one grows strictly.  The alternating schedule swings
    between right windows ``{0..n}`` (n even) and left windows
    ``{-n..-1}`` (n odd), so consecutive lengths repeat.
    """

    kind: str
    windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.windows:
            raise ValueError("schedule needs at least one window")
        lengths = [length for _, length in self.windows]
        if any(length <= 0 for length in lengths):
            raise ValueError("windows must be nonempty")
        strict = self.kind != "alternating"
        for a, b in zip(lengths, lengths[1:]):
            if b < a or (strict and b == a):
                raise ValueError("window lengths must grow with n")

    @classmethod
    def intervals(cls, base: int = 100, n_max: int = 10) -> "FolnerSchedule":
        """B_n = [0, base*n)."""
        if base <= 0 or n_max <= 0:
            raise ValueError("base and n_max must be positive")
        return cls("intervals", tuple((0, base * n) for n in range(1, n_max + 1)))

    @classmethod
    def dyadic(cls, n_max: int = 16) -> "FolnerSchedule":
        """B_n = {1, ..., 2^n}."""
        if n_max <= 0:
            raise ValueError("n_max must be positive")
        return cls("dyadic", tuple((1, 2 ** n) for n in range(1, n_max + 1)))

    @classmethod
    def alternating(cls, n_max: int = 16) -> "FolnerSchedule":
        """B_n = {0..n} for even n, {-n..-1} for odd n."""
        if n_max <= 0:
            raise ValueError("n_max must be positive")
        wins = []
        for n in range(1, n_max + 1):
            if n % 2 == 0:
                wins.append((0, n + 1))
            else:
                wins.append((-n, n))
        return cls("alternating", tuple(wins))

    @classmethod
    def custom(cls, windows) -> "FolnerSchedule":
        return cls("custom", tuple((int(s), int(l)) for s, l in windows))

    def __len__(self) -> int:
        return len(self.windows)

    def window(self, n: int) -> tuple[int, int]:
        """1-based access to B_n."""
        if not 1 <= n <= len(self.windows):
            raise IndexError(f"schedule has no window index {n}")
        return self.windows[n - 1]

    def span(self) -> tuple[int, int]:
        """Smallest half-open interval containing every window."""
        lo = min(s for s, _ in self.windows)
        hi = max(s + l for s, l in self.windows)
        return lo, hi

    def largest_length(self) -> int:
        return max(l for _, l in self.windows)

    def lengths(self) -> np.ndarray:
        return np.array([l for _, l in self.windows])

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "n_max": len(self.windows),
            "windows": [list(w) for w in self.windows],
        }


PHASE_TABLE = 256       # e(-theta t) = e(-theta (t - r)) e(-theta r), r = t mod 256


def phases(theta, t0: int, n: int, tail=0.0) -> np.ndarray:
    """e(-theta t) for t in [t0, t0 + n), a row per theta of an array:
    the program's one exponential.  The outer product of e(-theta r),
    r < ``PHASE_TABLE``, and e(-theta a) at the multiples a of it, each
    with theta x (plus ``tail`` x, the rest of a rounded theta such as
    j / m) reduced mod 1 exactly first: theta's leading 24 bits times
    |x| < 2^29 is exact.  The value at t is theta and t's alone, never
    the window's, and good to a few ulp however large |t|."""
    theta = np.asarray(theta, dtype=float)[..., None]
    lo, hi = t0 // PHASE_TABLE, -(-(t0 + n) // PHASE_TABLE)
    x = np.concatenate((np.arange(PHASE_TABLE), np.arange(lo, hi) * PHASE_TABLE))
    lead = theta.astype(np.float32).astype(float)
    rest = theta - lead + np.asarray(tail, dtype=float)[..., None]
    table = np.exp(-2j * np.pi * (np.fmod(lead * x, 1.0) + rest * x))
    rows = table[..., PHASE_TABLE:, None] * table[..., None, :PHASE_TABLE]
    skip = t0 - lo * PHASE_TABLE
    return rows.reshape(theta.shape[:-1] + (-1,))[..., skip:skip + n]


def grid_thetas(j, m: int) -> tuple[np.ndarray, np.ndarray]:
    """j/m rounded and its rest, exact for integers j and m < 2^26 (two
    26-bit halves of the rounded j/m times m are exact), for ``phases``."""
    theta = np.asarray(j) / m
    split = theta * 134217729.0         # 2^27 + 1
    head = split - (split - theta)
    return theta, ((j - head * m) - (theta - head) * m) / m


def phase_sums(m: int, t0: int, values: np.ndarray) -> np.ndarray:
    """sum_t values[t - t0] e(-jt/m), t in [t0, t0 + len(values)), for each
    j < m, from kernel rows 2^16 entries at a time, given ``grid_thetas``."""
    theta, tail = grid_thetas(np.arange(m), m)
    block = max(1, (1 << 16) // (len(values) + 2 * PHASE_TABLE))
    return np.concatenate([phases(theta[i:i + block], t0, len(values),
                                  tail[i:i + block]) @ values
                           for i in range(0, m, block)])


class Character(Record):
    """A character of the integers, t -> exp(2*pi*i*theta*t), 0 <= theta < 1."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % 1.0 % 1.0)  # -1e-17 % 1.0 is 1.0

    def __call__(self, t: int) -> complex:
        return complex(phases(self.theta, t, 1)[0]).conjugate()

    def conj_values(self, t0: int, t1: int) -> np.ndarray:
        """conj(xi(t)) for t in [t0, t1)."""
        return phases(self.theta, t0, t1 - t0)


# ---------------------------------------------------------------------------
# mean estimates
# ---------------------------------------------------------------------------


class EstimatorConfig(Record):
    """Knobs for turning a trajectory of partial means into a verdict.

    Tolerances are relative to the sup norm of the averaged samples.
    """

    tail: int = 5
    convergence_tol: float = 1e-3
    oscillation_threshold: float = 0.1


class Converged(Record):
    limit: complex
    residual: float


class Oscillating(Record):
    liminf: float
    limsup: float


class Undecided(Record):
    reason: str = ""


Verdict = Converged | Oscillating | Undecided


class MeanEstimate(Record):
    """Trajectory of partial window averages plus a convergence verdict."""

    partials: tuple[tuple[int, complex], ...]
    verdict: Verdict
    tail_spread: float
    tail: int
    sup_samples: float

    @property
    def values(self) -> np.ndarray:
        return np.array([a for _, a in self.partials])

    @property
    def last(self) -> complex:
        return self.partials[-1][1]

    def tail_values(self) -> np.ndarray:
        return self.values[-self.tail:]

    def tail_max(self) -> float:
        """Max modulus over the retained tail; the finite limsup proxy."""
        return float(np.max(np.abs(self.tail_values())))

    def describe(self) -> dict:
        out = {
            "partials": [[n, [complex(a).real, complex(a).imag]]
                         for n, a in self.partials],
            "tail_spread": self.tail_spread,
            "tail": self.tail,
        }
        v = self.verdict
        if isinstance(v, Converged):
            lim = complex(v.limit)
            out["verdict"] = {"kind": "converged", "limit": [lim.real, lim.imag],
                              "residual": v.residual}
        elif isinstance(v, Oscillating):
            out["verdict"] = {"kind": "oscillating", "liminf": v.liminf,
                              "limsup": v.limsup}
        else:
            out["verdict"] = {"kind": "undecided", "reason": v.reason}
        return out


def _spread(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    diff = values[:, None] - values[None, :]
    return float(np.max(np.abs(diff)))


def _judge(values: np.ndarray, sup_samples: float,
           cfg: EstimatorConfig) -> tuple[Verdict, float]:
    """Assign a verdict to a trajectory of partial means.

    Converged needs the spread over the last ``tail`` partials to fall
    under the tolerance.  Oscillating needs the spread to stay above the
    oscillation threshold for every sliding tail-window over the recent
    partials, which guards against a single outlier reading as an
    oscillation.
    """
    k = min(cfg.tail, len(values))
    tail_vals = values[-k:]
    spread = _spread(tail_vals)
    scale = max(sup_samples, 0.0)
    conv_tol = cfg.convergence_tol * scale if scale > 0 else cfg.convergence_tol
    osc_tol = cfg.oscillation_threshold * scale if scale > 0 else cfg.oscillation_threshold

    if spread < conv_tol or scale == 0.0:
        limit = complex(np.mean(tail_vals))
        return Converged(limit, spread), spread

    persistent = True
    for back in range(k):
        hi = len(values) - back
        lo = max(0, hi - k)
        if hi - lo < 2:
            break
        if _spread(values[lo:hi]) < osc_tol:
            persistent = False
            break
    if persistent and spread >= osc_tol:
        if np.max(np.abs(tail_vals.imag)) < 1e-9 * max(scale, 1.0):
            lo, hi = float(np.min(tail_vals.real)), float(np.max(tail_vals.real))
        else:
            mods = np.abs(tail_vals)
            lo, hi = float(np.min(mods)), float(np.max(mods))
        return Oscillating(lo, hi), spread

    return Undecided("tail neither settled nor persistently oscillating"), spread


def estimate(avgs: np.ndarray, sup: float, config: EstimatorConfig) -> MeanEstimate:
    """The partial means ``avgs`` (window n at index n - 1) with their verdict.

    ``sup`` is the sup norm of the averaged samples, which scales the
    verdict tolerances.
    """
    verdict, spread = _judge(avgs, sup, config)
    partials = tuple((n, complex(a)) for n, a in enumerate(avgs, start=1))
    return MeanEstimate(partials, verdict, spread, min(config.tail, len(avgs)), sup)


# ---------------------------------------------------------------------------
# window sums
# ---------------------------------------------------------------------------


# the order of every window sum: a segment of more than this many values
# is read in consecutive blocks of this many, counted from its own start,
# and sums to the left-to-right sum of its blocks; shorter segments that
# start in one block of this many coordinates form a run, read and summed
# together, so many short windows cost no Python step per segment
RUN_BLOCK = 1 << 16


class Sweep(Record):
    """The window means of one :meth:`WindowSegments.sweep` of samples v."""

    means: tuple                    # of v conj(xi), xi each theta's character
    energy: np.ndarray | None       # of |v|^2
    lags: np.ndarray | None         # of v(t) conj(v(t - k)), column k a lag
    peaks: np.ndarray               # the largest |v| on each window
    sup: float                      # the largest |v| on every coordinate read


class WindowSegments:
    """Schedule windows cut at their ends into segments.

    ``ends`` are the sorted distinct window ends; window n covers the
    segments from ``ends[first[n]]`` to ``ends[last[n]]``, so a window
    sum is a difference of cumulative segment sums.  They are read from a
    sample source, a function ``source(a, b)`` giving the values on
    [a, b) (:meth:`Track.read`, :func:`observable_source`), a piece at a
    time, so no array of the span's length is formed.  A piece
    ``[a, b, index, joins]`` is a run of short segments, starting at the
    offsets ``index`` of [a, b), or one block of a long segment, which
    ``joins`` the piece before it unless it is the segment's first
    (:data:`RUN_BLOCK`).  Each piece is summed by one ``reduceat``, or one
    ``np.vdot`` per segment and lag, and :meth:`combine` adds a long
    segment's blocks left to right: that is the order of every sum.
    :meth:`sweep` reads every character, energy and lag average, and
    :meth:`sums` the bare samples; no other module reads a piece.
    """

    def __init__(self, windows):
        # sorted in Python: np.unique imports numpy.ma, about 1 MiB
        ends = sorted({e for s, l in windows for e in (s, s + l)})
        self.ends = np.array(ends)
        self.first = np.searchsorted(self.ends, [s for s, _ in windows])
        self.last = np.searchsorted(self.ends, [s + l for s, l in windows])
        self.pieces, run = [], None     # run: the open run of short segments
        for a, b in zip(ends, ends[1:]):
            if b - a > RUN_BLOCK:
                self.pieces += [[c, min(c + RUN_BLOCK, b), [0], c > a]
                                for c in range(a, b, RUN_BLOCK)]
                run = None
            elif run and ((a - ends[0]) // RUN_BLOCK
                          == (run[0] - ends[0]) // RUN_BLOCK):
                run[1] = b
                run[2].append(a - run[0])
            else:
                run = [a, b, [0], False]
                self.pieces.append(run)
        for piece in self.pieces:       # reduceat would convert a list per call
            piece[2] = np.array(piece[2])

    def reduce(self, piece, values: np.ndarray) -> np.ndarray:
        """The segment sums of a piece by one ``reduceat``, from
        ``values`` on it, as complex; integer values sum exactly in int64."""
        if values.dtype.kind not in "fc":
            return np.add.reduceat(values, piece[2], dtype=np.int64)
        return np.add.reduceat(np.asarray(values, dtype=complex), piece[2])

    def combine(self, partials, op=np.add) -> np.ndarray:
        """Segment sums from the sums of every piece, in order: each block
        that joins a long segment is joined to those before it by ``op``."""
        sums = []
        for piece, part in zip(self.pieces, partials):
            if piece[3]:
                sums[-1] = op(sums[-1], part)
            else:
                sums.append(part)
        return np.concatenate(sums)

    def sums(self, source) -> np.ndarray:
        """Sums of the source's values over each window."""
        if len(self.pieces) == 1:       # most schedules: no generator, no combine
            p = self.pieces[0]
            return self.totals(self.reduce(p, source(*p[:2])))
        return self.totals(self.combine(self.reduce(p, source(*p[:2]))
                                        for p in self.pieces))

    def sweep(self, source, thetas=(), energy: bool = False,
              max_lag: int | None = None) -> Sweep:
        """The :class:`Sweep` of the samples ``source(a, b)``, each piece
        read once: with the ``max_lag`` coordinates before it, as complex
        values, when lags are asked for, a lag sum being one ``np.vdot``."""
        back, chars = max_lag or 0, [Character(theta) for theta in thetas]
        means, squares, lags, peaks, sup = [[] for _ in chars], [], [], [], 0.0
        for piece in self.pieces:
            a, b = piece[:2]
            w = source(a - back, b)
            if max_lag is not None:
                w = np.asarray(w, dtype=complex)
                cuts = (back + piece[2]).tolist() + [len(w)]
                lags.append(np.array([[np.vdot(w[c - k:d - k], w[c:d])
                                       for k in range(max_lag + 1)]
                                      for c, d in zip(cuts, cuts[1:])]))
            v = w[back:]
            for m, xi in enumerate(chars):
                phase = None    # frees the last piece of a character first
                phase = xi.conj_values(a, b)
                # not in place: numpy rounds an in-place product of one
                # value otherwise than a product over the span
                means[m].append(self.reduce(piece, v * phase))
            phase = None        # |w| is held beside no piece of a character
            size = np.abs(w)
            sup = max(sup, float(size.max()))
            peaks.append(np.maximum.reduceat(size[back:], piece[2]))
            if energy:
                squares.append(self.reduce(piece, size[back:] ** 2))
            del size
        lengths = self.ends[self.last] - self.ends[self.first]

        def window_means(partials):     # .T: the lag sums of a window are a row
            return (self.totals(self.combine(partials)).T / lengths).T
        # a window's peak is a reduceat over (first, last); 0 pads the end
        top = np.append(self.combine(peaks, np.maximum), 0.0)
        pairs = np.ravel((self.first, self.last), order="F")
        return Sweep(tuple(window_means(row) for row in means),
                     window_means(squares) if energy else None,
                     None if max_lag is None else window_means(lags),
                     np.maximum.reduceat(top, pairs)[::2], sup)

    def totals(self, seg: np.ndarray) -> np.ndarray:
        """Window totals from segment sums, row i of ``seg`` summing the
        segment [ends[i], ends[i + 1])."""
        cum = np.zeros((len(self.ends),) + seg.shape[1:], dtype=seg.dtype)
        np.cumsum(seg, axis=0, out=cum[1:])
        return cum[self.last] - cum[self.first]


def sliding_sums(values: np.ndarray, length: int) -> np.ndarray:
    """Sums of every run of ``length`` consecutive entries of ``values``."""
    csum = np.cumsum(values)
    sums = csum[length - 1:].copy()
    sums[1:] -= csum[:-length]
    return sums


# the steps max_sliding_sums takes at once: its scratch is two int64 rows
# of this many entries
SLIDE_CHUNK = 1 << 14


def max_sliding_sums(values: np.ndarray, length: int, spans) -> list[int]:
    """For each span ``(p, q)``, the largest sum of ``length``
    consecutive entries of the nonnegative int32 array ``values`` that
    start at p..q: ``max(sliding_sums(values, length)[p:q + 1])``,
    exactly, for 0 <= p <= q <= len(values) - length.

    Run i + 1 sums to run i plus the step values[length + i] - values[i].
    The steps are taken ``SLIDE_CHUNK`` at a time, padded with zero steps
    to fill the chunk's blocks of eight, into row 0: row r of an
    (8, blocks) view holds step r of every block, so seven vector adds,
    from the run before the chunk, give the runs inside all blocks at
    once, and only the block totals go through a serial prefix sum.  The
    spans share that one pass: a span reads the maxima of the blocks it
    covers whole and the rows of the two blocks its ends cut.
    """
    m = len(values) - length
    full = -(-min(m, SLIDE_CHUNK) // 8)         # blocks in a chunk
    out = np.empty((2, 8 * full), dtype=np.int64)
    # the steps fit int32; they pass through row 1 on their way to row 0
    flat = out[1].view(np.int32)[:8 * full]
    steps = out[0].reshape(8, full)
    rows, blocks = list(steps), flat.reshape(full, 8).T
    best, before = out[1, 4 * full:5 * full], out[1, 5 * full:6 * full]
    before[:1] = 0                    # the totals of the blocks on the left
    run = int(values[:length].sum(dtype=np.int64))     # the run before a chunk
    found = [[run] if p == 0 else [] for p, _ in spans]
    for j in range(0, m, SLIDE_CHUNK):
        size = min(SLIDE_CHUNK, m - j)
        np.subtract(values[j + length:j + length + size], values[j:j + size],
                    out=flat[:size])
        flat[size:] = 0
        np.copyto(steps, blocks)
        steps[0, 0] += run
        for lo, hi in zip(rows, rows[1:]):
            np.add(lo, hi, out=hi)
        np.maximum.reduce(steps, out=best)
        np.add.accumulate(rows[7][:-1], out=before[1:])
        best += before
        whole = np.maximum.reduce(best)     # the padding repeats the last run
        for (p, q), tops in zip(spans, found):
            # run j + 1 + k is entry k of the blocks
            k0, k1 = max(p - j, 1) - 1, min(q - j, size) - 1
            if k0 == 0 and k1 == size - 1:
                tops.append(whole)
            elif k0 <= k1:
                (b0, r0), (b1, r1) = divmod(k0, 8), divmod(k1, 8)
                if b0 == b1:
                    tops.append(steps[r0:r1 + 1, b0].max() + before[b0])
                else:
                    tops += [steps[r0:, b0].max() + before[b0],
                             steps[:r1 + 1, b1].max() + before[b1]]
                    if b0 + 1 < b1:
                        tops.append(best[b0 + 1:b1].max())
        run = int(before[-1] + rows[7][-1])
    return [int(max(tops)) for tops in found]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def partial_means(samples: Track, schedule: FolnerSchedule,
                  config: EstimatorConfig = EstimatorConfig()) -> MeanEstimate:
    """Partial window averages (1/|B_n|) sum_{t in B_n} samples[t]."""
    sums = WindowSegments(schedule.windows).sums(samples.read)
    return estimate(sums / schedule.lengths(),
                    sup_norm(samples.read(*schedule.span())), config)


def upper_mean(samples: Track, schedule: FolnerSchedule, tail: int = 5) -> float:
    """Finite proxy for the upper mean: tail max of window averages of |h|."""
    est = partial_means(Track(samples.start, np.abs(samples.values)), schedule,
                        EstimatorConfig(tail=tail))
    return float(np.max(est.tail_values()).real)


def _real_dense(samples: Track, lo: int, hi: int) -> np.ndarray:
    dense = samples.read(lo, hi)
    if np.iscomplexobj(dense):
        if np.max(np.abs(dense.imag), initial=0.0) > 0.0:
            raise TypeError("uniform means are defined for real-valued samples")
        dense = dense.real
    return np.asarray(dense, dtype=float)


def uniform_mean(samples: Track, schedule: FolnerSchedule, n: int,
                 shifts: tuple[int, int]) -> tuple[float, int]:
    """Sup over scanned shifts s of the average over B_n + s.

    ``shifts`` is the inclusive range (s_min, s_max).  Returns the sup
    and the smallest shift achieving it.
    """
    s_min, s_max = shifts
    if s_max < s_min:
        raise EmptyShiftRange(f"empty shift range {shifts}")
    start, length = schedule.window(n)
    lo = start + s_min
    hi = start + s_max + length
    sums = sliding_sums(_real_dense(samples, lo, hi), length)  # one per shift
    idx = int(np.argmax(sums))
    return float(sums[idx] / length), s_min + idx


# ---------------------------------------------------------------------------
# admissible seminorms
# ---------------------------------------------------------------------------


class AdmissibleSeminorm(Record):
    """Shift-invariant monotone seminorm with N(1) = 1.

    kind "sup" ignores the schedule; "mean" is the upper-mean proxy of
    |h|; "weyl" takes the largest uniform mean of |h| over the last
    ``tail`` window indices, scanning shifts with |s| <= shift_budget
    (by default four times the largest window).
    """

    kind: str
    schedule: FolnerSchedule | None = None
    shift_budget: int | None = None
    tail: int = 5

    def __post_init__(self):
        if self.kind not in ("sup", "mean", "weyl"):
            raise ValueError(f"unknown seminorm kind {self.kind!r}")
        if self.kind != "sup" and self.schedule is None:
            raise ValueError(f"{self.kind} seminorm needs a schedule")


def seminorm_eval(norm: AdmissibleSeminorm, samples: Track) -> float:
    """Evaluate an admissible seminorm on a track."""
    if norm.kind == "sup":
        return samples.sup_norm()
    if norm.kind == "mean":
        return upper_mean(samples, norm.schedule, tail=norm.tail)
    # weyl: max of uniform means of |h| over the last `tail` indices
    sched = norm.schedule
    budget = norm.shift_budget
    if budget is None:
        budget = 4 * sched.largest_length()
    best = -math.inf
    shifted = Track(samples.start, np.abs(samples.values))
    for n in range(max(1, len(sched) - norm.tail + 1), len(sched) + 1):
        value, _ = uniform_mean(shifted, sched, n, (-budget, budget))
        best = max(best, value)
    return best


# ---------------------------------------------------------------------------
# stabilization of uniform means
# ---------------------------------------------------------------------------


class StabilizationReport(Record):
    epsilon: float
    first_n_below: int
    all_later_below: bool
    margin: float
    values: tuple[float, ...]
    slacks: tuple[float, ...]


def stabilization_check(samples: Track, schedule: FolnerSchedule, epsilon: float,
                        shift_budget: int | None = None) -> StabilizationReport:
    """Find the first window index with uniform mean of |h| below epsilon.

    Once one index passes, all later scanned indices must pass up to a
    boundary slack 2*sup|h|*(reach of the certifying window / |B_n|),
    which is the exact window-exchange error for interval windows.
    Raises :class:`NeverBelow` when no scanned index qualifies.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    budget = shift_budget if shift_budget is not None else 4 * schedule.largest_length()
    view = Track(samples.start, np.abs(samples.values))
    values = []
    for n in range(1, len(schedule) + 1):
        value, _ = uniform_mean(view, schedule, n, (-budget, budget))
        values.append(value)
    lo, hi = schedule.span()
    sup_h = float(np.max(view.read(lo - budget, hi + budget), initial=0.0))

    first = next((n for n, v in enumerate(values, start=1) if v < epsilon), None)
    if first is None:
        raise NeverBelow(epsilon, values)

    s0, l0 = schedule.window(first)
    reach = max(abs(s0), abs(s0 + l0))
    slacks, ok, margin = [], True, math.inf
    for n in range(1, len(schedule) + 1):
        _, ln = schedule.window(n)
        slack = 2.0 * sup_h * min(1.0, reach / ln)
        slacks.append(slack)
        if n > first:
            gap = epsilon + slack - values[n - 1]
            margin = min(margin, gap)
            if gap <= 0:
                ok = False
    if margin is math.inf:
        margin = epsilon - values[first - 1]
    return StabilizationReport(epsilon, first, ok, float(margin),
                               tuple(values), tuple(slacks))
