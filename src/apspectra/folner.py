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

from .errors import EmptyShiftRange, MissingSamples, NeverBelow
from .points import Record, Track

__all__ = [
    "FolnerSchedule",
    "Character",
    "EstimatorConfig",
    "Converged",
    "Oscillating",
    "Undecided",
    "MeanEstimate",
    "AdmissibleSeminorm",
    "StabilizationReport",
    "WindowSegments",
    "lag_window_sums",
    "sliding_sums",
    "max_sliding_sums",
    "estimate",
    "partial_means",
    "upper_mean",
    "uniform_mean",
    "seminorm_eval",
    "stabilization_check",
    "as_dense",
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


class Character(Record):
    """A character of the integers, t -> exp(2*pi*i*theta*t)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % 1.0)

    def __call__(self, t):
        return np.exp(2j * np.pi * self.theta * np.asarray(t, dtype=float))

    def conj_values(self, t0: int, t1: int) -> np.ndarray:
        """conj(xi(t)) for t in [t0, t1)."""
        z = -2j * np.pi * self.theta * np.arange(t0, t1, dtype=float)
        return np.exp(z, out=z)


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
# sample access
# ---------------------------------------------------------------------------


def as_dense(samples: Track, lo: int, hi: int) -> np.ndarray:
    """Values of the track ``samples`` on [lo, hi), a view of its array.

    The first coordinate the track lacks raises :class:`MissingSamples`.
    """
    if hi <= lo:
        return np.zeros(0)
    if lo < samples.start or hi > samples.stop:
        raise MissingSamples(lo if lo < samples.start else samples.stop)
    return samples.values[lo - samples.start:hi - samples.start]


# segments that start in one block of this many coordinates are summed
# together, so a schedule of many short windows costs no Python step per
# segment, and a run of segments is at most this much longer than its
# longest segment
RUN_BLOCK = 1 << 16


class WindowSegments:
    """Schedule windows cut at their ends into segments.

    ``ends`` are the sorted distinct window ends; window n covers the
    segments from ``ends[first[n]]`` to ``ends[last[n]]``, so a window
    sum is a difference of cumulative segment sums.
    """

    def __init__(self, windows):
        # sorted in Python: np.unique imports numpy.ma, about 1 MiB
        self.ends = np.array(sorted({e for s, l in windows for e in (s, s + l)}))
        self.first = np.searchsorted(self.ends, [s for s, _ in windows])
        self.last = np.searchsorted(self.ends, [s + l for s, l in windows])

    def sums(self, values: np.ndarray, start: int, phase=None) -> np.ndarray:
        """Sums of ``values`` over each window, ``values[0]`` sitting at
        coordinate ``start``.  ``phase(a, b)``, when given, is the
        conjugate character on [a, b), and the sums are of ``values``
        times it.

        Integer input without a phase sums exactly in int64, one
        ``reduceat`` over the span.  Float and complex input is summed
        one run of segments at a time (see :meth:`parts`): the run times
        its slice of the character, reduced by ``reduceat`` at its
        segment ends, which adds each segment in the order the
        span-wide ``reduceat`` would, so the sums keep its bits; a
        pairwise ``sum`` would not.  No array of the span's length is
        formed.
        """
        ends = self.ends
        if phase is None and values.dtype.kind not in "fc":
            lo, hi = ends[0], ends[-1]
            return self.totals(np.add.reduceat(values[lo - start:hi - start],
                                               ends[:-1] - lo, dtype=np.int64))
        seg = np.empty(len(ends) - 1, dtype=complex)
        for i, j, part in self.parts(values, start):
            if phase is not None:
                part *= phase(ends[i], ends[j])
            seg[i:j] = np.add.reduceat(part, ends[i:j] - ends[i])
        return self.totals(seg)

    def parts(self, values: np.ndarray, start: int, before: int = 0):
        """Runs of whole segments as ``(i, j, part)``: segments i to j - 1,
        and ``part`` a complex copy of ``values`` on [ends[i] - before,
        ends[j]), ``values[0]`` sitting at coordinate ``start``.  A run
        holds the segments that start in one block of ``RUN_BLOCK``
        coordinates."""
        block = (self.ends[:-1] - self.ends[0]) // RUN_BLOCK
        cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(block)]
        for i, j in zip(cuts, cuts[1:]):
            a, b = self.ends[i] - before - start, self.ends[j] - start
            yield i, j, values[a:b].astype(complex)

    def totals(self, seg: np.ndarray) -> np.ndarray:
        """Window totals from segment sums, row i of ``seg`` summing the
        segment [ends[i], ends[i + 1])."""
        cum = np.zeros((len(self.ends),) + seg.shape[1:], dtype=seg.dtype)
        np.cumsum(seg, axis=0, out=cum[1:])
        return cum[self.last] - cum[self.first]


def lag_window_sums(values: np.ndarray, start: int, windows,
                    max_lag: int) -> np.ndarray:
    """Lag sums sum_{t in [s, s + l)} v(t) conj(v(t - k)) per window and lag.

    Row n, column k holds window n at lag k = 0..max_lag.  ``values[0]``
    sits at coordinate ``start`` and the array must cover every window
    and the ``max_lag`` coordinates before it.  The span is cut at the
    window ends into segments whose lag sums are one BLAS dot product
    each, over the complex copy of a run of segments; a window's row is
    a difference of cumulative segment sums, so no array of the span's
    length is formed.
    """
    segments = WindowSegments(windows)
    ends = segments.ends.tolist()
    seg = np.empty((len(ends) - 1, max_lag + 1), dtype=complex)
    for i, j, part in segments.parts(values, start, max_lag):
        origin = ends[i] - max_lag          # the coordinate of part[0]
        for m in range(i, j):
            a, b = ends[m] - origin, ends[m + 1] - origin
            cur = part[a:b]
            for k in range(max_lag + 1):
                seg[m, k] = np.vdot(part[a - k:b - k], cur)
    return segments.totals(seg)


def sliding_sums(values: np.ndarray, length: int) -> np.ndarray:
    """Sums of every run of ``length`` consecutive entries of ``values``."""
    csum = np.cumsum(values)
    sums = csum[length - 1:].copy()
    sums[1:] -= csum[:-length]
    return sums


def max_sliding_sums(values: np.ndarray, length: int, spans,
                     out: np.ndarray) -> list[int]:
    """For each span ``(p, q)``, the largest sum of ``length``
    consecutive entries of the nonnegative int32 array ``values`` that
    start at p..q: ``max(sliding_sums(values, length)[p:q + 1])``,
    exactly, for 0 <= p <= q <= len(values) - length.

    Run i sums to run 0 plus the steps values[length + j] - values[j]
    for j < i.  ``out`` is two int64 rows at least as long as
    ``values``.  The steps go into row 0 in blocks of eight: row r of an
    (8, blocks) view holds step r of every block, so seven vector adds
    give the running sums inside all blocks at once, and only the block
    totals go through a serial prefix sum.  The spans share that one
    pass: a span reads the maxima of the blocks it covers whole and the
    rows of the two blocks its ends cut.
    """
    m = len(values) - length
    full = m // 8
    # the steps fit int32; they pass through row 1 on their way to row 0
    flat = out[1].view(np.int32)[:8 * full]
    np.subtract(values[length:length + 8 * full], values[:8 * full], out=flat)
    steps = out[0, :8 * full].reshape(8, full)
    np.copyto(steps, flat.reshape(full, 8).T)
    for r in range(1, 8):
        np.add(steps[r - 1], steps[r], out=steps[r])
    best, before = out[1, :full], out[1, full:2 * full]
    np.max(steps, axis=0, out=best)
    np.cumsum(steps[7], out=before)
    before -= steps[7]                # the totals of the blocks on the left
    best += before
    total = int(before[-1] + steps[7, -1]) if full else 0
    # the last m % 8 steps run on from the end of the blocks
    tail = np.cumsum(values[length + 8 * full:] - values[8 * full:m],
                     dtype=np.int64)
    first = int(values[:length].sum(dtype=np.int64))
    tops = []
    for p, q in spans:
        # run i >= 1 is entry i - 1 of the blocks, or of the tail after them
        found = [0] if p == 0 else []
        k0, k1 = max(p, 1) - 1, min(q, 8 * full) - 1
        if k0 <= k1:
            (b0, r0), (b1, r1) = divmod(k0, 8), divmod(k1, 8)
            if b0 == b1:
                found.append(steps[r0:r1 + 1, b0].max() + before[b0])
            else:
                found += [steps[r0:, b0].max() + before[b0],
                          steps[:r1 + 1, b1].max() + before[b1]]
                if b0 + 1 < b1:
                    found.append(best[b0 + 1:b1].max())
        j0, j1 = max(p - 1, 8 * full) - 8 * full, q - 1 - 8 * full
        if j0 <= j1:
            found.append(total + tail[j0:j1 + 1].max())
        tops.append(first + int(max(found)))
    return tops


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def partial_means(samples: Track, schedule: FolnerSchedule,
                  config: EstimatorConfig = EstimatorConfig()) -> MeanEstimate:
    """Partial window averages (1/|B_n|) sum_{t in B_n} samples[t]."""
    lo, hi = schedule.span()
    dense = as_dense(samples, lo, hi)
    sums = WindowSegments(schedule.windows).sums(dense, lo)
    return estimate(sums / schedule.lengths(), Track(lo, dense).sup_norm(),
                    config)


def upper_mean(samples: Track, schedule: FolnerSchedule, tail: int = 5) -> float:
    """Finite proxy for the upper mean: tail max of window averages of |h|."""
    est = partial_means(Track(samples.start, np.abs(samples.values)), schedule,
                        EstimatorConfig(tail=tail))
    return float(np.max(est.tail_values()).real)


def _real_dense(samples: Track, lo: int, hi: int) -> np.ndarray:
    dense = as_dense(samples, lo, hi)
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
    sup_h = float(np.max(as_dense(view, lo - budget, hi + budget), initial=0.0))

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
