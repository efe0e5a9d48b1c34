"""Fourier coefficients along orbits, frequency detection and Parseval tests.

The grid transform comes in two independently coded routes (a direct
sum and a fast transform) that are cross-checked against each other;
off-grid frequencies are recovered by persistence filtering over grids
of increasing length, then refined by interpolating the peak between
grid bins and polishing with a safeguarded Newton ascent, since the
sequences of interest carry irrational frequencies that no rational
grid hits exactly.
"""

from __future__ import annotations


import numpy as np

from .folner import (Character, Converged, EstimatorConfig, FolnerSchedule,
                     MeanEstimate, Oscillating, WindowSegments, as_dense,
                     estimate, partial_means, sliding_sums)
from .points import Observable, PointGen, Record, Track, observable_track

__all__ = [
    "fourier_bohr",
    "FourierBohrGrid",
    "fourier_bohr_grid",
    "fourier_bohr_grids",
    "DetectedFrequency",
    "detect_frequencies",
    "ParsevalTrajectory",
    "parseval_defect",
    "EigenfunctionSample",
    "eigenfunction_sample",
    "WeylUniformity",
    "weyl_uniform_fb",
    "SpectralReport",
    "spectral_report",
]


def _character_means(values: np.ndarray, phase: np.ndarray,
                     schedule: FolnerSchedule) -> np.ndarray:
    """Window means of values * phase, both given on the schedule span."""
    segments = WindowSegments(schedule.windows)
    return segments.sums(values * phase, schedule.span()[0]) / schedule.lengths()


def _windowed_character_means(track: Track, theta: float,
                              schedule: FolnerSchedule) -> np.ndarray:
    lo, hi = schedule.span()
    return _character_means(as_dense(track, lo, hi),
                            Character(theta).conj_values(lo, hi), schedule)


def fourier_bohr(f: Observable, x: PointGen, theta: float,
                 schedule: FolnerSchedule,
                 config: EstimatorConfig = EstimatorConfig()) -> MeanEstimate:
    """Averages of f(t.x) against conj(character theta) along the schedule."""
    lo, hi = schedule.span()
    track = observable_track(f, x, lo, hi - 1)
    return estimate(_windowed_character_means(track, theta, schedule),
                    track.sup_norm(), config)


# ---------------------------------------------------------------------------
# grid transforms
# ---------------------------------------------------------------------------


class FourierBohrGrid(Record):
    """Coefficients c_j = (1/N) sum_t f(t.x) e(-j t / N) on the grid j/N."""

    n: int
    amplitudes: np.ndarray
    method: str
    cross_residual: float | None
    track: np.ndarray               # float when the track is real

    @property
    def thetas(self) -> np.ndarray:
        return np.arange(self.n) / self.n


def _grid_direct(values: np.ndarray) -> np.ndarray:
    # e(-jt/n) is the table entry e(-k/n) at k = jt mod n, computed once
    n = len(values)
    t = np.arange(n, dtype=np.int64)
    table = np.exp(-2j * np.pi * t / n)
    out = np.empty(n, dtype=complex)
    block = max(1, (1 << 22) // max(n, 1))
    for j0 in range(0, n, block):
        j = t[j0:j0 + block]
        out[j] = table[np.outer(j, t) % n] @ values / n
    return out


def fourier_bohr_grid(f: Observable, x: PointGen, n: int,
                      method: str = "fast",
                      direct_check_limit: int = 4096) -> FourierBohrGrid:
    """Grid transform over the window [0, N); two routes cross-checked.

    The fast route is an FFT, a real one for a real track, whose grid is
    then conjugate-symmetric bit for bit; the direct route evaluates the
    defining sum.  Whenever both are computed (always for the direct
    method, and for the fast method up to ``direct_check_limit``) the
    residual of the comparison is recorded and must stay at rounding
    level.
    """
    if method not in ("fast", "direct"):
        raise ValueError("method must be 'fast' or 'direct'")
    return _grid(observable_track(f, x, 0, n - 1).values, method,
                 direct_check_limit)


def fourier_bohr_grids(track: Track, sizes) -> list[FourierBohrGrid]:
    """Fast grid transforms over [0, N) for every N in ``sizes``, ascending,
    all read from one ``track`` that covers [0, max N)."""
    return [_grid(as_dense(track, 0, n)) for n in sorted(sizes)]


def _grid(values: np.ndarray, method: str = "fast",
          direct_check_limit: int = 4096) -> FourierBohrGrid:
    # a real track stays real: the grid keeps a float view of it, no copy
    values = np.asarray(values)
    if not (np.iscomplexobj(values) and values.imag.any()):
        values = np.asarray(values.real, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("grid length must be at least 2")
    if np.iscomplexobj(values):
        fast = np.fft.fft(values) / n
    else:
        # a real track: bin n - j is the conjugate of bin j, bit for bit
        half = np.fft.rfft(values) / n
        fast = np.empty(n, dtype=complex)
        fast[:len(half)] = half
        fast[len(half):] = half[(n + 1) // 2 - 1:0:-1].conj()
    residual = None
    if method == "direct" or n <= direct_check_limit:
        direct = _grid_direct(values)
        scale = max(float(np.max(np.abs(direct))), 1e-30)
        residual = float(np.max(np.abs(fast - direct)) / scale)
        amps = direct if method == "direct" else fast
    else:
        amps = fast
    return FourierBohrGrid(n, amps, method, residual, values)


# ---------------------------------------------------------------------------
# frequency detection
# ---------------------------------------------------------------------------


class DetectedFrequency(Record):
    theta_grid: float
    theta: float
    amplitude: complex
    grid_amplitude: float

    def describe(self) -> dict:
        return {
            "theta_grid": self.theta_grid,
            "theta": self.theta,
            "amplitude": [self.amplitude.real, self.amplitude.imag],
            "amplitude_abs": abs(self.amplitude),
            "grid_amplitude": self.grid_amplitude,
        }


def _circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _peak_offset(amps: np.ndarray, j: int) -> float:
    """Jacobsen's three-bin estimate of the peak's offset from bin j, in bins."""
    left, mid, right = amps[j - 1], amps[j], amps[(j + 1) % len(amps)]
    den = 2.0 * mid - left - right
    offset = ((left - right) / den).real if den != 0 else 0.0
    return min(max(offset, -1.0), 1.0)


def _e_neg(theta: float, x) -> np.ndarray:
    """e(-theta x) at half-integers x, |x| < 2^28, with theta x reduced
    modulo 1 first: theta's leading 24 bits times x is exact in float64,
    so the phase is good to a few ulp of one turn, however large x."""
    lead = float(np.float32(theta))
    return np.exp(-2j * np.pi * (np.fmod(lead * x, 1.0) + (theta - lead) * x))


class _Moments:
    """The centred moments sum_t s^k track[t] e(-theta s), k = 0, 1, 2, where
    s = t - (n - 1)/2, from two short exponential tables per theta.

    With t = q a + b and q near sqrt(n), e(-theta s) is the outer product
    of e(-theta b) over the q columns and e(-theta (q a - (n - 1)/2)) over
    the r = ceil(n / q) rows of the zero-padded track, so each theta
    costs q + r exponentials and one product with the (3 r, q) matrix of
    track, s * track and s^2 * track.
    """

    def __init__(self, track: np.ndarray):
        n = len(track)
        q = 1 << (n.bit_length() // 2)
        r = -(-n // q)
        s = np.arange(r * q) - 0.5 * (n - 1)
        weights = np.zeros((3, r * q), dtype=complex)
        weights[0, :n] = track
        np.multiply(weights[0], s, out=weights[1])
        np.multiply(weights[0], s * s, out=weights[2])
        self.n = n
        self.weights = weights.reshape(3 * r, q)
        self.cols = np.arange(q, dtype=float)
        self.rows = s[::q]

    def __call__(self, theta: float) -> np.ndarray:
        return ((self.weights @ _e_neg(theta, self.cols)).reshape(3, -1)
                @ _e_neg(theta, self.rows))

    def amplitude(self, theta: float) -> complex:
        """(1/n) sum_t track[t] e(-theta t), the 0th moment uncentred."""
        return complex(self(theta)[0] * _e_neg(theta, 0.5 * (self.n - 1)) / self.n)


def _slopes(moments: _Moments, theta: float) -> tuple[float, float]:
    """|A|^2' and |A|^2'' at theta up to one positive factor, where
    A = sum track * e(-theta s) over the centred times s."""
    a, b, c = moments(theta)
    return ((a.conjugate() * b).imag,
            2.0 * np.pi * (abs(b) ** 2 - (a.conjugate() * c).real))


def _newton_refine(moments: _Moments, theta: float,
                   lo: float, hi: float, steps: int) -> float:
    """Safeguarded Newton ascent of |A|^2 on [lo, hi], at most ``steps`` iterates.

    The bracket shrinks to the side the slope points to.  A step that
    leaves it is clamped to an edge of [lo, hi], else bisects, as does a
    step where |A|^2 is not concave; an edge the slope points out of
    collapses the bracket there.  A bracket of one point returns it.
    """
    tol = 0.5e-6 * (hi - lo)
    a, b = lo, hi
    for _ in range(steps):
        d1, d2 = _slopes(moments, theta)
        if d1 > 0:
            a = theta
        else:
            b = theta
        new = theta - d1 / d2 if d2 < 0 else 0.5 * (a + b)
        if new < a:
            new = a if a == lo else 0.5 * (a + b)
        elif new > b:
            new = b if b == hi else 0.5 * (a + b)
        step, theta = new - theta, new
        if abs(step) <= tol:
            break
    return theta


def _persists(grid: FourierBohrGrid, theta0: float, thr: float) -> bool:
    """Is there grid mass >= thr within one cell of theta0 on this stage?"""
    gn = grid.n
    j0 = theta0 * gn
    lo = int(np.floor(j0)) - 1
    best = 0.0
    for k in range(lo, lo + 4):
        if _circ_dist(k / gn, theta0) <= 1.0 / gn + 1e-12:
            best = max(best, abs(grid.amplitudes[k % gn]))
    return best >= thr


def _exact(grids: list[FourierBohrGrid], j: int, tol: float) -> bool:
    """Does every shorter stage hold bin j / n of the largest grid as a grid
    point with the same coefficient, within ``tol``?  So it does when a
    period of the track divides every stage: j / n is then the line's
    frequency, while the maximum of |A|^2 over the window sits off it by
    the other lines' leakage, O(1 / n^2)."""
    base = grids[-1]
    n = base.n
    shorter = [g for g in grids if g.n < n]
    return bool(shorter) and all(
        j * g.n % n == 0
        and abs(g.amplitudes[j * g.n // n] - base.amplitudes[j]) <= tol
        for g in shorter)


# the most peaks detect_frequencies refines, a mirrored pair counting twice
MAX_CANDIDATES = 64


def detect_frequencies(grids: list[FourierBohrGrid],
                       threshold: float | None = None,
                       refine_steps: int = 48) -> list[DetectedFrequency]:
    """Persistent grid peaks, refined off-grid and re-estimated.

    A candidate is a local maximum of the largest grid with amplitude
    at or above the threshold (default 0.02 times the sup of the
    track).  It must be visible within one grid cell on every smaller
    stage, which suppresses leakage spikes that do not persist across
    window lengths.  Each survivor starts from the three-bin
    interpolation of its peak (Jacobsen) and is polished by a
    safeguarded Newton ascent of |A(theta)|^2 inside a bracket of one
    grid cell on each side; ``refine_steps`` caps the Newton iterates,
    each of which costs two short exponential tables (``_Moments``).
    A line that every shorter stage sees at the same grid point with
    the same coefficient (``_exact``: a period divides every stage)
    keeps its grid frequency, its bracket shrunk to that point.

    A real track has |A(theta)| = |A(1 - theta)| and A(1 - theta) the
    conjugate of A(theta), so only peaks in [0, 1/2] are refined and each
    one off 0 and 1/2 brings its mirror along, taking two of the
    ``MAX_CANDIDATES`` slots for the strongest peaks refined.  The
    returned list is sorted by amplitude, largest first; of two equal
    amplitudes, as a mirrored pair has, the larger theta comes first.
    """
    if len(grids) < 2:
        raise ValueError("need at least two grid stages")
    grids = sorted(grids, key=lambda g: g.n)
    base = grids[-1]
    sup = float(np.max(np.abs(base.track), initial=0.0))
    if sup == 0.0:
        return []
    thr = 0.02 * sup if threshold is None else float(threshold)
    thr = max(thr, 1e-12 * sup)
    amps = np.abs(base.amplitudes)
    n = base.n
    real = not np.iscomplexobj(base.track)
    is_peak = (amps >= thr) & (amps >= np.roll(amps, 1)) & (amps >= np.roll(amps, -1))
    if real:
        is_peak[n // 2 + 1:] = False
    candidates, slots = [], 0
    for j in sorted(np.nonzero(is_peak)[0], key=lambda j: -amps[j]):
        slots += 2 if real and 0 < 2 * j < n else 1
        if slots > MAX_CANDIDATES:
            break
        candidates.append(j)

    moments = _Moments(base.track)
    found: list[DetectedFrequency] = []
    for j in candidates:
        theta0 = j / n
        if not all(_persists(g, theta0, thr) for g in grids[:-1]):
            continue
        if _exact(grids, j, 1e-12 * sup):
            start, half = theta0, 0.0
        else:
            start, half = theta0 + _peak_offset(base.amplitudes, j) / n, 1.0 / n
        theta = float(_newton_refine(moments, start, theta0 - half,
                                     theta0 + half, refine_steps)) % 1.0
        if theta == 1.0:       # a tiny negative theta rounds up to 1.0
            theta = 0.0
        amp = moments.amplitude(theta)
        found.append(DetectedFrequency(theta0, theta, amp, float(amps[j])))
        if real and 0 < 2 * j < n:
            found.append(DetectedFrequency((n - j) / n, (1.0 - theta) % 1.0,
                                           amp.conjugate(), float(amps[j])))

    found.sort(key=lambda fr: (-abs(fr.amplitude), -fr.theta))
    kept: list[DetectedFrequency] = []
    for fr in found:
        if all(_circ_dist(fr.theta, other.theta) >= 1.0 / n for other in kept):
            kept.append(fr)
    return kept


# ---------------------------------------------------------------------------
# parseval defect
# ---------------------------------------------------------------------------


class ParsevalTrajectory(Record):
    thetas: tuple[float, ...]
    energy: MeanEstimate
    captured: tuple[float, ...]
    defects: tuple[float, ...]

    @property
    def final_defect(self) -> float:
        return self.defects[-1]

    def describe(self) -> dict:
        return {
            "thetas": list(self.thetas),
            "energy": self.energy.describe(),
            "captured": list(self.captured),
            "defects": list(self.defects),
        }


def parseval_defect(f: Observable, x: PointGen, thetas,
                    schedule: FolnerSchedule,
                    config: EstimatorConfig = EstimatorConfig()) -> ParsevalTrajectory:
    """Per-stage energy minus captured squared amplitudes.

    A vanishing trajectory certifies that the listed frequencies carry
    the full spectral mass of this observable along this point.
    """
    thetas = tuple(float(t) for t in thetas)
    lo, hi = schedule.span()
    track = observable_track(f, x, lo, hi - 1)
    means = [_windowed_character_means(track, t, schedule) for t in thetas]
    return _parseval(track, thetas, means, schedule, config)


def _parseval(track: Track, thetas: tuple, means, schedule: FolnerSchedule,
              config: EstimatorConfig) -> ParsevalTrajectory:
    """Parseval trajectory from the character means of each theta."""
    sq = Track(track.start, np.abs(np.asarray(track.values)) ** 2)
    energy = partial_means(sq, schedule, config=config)
    captured = np.zeros(len(schedule))
    for m in means:
        captured += np.abs(m) ** 2
    defects = tuple(float(e.real - c) for (_, e), c in zip(energy.partials, captured))
    return ParsevalTrajectory(thetas, energy, tuple(float(c) for c in captured),
                              defects)


# ---------------------------------------------------------------------------
# eigenfunction samples
# ---------------------------------------------------------------------------


class EigenfunctionSample(Record):
    theta: float
    values: tuple[complex, ...]
    flags: tuple[str, ...]          # "", "oscillating", "undecided"
    eigen_residual: float
    modulus_spread: float

    def describe(self) -> dict:
        return {
            "theta": self.theta,
            "values": [[v.real, v.imag] for v in self.values],
            "flags": list(self.flags),
            "eigen_residual": self.eigen_residual,
            "modulus_spread": self.modulus_spread,
        }


def _eigen_value(est: MeanEstimate) -> tuple[complex, str]:
    v = est.verdict
    if isinstance(v, Converged):
        return complex(v.limit), ""
    if isinstance(v, Oscillating):
        # mirror of the theorem's "0 else" branch for non-convergent averages
        return 0.0 + 0.0j, "oscillating"
    return complex(est.last), "undecided"


def eigenfunction_sample(f: Observable, theta: float, points,
                         schedule: FolnerSchedule,
                         shift_probes=(1, 2, 3, 5, 8),
                         config: EstimatorConfig = EstimatorConfig()) -> EigenfunctionSample:
    """Sampled eigenfunction values e(x) = lim A(f_x conj(xi)) per point.

    Oscillating averages are zeroed and flagged; undecided ones are
    flagged and left out of the modulus statistics.  The residual is
    the worst violation of e(t.x) = xi(t) e(x) over the probe shifts.
    """
    points = list(points)
    if not points:
        raise ValueError("need at least one sample point")
    xi = Character(theta)
    probes = [int(t) for t in shift_probes]
    first, last = min([0, *probes]), max([0, *probes])
    lo, hi = schedule.span()
    phase = xi.conj_values(lo, hi)

    def value_at(track, t):
        """Eigen value of t.p from the track of p, sampled from lo + first."""
        vals = track.values[t - first:t - first + hi - lo]
        est = estimate(_character_means(vals, phase, schedule),
                       Track(lo, vals).sup_norm(), config)
        return _eigen_value(est)

    values, flags = [], []
    residual = 0.0
    for p in points:
        track = observable_track(f, p, lo + first, hi - 1 + last)
        e_p, flag = value_at(track, 0)
        values.append(e_p)
        flags.append(flag)
        if flag == "undecided":
            continue
        for t in probes:
            e_shift, flag_shift = value_at(track, t)
            if flag_shift == "undecided":
                continue
            residual = max(residual, abs(e_shift - complex(xi(t)) * e_p))

    mods = [abs(v) for v, flag in zip(values, flags) if flag != "undecided"]
    spread = (max(mods) - min(mods)) if mods else 0.0
    return EigenfunctionSample(float(theta) % 1.0, tuple(values), tuple(flags),
                               float(residual), float(spread))


# ---------------------------------------------------------------------------
# uniformity of shifted-window averages
# ---------------------------------------------------------------------------


class WeylUniformity(Record):
    max_modulus: float
    min_modulus: float
    spread: float
    argmax_shift: int
    argmin_shift: int


def weyl_uniform_fb(f: Observable, x: PointGen, theta: float,
                    schedule: FolnerSchedule, n: int,
                    shifts: tuple[int, int]) -> WeylUniformity:
    """Spread of shifted-window Fourier averages; small means Weyl-uniform."""
    s_min, s_max = shifts
    if s_max < s_min:
        raise ValueError("empty shift range")
    start, length = schedule.window(n)
    lo, hi = start + s_min, start + s_max + length
    track = observable_track(f, x, lo, hi - 1)
    prod = track.values * Character(theta).conj_values(lo, hi)
    mods = np.abs(sliding_sums(prod, length) / length)
    i_max, i_min = int(np.argmax(mods)), int(np.argmin(mods))
    return WeylUniformity(float(mods[i_max]), float(mods[i_min]),
                          float(mods[i_max] - mods[i_min]),
                          s_min + i_max, s_min + i_min)


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------

PURE_POINT = "evidence-pure-point"
NOT_PURE_POINT = "evidence-not-pure-point"
PURITY_UNDECIDED = "undecided"


class SpectralReport(Record):
    frequencies: tuple[DetectedFrequency, ...]
    trajectories: dict               # theta -> MeanEstimate
    energy: MeanEstimate
    parseval: ParsevalTrajectory
    purity: str
    grids: tuple[FourierBohrGrid, ...]   # ascending length
    budget_fingerprint: dict

    @property
    def grid_sizes(self) -> tuple[int, ...]:
        return tuple(g.n for g in self.grids)

    @property
    def cross_residuals(self) -> tuple[float | None, ...]:
        return tuple(g.cross_residual for g in self.grids)

    def describe(self) -> dict:
        return {
            "frequencies": [fr.describe() for fr in self.frequencies],
            "trajectories": {repr(float(theta)): est.describe()
                             for theta, est in self.trajectories.items()},
            "energy": self.energy.describe(),
            "parseval": self.parseval.describe(),
            "purity": self.purity,
            "grid_sizes": list(self.grid_sizes),
            "cross_residuals": list(self.cross_residuals),
            "budget": self.budget_fingerprint,
        }


def _purity_verdict(energy: MeanEstimate, defects, pure_frac: float = 0.05,
                    impure_frac: float = 0.5) -> str:
    e = float(np.real(energy.tail_max()))
    if e == 0.0:
        return PURE_POINT
    d = list(defects)
    last = d[-1]
    decreasing = len(d) >= 3 and d[-3] >= d[-2] - 1e-12 and d[-2] >= d[-1] - 1e-12
    if last < pure_frac * e and decreasing:
        return PURE_POINT
    if last > impure_frac * e and isinstance(energy.verdict, Converged):
        return NOT_PURE_POINT
    return PURITY_UNDECIDED


def spectral_report(f: Observable, x: PointGen, schedule: FolnerSchedule,
                    grid_sizes, threshold: float | None = None,
                    refine_steps: int = 48, max_frequencies: int = 32,
                    config: EstimatorConfig = EstimatorConfig()) -> SpectralReport:
    """Detect frequencies, estimate their trajectories, test Parseval.

    One track, over the grids' [0, max N) and the schedule span, feeds
    every grid and every average.
    """
    grid_sizes = tuple(sorted(int(n) for n in grid_sizes))
    lo, hi = schedule.span()
    whole = observable_track(f, x, min(0, lo), max(grid_sizes[-1], hi) - 1)
    grids = fourier_bohr_grids(whole, grid_sizes)
    freqs = detect_frequencies(grids, threshold, refine_steps)[:max_frequencies]
    track = Track(lo, as_dense(whole, lo, hi))
    thetas = tuple(fr.theta for fr in freqs)
    means = [_windowed_character_means(track, t, schedule) for t in thetas]
    sup = track.sup_norm()
    trajectories = {t: estimate(m, sup, config) for t, m in zip(thetas, means)}
    parseval = _parseval(track, thetas, means, schedule, config)
    purity = _purity_verdict(parseval.energy, parseval.defects)
    return SpectralReport(tuple(freqs), trajectories, parseval.energy, parseval,
                          purity, tuple(grids),
                          {"schedule": schedule.describe(),
                           "grid_sizes": list(grid_sizes),
                           "threshold": threshold,
                           "refine_steps": refine_steps})
