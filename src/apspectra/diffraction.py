"""Weighted combs, autocorrelation, diffraction density and atom estimates.

A comb assigns a complex weight to each letter of a symbolic sequence.
Its empirical autocorrelation along the window schedule is transformed
(with an optional triangular taper, which keeps the estimate
nonnegative) into a sampled diffraction density, and point masses are
estimated at chosen frequencies by squared normalized exponential sums.
The atom estimator and the Fourier machinery of :mod:`.spectral` are
two routes to the same quantity and are cross-checked in the tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import FractionExceedsOne
from .folner import (EstimatorConfig, FolnerSchedule, MeanEstimate,
                     WindowSegments, estimate, phase_sums)
from .points import Observable, PointGen, Record, Track, observable_track

__all__ = [
    "WeightedComb",
    "AutocorrEstimate",
    "autocorrelation",
    "bombieri_taylor_atom",
    "DiffractionDensity",
    "diffraction_density",
    "pure_point_fraction",
    "NphiBridge",
    "nphi_bridge",
]


class WeightedComb(Record):
    """A translation-bounded weight pattern w(t) = weight(x(t))."""

    point: PointGen
    weights: dict
    name: str = ""

    def __post_init__(self):
        missing = set(self.point.alphabet) - set(self.weights)
        if missing:
            raise ValueError(f"weights missing for letters {sorted(missing)}")

    def values(self, start: int, stop: int) -> np.ndarray:
        """Weights w(t) for t in [start, stop)."""
        return observable_track(self.as_observable(), self.point,
                                start, stop - 1).values

    def sup_weight(self) -> float:
        return float(max(abs(complex(v)) for v in self.weights.values()))

    def as_observable(self) -> Observable:
        return Observable.letter_values(self.weights, 0,
                                        self.name or "comb-weights")


class AutocorrEstimate(Record):
    """Lag correlations eta(k) with their per-lag trajectories.

    eta(-k) is the conjugate mirror of eta(k) by construction, so the
    stored data covers k >= 0 only; ``eta`` exposes both signs.
    """

    k_max: int
    stages: tuple[tuple[int, int], ...]          # windows used
    table: np.ndarray                            # shape (stages, k_max+1)
    verdicts: tuple                              # MeanEstimate per lag k>=0
    atoms: tuple                                 # MeanEstimate per atom theta

    def eta(self, k: int) -> complex:
        a = self.table[-1, abs(k)]
        return complex(a) if k >= 0 else complex(np.conj(a))

    @property
    def eta0(self) -> float:
        return float(self.table[-1, 0].real)

    def lags(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    def eta_row(self) -> np.ndarray:
        """eta(k) for k = -k_max .. k_max at the final stage."""
        pos = self.table[-1]
        return np.concatenate((np.conj(pos[:0:-1]), pos))

    def describe(self) -> dict:
        return {
            "k_max": self.k_max,
            "stages": [list(s) for s in self.stages],
            "eta": [[int(k), self.eta(int(k)).real, self.eta(int(k)).imag]
                    for k in self.lags()],
            "verdicts": [v.describe()["verdict"] for v in self.verdicts],
        }


def autocorrelation(comb: WeightedComb, k_max: int,
                    schedule: FolnerSchedule,
                    config: EstimatorConfig = EstimatorConfig(),
                    atom_thetas=()) -> AutocorrEstimate:
    """Empirical lag correlations along the schedule.

    Stage n, lag k >= 0: (1/|B_n|) sum_{t in B_n} w(t) conj(w(t-k)),
    with w read off the comb wherever the lag reaches.  Negative lags
    are filled in by conjugation, which enforces Hermitian symmetry
    exactly.  The same sweep of the weights (:meth:`WindowSegments.sweep`)
    gives the atom estimate (:func:`bombieri_taylor_atom`) at each of
    ``atom_thetas``.  The lag verdicts are scaled by the largest |w|^2
    the sweep reads, the k_max coordinates before the span included.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    swept = WindowSegments(schedule.windows).sweep(comb.values, atom_thetas,
                                                   max_lag=k_max)
    verdicts = tuple(estimate(swept.lags[:, k], swept.sup ** 2, config)
                     for k in range(k_max + 1))
    atoms = tuple(estimate((np.abs(m) ** 2).astype(complex),
                           comb.sup_weight() ** 2, config) for m in swept.means)
    return AutocorrEstimate(k_max, schedule.windows, swept.lags, verdicts,
                            atoms)


def bombieri_taylor_atom(comb: WeightedComb, theta: float,
                         schedule: FolnerSchedule,
                         config: EstimatorConfig = EstimatorConfig()) -> MeanEstimate:
    """Squared normalized exponential sum of the weights at one frequency.

    Stage n: |(1/|B_n|) sum_{t in B_n} w(t) e(-theta t)|^2, the point
    mass estimate at theta.
    """
    return autocorrelation(comb, 0, schedule, config, (theta,)).atoms[0]


class DiffractionDensity(Record):
    thetas: np.ndarray
    values: np.ndarray
    taper: str
    negative_density: bool


def diffraction_density(eta: AutocorrEstimate, taper: str = "triangular",
                        grid_size: int | None = None) -> DiffractionDensity:
    """Tapered transform of the lag correlations on a theta grid.

    The triangular taper 1 - |k|/(K+1) is the default; it keeps the
    output nonnegative up to rounding.  The untapered transform is a
    diagnostic path: dips below -0.05 * eta(0) raise a flag on the
    result but are not fatal.
    """
    if taper not in ("none", "triangular"):
        raise ValueError("taper must be 'none' or 'triangular'")
    k_max = eta.k_max
    m = grid_size if grid_size is not None else max(2 * k_max, 16)
    if m < 2 * k_max:
        raise ValueError("grid size must be at least 2 * k_max")
    k = eta.lags()
    row = eta.eta_row()
    if taper == "triangular":
        row = row * (1.0 - np.abs(k) / (k_max + 1.0))
    thetas = np.arange(m) / m
    values = phase_sums(m, -k_max, row).real
    flag = bool(np.min(values) < -0.05 * max(eta.eta0, 1e-30)) if taper == "none" else False
    return DiffractionDensity(thetas, values, taper, flag)


# how far the atoms' share of the intensity may exceed 1 before it raises
FRACTION_TOL = 0.05


def pure_point_fraction(atoms, eta0: float) -> float:
    """Share of the total intensity carried by the listed atoms.

    ``atoms`` is an iterable of (theta, mass).  A result above
    1 + ``FRACTION_TOL`` signals double-counted or spurious atoms and
    raises.
    """
    if eta0 <= 0:
        raise ValueError("eta0 must be positive")
    total = sum(float(mass) for _, mass in atoms)
    frac = total / eta0
    if frac > 1.0 + FRACTION_TOL:
        raise FractionExceedsOne(
            f"atom masses sum to {total:.6g} against eta(0) = {eta0:.6g}")
    return frac


class NphiBridge(Record):
    track: Track
    residual: float


def nphi_bridge(comb: WeightedComb, kernel: dict, t0: int, t1: int) -> NphiBridge:
    """Correlate the comb with a finite kernel, two ways.

    Path one evaluates (w * kernel~)(t) = sum_s w(s) conj(kernel(s-t))
    directly.  Path two evaluates the cylinder observable whose value
    at a pattern is sum_u weight(letter at u) conj(kernel(u)) along the
    orbit.  Both must agree to rounding; the max deviation is returned.
    """
    if not kernel:
        raise ValueError("kernel must be nonempty")
    offsets = sorted(int(u) for u in kernel)
    lo, hi = t0 + offsets[0], t1 + offsets[-1]
    w = np.asarray(comb.values(lo, hi + 1), dtype=complex)
    n = t1 - t0 + 1
    direct = np.zeros(n, dtype=complex)
    for u in offsets:
        a = t0 + u - lo
        direct += w[a:a + n] * np.conj(complex(kernel[u]))

    # cylinder route: one table entry per letter pattern on the kernel support
    table = {"".join(letters): sum(complex(comb.weights[a]) * np.conj(complex(kernel[u]))
                                   for a, u in zip(letters, offsets))
             for letters in itertools.product(comb.point.alphabet,
                                              repeat=len(offsets))}
    obs = Observable(tuple(offsets), table, "kernel-correlation")
    via_obs = observable_track(obs, comb.point, t0, t1)
    residual = float(np.max(np.abs(direct - np.asarray(via_obs.values,
                                                       dtype=complex))))
    return NphiBridge(Track(t0, direct), residual)
