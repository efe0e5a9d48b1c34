"""Combs, autocorrelation, density, atoms and the kernel bridge."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apspectra.diffraction import (WeightedComb, autocorrelation,
                                   bombieri_taylor_atom, diffraction_density,
                                   nphi_bridge, pure_point_fraction)
from apspectra.errors import FractionExceedsOne
from apspectra.folner import FolnerSchedule, Undecided, WindowSegments
from apspectra.points import (THUE_MORSE_RULES, BernoulliPoint, Observable,
                              PeriodicPoint, StepPoint, SubstitutionPoint,
                              Track, shift)
from apspectra.spectral import fourier_bohr


def intervals(base=100, n_max=6):
    return FolnerSchedule.intervals(base=base, n_max=n_max)


def ab_comb():
    return WeightedComb(PeriodicPoint("AB"), {"A": 1.0, "B": 0.0})


def test_comb_needs_all_letters():
    with pytest.raises(ValueError):
        WeightedComb(PeriodicPoint("AB"), {"A": 1.0})


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------


def test_autocorrelation_constant_comb():
    comb = WeightedComb(PeriodicPoint("A"), {"A": 1.0})
    eta = autocorrelation(comb, 5, intervals(10, 4))
    for k in range(-5, 6):
        assert abs(eta.eta(k) - 1.0) < 1e-12


def test_autocorrelation_periodic_values():
    eta = autocorrelation(ab_comb(), 4, intervals(base=100, n_max=5))
    assert abs(eta.eta(0) - 0.5) < 1e-12
    assert abs(eta.eta(1)) < 1e-12
    assert abs(eta.eta(2) - 0.5) < 1e-12
    assert abs(eta.eta(3)) < 1e-12


def test_autocorrelation_bernoulli_independence():
    comb = WeightedComb(BernoulliPoint(0.5, 77), {"0": 0.0, "1": 1.0})
    eta = autocorrelation(comb, 8, intervals(base=10_000, n_max=10))
    assert abs(eta.eta0 - 0.5) < 0.02
    for k in range(1, 9):
        assert abs(eta.eta(k) - 0.25) < 0.02


def test_autocorrelation_hermitian_and_bounded():
    combs = [
        ab_comb(),
        WeightedComb(BernoulliPoint(0.4, 5), {"0": 0.2 - 0.5j, "1": 1.0}),
        WeightedComb(SubstitutionPoint(THUE_MORSE_RULES, ("0", "0")),
                     {"0": 1.0, "1": -1.0}),
    ]
    for comb in combs:
        eta = autocorrelation(comb, 6, intervals(base=500, n_max=5))
        assert eta.eta0 >= 0.0
        assert eta.table[-1, 0].imag == 0.0 or abs(eta.table[-1, 0].imag) < 1e-12
        for k in range(7):
            assert eta.eta(-k) == np.conj(eta.eta(k))
            # small slack: the lag sum reaches |k| sites outside the window
            assert abs(eta.eta(k)) <= eta.eta0 + 4.0 * k / 500 + 1e-12


def per_lag_oracle(w, lo, windows, k_max):
    """Lag sums the direct way: one product and one prefix sum per lag.

    ``w[0]`` sits at coordinate ``lo - k_max``.
    """
    a = np.array([s for s, _ in windows]) - lo
    b = a + np.array([l for _, l in windows])
    out = np.empty((len(windows), k_max + 1), dtype=complex)
    for k in range(k_max + 1):
        csum = np.concatenate(([0], np.cumsum(
            w[k_max:] * np.conj(w[k_max - k:len(w) - k]))))
        out[:, k] = csum[b] - csum[a]
    return out


@st.composite
def chained_windows(draw):
    """Custom windows, each starting 0..l after the previous start and
    longer: they overlap without nesting, except that a shift of 0 shares
    the start and a shift of l makes the two windows touch."""
    s, l = draw(st.integers(-30, 30)), draw(st.integers(1, 12))
    windows = [(s, l)]
    for _ in range(draw(st.integers(0, 5))):
        s += draw(st.integers(0, l))
        l += draw(st.integers(1, 12))
        windows.append((s, l))
    return FolnerSchedule.custom(windows)


@settings(max_examples=80, deadline=None)
@given(schedule=chained_windows(), k_max=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1), zero_one=st.booleans())
def test_sweep_lag_means_match_per_lag_oracle(schedule, k_max, seed, zero_one):
    rng = np.random.default_rng(seed)
    lo, hi = schedule.span()
    n = hi - lo + k_max
    if zero_one:
        w = rng.integers(0, 2, n).astype(complex)
    else:
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = WindowSegments(schedule.windows).sweep(Track(lo - k_max, w).read,
                                                 max_lag=k_max).lags
    want = per_lag_oracle(w, lo, schedule.windows, k_max) \
        / schedule.lengths()[:, None]
    if zero_one:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(w)) ** 2)


@settings(max_examples=40, deadline=None)
@given(schedule=chained_windows(), k_max=st.integers(0, 8),
       seed=st.integers(0, 2 ** 31 - 1),
       weights=st.sampled_from([{"0": 0.0, "1": 1.0},
                                {"0": 0.3 - 0.7j, "1": -1.1 + 0.2j}]))
def test_autocorrelation_matches_per_lag_oracle(schedule, k_max, seed, weights):
    comb = WeightedComb(BernoulliPoint(0.5, seed), weights)
    eta = autocorrelation(comb, k_max, schedule)
    lo, hi = schedule.span()
    w = np.asarray(comb.values(lo - k_max, hi), dtype=complex)
    want = per_lag_oracle(w, lo, schedule.windows, k_max) \
        / schedule.lengths()[:, None]
    if set(weights.values()) <= {0.0, 1.0}:
        assert np.array_equal(eta.table, want)
    else:
        assert np.all(np.abs(eta.table - want) <= 1e-12 * comb.sup_weight() ** 2)


def test_autocorrelation_scales_its_verdicts_by_every_weight_it_reads():
    # w(-1) = 5 (letter B) sits just left of the span, where only the lag
    # products read; w = 1 on the span.  The lag-1 means 5, 3, 7/3, 2 are
    # undecided against a scale of 5^2 but would oscillate against the
    # span's scale of 1
    comb = WeightedComb(PeriodicPoint("AAAAB"), {"A": 1, "B": 5})
    eta = autocorrelation(comb, 1, FolnerSchedule.intervals(1, 4))
    assert np.allclose(eta.table[:, 1], [5, 3, 7 / 3, 2], rtol=1e-15)
    assert isinstance(eta.verdicts[1].verdict, Undecided)
    assert eta.verdicts[1].sup_samples == 25


WEIGHT = st.builds(complex, st.floats(-2, 2, allow_subnormal=False),
                   st.floats(-2, 2, allow_subnormal=False))


@settings(max_examples=60, deadline=None)
@given(schedule=chained_windows(), k_max=st.integers(0, 8),
       seed=st.integers(0, 2 ** 31 - 1), weights=st.tuples(WEIGHT, WEIGHT))
# the largest weight sits just left of the span, where only the lag sums read
@example(schedule=FolnerSchedule.custom([(24, 1)]), k_max=1, seed=1,
         weights=(1j, 0.25j))
def test_autocorrelation_is_hermitian(schedule, k_max, seed, weights):
    # conj(eta_n(k)) sums w(u) conj(w(u + k)) over B_n - k, which differs
    # from B_n in at most 2k sites, each at most the sup of |w|^2 over
    # every site either sum reads; the rest of the gap is rounding
    comb = WeightedComb(BernoulliPoint(0.5, seed), dict(zip("01", weights)))
    eta = autocorrelation(comb, k_max, schedule)
    lo, hi = schedule.span()
    w = np.asarray(comb.values(lo, hi + k_max), dtype=complex)
    sup2 = float(np.max(np.abs(comb.values(lo - k_max, hi + k_max)))) ** 2
    for n, (s, l) in enumerate(schedule.windows):
        cur = w[s - lo:s - lo + l]
        for k in range(k_max + 1):
            direct = np.sum(cur * np.conj(w[s - lo + k:s - lo + k + l])) / l
            gap = abs(direct - np.conj(eta.table[n, k]))
            assert gap <= 2 * k * sup2 / l + 1e-12 * sup2, (n, k)
    row = eta.eta_row()
    assert np.array_equal(row, np.conj(row[::-1]))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def test_atom_constant_comb_at_zero():
    comb = WeightedComb(PeriodicPoint("A"), {"A": 1.0})
    est = bombieri_taylor_atom(comb, 0.0, intervals(10, 4))
    assert all(abs(a - 1.0) < 1e-12 for _, a in est.partials)


def test_atom_periodic_half():
    est = bombieri_taylor_atom(ab_comb(), 0.5, intervals(base=100, n_max=5))
    assert all(abs(a - 0.25) < 1e-12 for _, a in est.partials)


def test_atom_equals_squared_fourier_average():
    # two code paths for the same quantity must agree to rounding
    rng = np.random.default_rng(88)
    comb = WeightedComb(BernoulliPoint(0.5, 31), {"0": 0.3 + 0.1j, "1": -0.7})
    sched = intervals(base=300, n_max=5)
    obs = comb.as_observable()
    for theta in rng.uniform(0.0, 1.0, size=6):
        atom = bombieri_taylor_atom(comb, float(theta), sched)
        fb = fourier_bohr(obs, comb.point, float(theta), sched)
        for (_, a), (_, b) in zip(atom.partials, fb.partials):
            assert abs(a.real - abs(b) ** 2) < 1e-12


def test_atom_from_autocorrelation_samples_is_bit_identical():
    # a weight that is complex only left of the span: the autocorrelation
    # reads the weights from 8 before the span, complex, the atom on its
    # own reads them from the span on, real, and the atoms still agree
    comb = WeightedComb(shift(StepPoint(), 4), {"0": 0.5j, "1": -0.7})
    sched = intervals(base=50, n_max=4)
    assert np.iscomplexobj(comb.values(-8, 200))
    assert not np.iscomplexobj(comb.values(0, 200))
    thetas = (0.0, 0.25, 0.5, 0.3)
    eta = autocorrelation(comb, 8, sched, atom_thetas=thetas)
    assert len(eta.atoms) == len(thetas)
    for theta, reused in zip(thetas, eta.atoms):
        own = bombieri_taylor_atom(comb, theta, sched)
        assert own.describe() == reused.describe()


def test_atom_shift_covariance():
    comb = ab_comb()
    sched = intervals(base=100, n_max=5)
    moved = WeightedComb(shift(comb.point, 3), comb.weights)
    sup = comb.sup_weight()
    for theta in (0.0, 0.5):
        a = bombieri_taylor_atom(comb, theta, sched)
        b = bombieri_taylor_atom(moved, theta, sched)
        for (_, u), (_, v), (_, length) in zip(a.partials, b.partials,
                                               sched.windows):
            bound = 2.0 * sup * (2.0 * 3 * sup / length)
            assert abs(u.real - v.real) <= bound + 1e-12


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_all_ones_peaks_at_zero():
    comb = WeightedComb(PeriodicPoint("A"), {"A": 1.0})
    eta = autocorrelation(comb, 8, intervals(10, 4))
    dens = diffraction_density(eta, "triangular", 64)
    assert abs(dens.values[0] - 9.0) < 1e-9  # sum of the triangular taper
    assert np.min(dens.values) >= -1e-9
    assert not dens.negative_density


def test_density_mass_conservation():
    for comb in (ab_comb(),
                 WeightedComb(BernoulliPoint(0.5, 9), {"0": 0.0, "1": 1.0})):
        eta = autocorrelation(comb, 8, intervals(base=200, n_max=4))
        dens = diffraction_density(eta, "triangular", 64)
        mean = float(np.mean(dens.values))
        assert abs(mean - eta.eta0) <= 1e-6 * max(eta.eta0, 1e-12)


def test_density_periodic_equal_peaks():
    eta = autocorrelation(ab_comb(), 16, intervals(base=100, n_max=5))
    dens = diffraction_density(eta, "triangular", 128)
    v = dens.values
    assert abs(v[0] - v[64]) < 1e-9       # equal mass at 0 and 1/2
    assert v[0] == np.max(v)
    assert np.min(v) >= -1e-9


def test_density_bernoulli_flat_background_plus_atom():
    # flat part eta0 - |mean|^2 = 1/4 away from 0, atom |mean|^2 = 1/4 at 0;
    # the Fejer main lobe of the atom forces the exclusion zone
    comb = WeightedComb(BernoulliPoint(0.5, 123), {"0": 0.0, "1": 1.0})
    eta = autocorrelation(comb, 64, intervals(base=40_000, n_max=10))
    dens = diffraction_density(eta, "triangular", 256)
    thetas = dens.thetas
    away = (np.minimum(thetas, 1.0 - thetas) >= 0.15)
    assert np.all(np.abs(dens.values[away] - 0.25) < 0.02)
    assert dens.values[0] > 0.25 + 10.0  # Fejer peak of the mean-squared atom
    assert np.min(dens.values) >= -1e-9


@pytest.mark.parametrize("taper", ["triangular", "none"])
@pytest.mark.parametrize("k_max,extra", [(8, 0), (8, 5), (48, 0), (48, 41),
                                         (5, 90)])
def test_density_matches_the_fft_of_the_wrapped_lag_row(taper, k_max, extra):
    # on the grid j/m, sum_k w_k eta_k e(-jk/m) is the FFT of the tapered
    # row with lag k stored at k mod m: a route that shares no code with
    # the exponential kernel; m = 2K wraps lag -K onto lag K
    comb = WeightedComb(BernoulliPoint(0.4, 17), {"0": -0.5, "1": 1.0 + 2j})
    eta = autocorrelation(comb, k_max, intervals(base=300, n_max=4))
    m = 2 * k_max + extra
    dens = diffraction_density(eta, taper, m)
    k = eta.lags()
    row = eta.eta_row()
    if taper == "triangular":
        row = row * (1.0 - np.abs(k) / (k_max + 1.0))
    wrapped = np.zeros(m, dtype=complex)
    np.add.at(wrapped, k % m, row)
    assert len(dens.values) == m
    assert np.array_equal(dens.thetas, np.arange(m) / m)
    assert (np.max(np.abs(dens.values - np.fft.fft(wrapped).real))
            <= 1e-12 * np.sum(np.abs(row)))


def test_density_grid_too_small():
    eta = autocorrelation(ab_comb(), 8, intervals(10, 3))
    with pytest.raises(ValueError):
        diffraction_density(eta, "triangular", 8)


def test_density_untapered_flag_is_diagnostic():
    eta = autocorrelation(ab_comb(), 8, intervals(base=100, n_max=4))
    dens = diffraction_density(eta, "none", 64)
    assert isinstance(dens.negative_density, bool)


# ---------------------------------------------------------------------------
# pure point fraction
# ---------------------------------------------------------------------------


def test_fraction_periodic_is_one():
    sched = intervals(base=100, n_max=5)
    comb = ab_comb()
    eta = autocorrelation(comb, 8, sched)
    masses = [(t, bombieri_taylor_atom(comb, t, sched).tail_max())
              for t in (0.0, 0.5)]
    frac = pure_point_fraction(masses, eta.eta0)
    assert abs(frac - 1.0) < 1e-6


def test_fraction_bernoulli_half():
    sched = intervals(base=20_000, n_max=10)
    comb = WeightedComb(BernoulliPoint(0.5, 2024), {"0": 0.0, "1": 1.0})
    eta = autocorrelation(comb, 8, sched)
    atom0 = bombieri_taylor_atom(comb, 0.0, sched).tail_max()
    frac = pure_point_fraction([(0.0, atom0)], eta.eta0)
    assert abs(frac - 0.5) < 0.02


def test_fraction_empty_atoms():
    assert pure_point_fraction([], 0.5) == 0.0


def test_fraction_exceeding_one_raises():
    with pytest.raises(FractionExceedsOne):
        pure_point_fraction([(0.0, 0.4), (0.5, 0.4)], 0.5)


# ---------------------------------------------------------------------------
# closed forms: periodic patterns on windows of whole periods
# ---------------------------------------------------------------------------


@st.composite
def whole_period_windows(draw, p):
    """Custom windows of whole periods, starting anywhere and longer each time."""
    s, m = draw(st.integers(-40, 40)), draw(st.integers(1, 6))
    windows = [(s, m * p)]
    for _ in range(draw(st.integers(0, 5))):
        s += draw(st.integers(0, m * p))
        m += draw(st.integers(1, 6))
        windows.append((s, m * p))
    return FolnerSchedule.custom(windows)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       complex_weights=st.booleans(), data=st.data())
def test_periodic_pattern_atoms_at_their_closed_forms(p, seed, complex_weights,
                                                      data):
    # a window of whole periods averages w(t) e(-j t / p) to a_{j/p}, the
    # pattern's DFT over p, so every stage of the atom at j/p is
    # |a_{j/p}|^2, and by Parseval the atoms at j/p, j = 0 .. p - 1 (the
    # support and rounding-level atoms besides) carry all of eta(0)
    schedule = data.draw(whole_period_windows(p))
    rng = np.random.default_rng(seed)
    letters = "ABCDEFGHIJKL"[:p]
    pattern = "".join(rng.choice(list(letters), p))
    weights = {a: complex(rng.uniform(-1, 1),
                          rng.uniform(-1, 1) if complex_weights else 0.0)
               for a in letters}
    comb = WeightedComb(PeriodicPoint(pattern), weights)
    coeffs = np.fft.fft([weights[a] for a in pattern]) / p
    sup2 = comb.sup_weight() ** 2
    # rounding: each phase e(-j t / p) is good to about 2 pi |t| eps, and
    # |t| stays below 3000 here
    tol = 1e-11 * sup2
    masses = []
    for j in range(p):
        atom = bombieri_taylor_atom(comb, j / p, schedule)
        assert np.all(np.abs(atom.values - abs(coeffs[j]) ** 2) <= tol)
        masses.append((j / p, atom.tail_max()))
    eta0 = autocorrelation(comb, 0, schedule).eta0
    assert abs(pure_point_fraction(masses, eta0) - 1.0) * eta0 <= p * tol


# ---------------------------------------------------------------------------
# kernel bridge
# ---------------------------------------------------------------------------


def test_bridge_identity_kernel_copies_weights():
    comb = WeightedComb(BernoulliPoint(0.5, 6), {"0": 0.1 + 0.2j, "1": -1.0})
    res = nphi_bridge(comb, {0: 1.0}, -20, 20)
    w = comb.values(-20, 21)
    assert np.max(np.abs(np.asarray(res.track.values) - w)) < 1e-15
    assert res.residual < 1e-15


def test_bridge_adjacent_pair_sums():
    res = nphi_bridge(ab_comb(), {0: 1.0, 1: 1.0}, 0, 9)
    assert np.allclose(np.asarray(res.track.values), 1.0)
    assert res.residual < 1e-15


def test_bridge_random_kernels_cross_check():
    rng = np.random.default_rng(14)
    comb = WeightedComb(BernoulliPoint(0.3, 8), {"0": 0.4 - 0.1j, "1": 1.1j})
    for _ in range(5):
        offsets = sorted(rng.choice(np.arange(-4, 5), size=3, replace=False))
        kernel = {int(u): complex(rng.normal(), rng.normal()) for u in offsets}
        res = nphi_bridge(comb, kernel, -50, 50)
        assert res.residual < 1e-12
