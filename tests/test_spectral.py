"""Fourier coefficients along orbits, detection, Parseval, eigenfunctions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspectra import spectral
from apspectra.folner import (Character, Converged, EstimatorConfig,
                              FolnerSchedule)
from apspectra.points import (FIBONACCI_RULES, THUE_MORSE_RULES,
                              BernoulliPoint, Observable, PeriodicPoint,
                              StepPoint, SturmianPoint, SubstitutionPoint,
                              Track, observable_track, shift)
from apspectra.spectral import (detect_frequencies, eigenfunction_sample,
                                fourier_bohr, fourier_bohr_grid,
                                fourier_bohr_grids, parseval_defect,
                                spectral_report, weyl_uniform_fb)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def intervals(base=100, n_max=8):
    return FolnerSchedule.intervals(base=base, n_max=n_max)


def ab_indicator():
    x = PeriodicPoint("AB")
    return Observable.indicator("A", x.alphabet), x


# ---------------------------------------------------------------------------
# fourier_bohr
# ---------------------------------------------------------------------------


def test_fourier_bohr_constant_at_zero_frequency():
    x = PeriodicPoint("A")
    f = Observable.constant(1.0, x.alphabet)
    est = fourier_bohr(f, x, 0.0, intervals(10, 5))
    assert all(a == 1.0 for _, a in est.partials)
    assert est.verdict == Converged(1.0 + 0.0j, 0.0)


def test_fourier_bohr_character_orthogonality():
    x = PeriodicPoint("A")
    f = Observable.constant(1.0, x.alphabet)
    sched = intervals(base=600, n_max=6)
    est = fourier_bohr(f, x, 1.0 / 3.0, sched)
    for (_, a), (_, length) in zip(est.partials, sched.windows):
        # closed geometric sum: |sum e(-t/3)| <= 2 / |1 - e(-2 pi i/3)|
        assert abs(a) <= 2.0 / (length * abs(1 - np.exp(-2j * np.pi / 3))) + 1e-15
    assert isinstance(est.verdict, Converged)
    assert abs(est.verdict.limit) < 1e-3


def test_fourier_bohr_periodic_half_frequency():
    f, x = ab_indicator()
    est = fourier_bohr(f, x, 0.5, intervals(base=100, n_max=6))
    # even window lengths make the average exact
    assert all(abs(a - 0.5) < 1e-12 for _, a in est.partials)
    assert isinstance(est.verdict, Converged)
    assert abs(est.verdict.limit - 0.5) < 1e-12


def test_fourier_bohr_character_covariance():
    # averaging over a shifted point multiplies by xi(r), up to 2|r|/|B_n|
    x = SturmianPoint(GOLDEN, 0.3)
    f = Observable.indicator("1", x.alphabet)
    sched = intervals(base=250, n_max=5)
    theta, r = GOLDEN, 9
    base = fourier_bohr(f, x, theta, sched)
    moved = fourier_bohr(f, shift(x, r), theta, sched)
    phase = complex(Character(theta)(r))
    for (_, a), (_, b), (_, length) in zip(base.partials, moved.partials,
                                           sched.windows):
        assert abs(b - phase * a) <= 2.0 * r / length + 1e-12


def test_zero_frequency_equals_plain_average():
    x = SubstitutionPoint(FIBONACCI_RULES, ("0", "0"))
    f = Observable.indicator("0", x.alphabet)
    sched = intervals(base=377, n_max=5)
    est = fourier_bohr(f, x, 0.0, sched)
    track = observable_track(f, x, 0, 377 * 5 - 1)
    for (_, a), (s, length) in zip(est.partials, sched.windows):
        plain = np.mean(np.asarray(track.values)[s:s + length])
        assert abs(a - plain) < 1e-13


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_constant_observable():
    x = PeriodicPoint("A")
    f = Observable.constant(0.7 - 0.1j, x.alphabet)
    g = fourier_bohr_grid(f, x, 64)
    assert abs(g.amplitudes[0] - (0.7 - 0.1j)) < 1e-12
    assert np.max(np.abs(g.amplitudes[1:])) < 1e-12


def test_grid_periodic_two_atoms():
    f, x = ab_indicator()
    g = fourier_bohr_grid(f, x, 64)
    assert abs(g.amplitudes[0] - 0.5) < 1e-12
    assert abs(g.amplitudes[32] - 0.5) < 1e-12
    others = np.delete(np.abs(g.amplitudes), [0, 32])
    assert np.max(others) < 1e-12


def test_grid_methods_agree():
    x = BernoulliPoint(0.5, 12)
    f = Observable.letter_values({"0": 0.3 + 0.4j, "1": -1.0})
    fast = fourier_bohr_grid(f, x, 1024, method="fast")
    direct = fourier_bohr_grid(f, x, 1024, method="direct")
    assert fast.cross_residual is not None
    assert fast.cross_residual < 1e-10
    assert direct.cross_residual < 1e-10
    assert np.max(np.abs(fast.amplitudes - direct.amplitudes)) < 1e-10


def test_grid_thue_morse_max_is_small_but_positive():
    # regression-pinned grid maximum near theta = 1/3
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    f = Observable.letter_values({"0": 1.0, "1": -1.0})
    g = fourier_bohr_grid(f, tm, 2 ** 16)
    amps = np.abs(g.amplitudes)
    j = int(np.argmax(amps))
    assert j in (21845, 43691)  # the lattice points closest to 1/3 and 2/3
    assert abs(amps[j] - 0.09780773725692163) < 1e-9
    assert abs(g.amplitudes[0]) < 1e-12  # balanced letters


def test_grid_rejects_tiny_n():
    f, x = ab_indicator()
    with pytest.raises(ValueError):
        fourier_bohr_grid(f, x, 1)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def circ(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def test_detect_periodic_pair():
    f, x = ab_indicator()
    grids = [fourier_bohr_grid(f, x, n) for n in (256, 512)]
    freqs = detect_frequencies(grids)
    thetas = sorted(fr.theta % 1.0 for fr in freqs)
    assert len(freqs) == 2
    assert min(circ(t, 0.0) for t in thetas) < 1e-6
    assert min(circ(t, 0.5) for t in thetas) < 1e-6
    for fr in freqs:
        assert abs(abs(fr.amplitude) - 0.5) < 1e-6


def test_detect_zero_observable_is_empty():
    x = PeriodicPoint("AB")
    f = Observable.constant(0.0, x.alphabet)
    grids = [fourier_bohr_grid(f, x, n) for n in (256, 512)]
    assert detect_frequencies(grids) == []


def test_detect_needs_two_stages():
    f, x = ab_indicator()
    with pytest.raises(ValueError):
        detect_frequencies([fourier_bohr_grid(f, x, 256)])


def test_detect_sturmian_golden_frequencies():
    x = SturmianPoint(GOLDEN, 0.0)
    f = Observable.indicator("0", x.alphabet)
    grids = [fourier_bohr_grid(f, x, n) for n in (4096, 16384)]
    freqs = detect_frequencies(grids)
    for k in (0, 1, -1, 2, -2):
        target = (k * GOLDEN) % 1.0
        assert min(circ(fr.theta, target) for fr in freqs) < 1e-3
    amp0 = next(fr for fr in freqs if circ(fr.theta, 0.0) < 1e-3)
    assert abs(abs(amp0.amplitude) - (1 - GOLDEN)) < 5e-3
    assert all(0.0 <= fr.theta < 1.0 for fr in freqs)


def test_detected_thetas_fold_into_unit_interval(monkeypatch):
    # Newton may stop a hair below 0, which % 1.0 rounds up to 1.0
    refine = spectral._newton_refine
    monkeypatch.setattr(spectral, "_newton_refine",
                        lambda *args: refine(*args) - 2.0 ** -60)
    f, x = ab_indicator()
    rep = spectral_report(f, x, intervals(base=100, n_max=6), [256, 512])
    thetas = sorted(fr.theta for fr in rep.frequencies)
    assert thetas == [0.0, 0.5]
    assert all(type(t) is float for t in thetas)
    # spectrum.json keys its trajectories by theta, each one a plain number
    keys = rep.describe()["trajectories"]
    assert sorted(float(k) for k in keys) == thetas


def test_grids_from_one_track_equal_separate_grids():
    x = SturmianPoint(GOLDEN, 0.2)
    f = Observable.indicator("0", x.alphabet)
    track = observable_track(f, x, -50, 2047)
    for g in fourier_bohr_grids(track, [2048, 512, 1024]):
        alone = fourier_bohr_grid(f, x, g.n)
        assert np.array_equal(g.amplitudes, alone.amplitudes)
        assert g.cross_residual == alone.cross_residual
    with pytest.raises(ValueError):
        fourier_bohr_grids(track, [1, 512])


# ---------------------------------------------------------------------------
# refinement: Newton against the golden-section oracle
# ---------------------------------------------------------------------------


def amp(track, theta):
    t = np.arange(len(track), dtype=float)
    return complex(np.mean(track * np.exp(-2j * np.pi * theta * t)))


def golden_max(track, lo, hi, steps=48):
    """Golden-section maximization of |amp| on [lo, hi], the test oracle."""
    a, b = lo, hi
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = abs(amp(track, c)), abs(amp(track, d))
    for _ in range(steps):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = abs(amp(track, d))
        else:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = abs(amp(track, c))
    return (a + b) / 2.0


@pytest.mark.parametrize("x,f,sizes,evals", [
    # Sturmian peaks are near-pure tones: from the interpolated start one
    # Newton step lands within tolerance, so about 2 evaluations each
    (SturmianPoint(GOLDEN, 0.0), Observable.indicator("0", ("0", "1")),
     (4096, 16384), 3),
    (SubstitutionPoint(THUE_MORSE_RULES, ("0", "0")),
     Observable.letter_values({"0": 1.0, "1": -1.0}), (2 ** 12, 2 ** 13), 6),
])
def test_newton_matches_golden_oracle(monkeypatch, x, f, sizes, evals):
    calls = {"evals": 0, "refines": 0}
    slopes, refine = spectral._slopes, spectral._newton_refine

    def counted_slopes(*args):
        calls["evals"] += 1
        return slopes(*args)

    def counted_refine(*args):
        calls["refines"] += 1
        return refine(*args)

    monkeypatch.setattr(spectral, "_slopes", counted_slopes)
    monkeypatch.setattr(spectral, "_newton_refine", counted_refine)
    grids = [fourier_bohr_grid(f, x, n) for n in sizes]
    freqs = detect_frequencies(grids)
    base, n = grids[-1], sizes[-1]
    assert len(freqs) >= 5
    for fr in freqs:
        oracle = golden_max(base.track, fr.theta_grid - 1.0 / n,
                            fr.theta_grid + 1.0 / n) % 1.0
        assert circ(fr.theta, oracle) <= 1e-9
        best = abs(amp(base.track, oracle))
        assert abs(fr.amplitude) >= best * (1.0 - 1e-9)
    # mean evaluations per candidate; golden section spends 2 + 48
    assert calls["evals"] <= evals * calls["refines"]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(256, 1500), theta=st.floats(0.0, 1.0, exclude_max=True),
       c=st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
       gap=st.floats(0.25, 0.75), small=st.floats(-1e-6, 1e-6))
def test_newton_recovers_tone(n, theta, c, gap, small):
    t = np.arange(n)
    values = (c * np.exp(2j * np.pi * theta * t)
              + small * c * np.exp(2j * np.pi * (theta + gap) * t))
    freqs = detect_frequencies(fourier_bohr_grids(Track(0, values),
                                                  [n // 2, n]))
    assert circ(freqs[0].theta, theta) <= 1e-9


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_newton_stops_at_bracket_edge(side):
    # one tone at theta; the bracket holds one monotone flank of its peak
    n, theta = 1024, 0.3
    track = np.exp(2j * np.pi * theta * np.arange(n))
    near, far = theta + side * 0.25 / n, theta + side * 0.75 / n
    lo, hi = min(near, far), max(near, far)
    s = np.arange(n) - 0.5 * (n - 1)
    powers = np.stack([np.ones(n), s, s * s])
    got = spectral._newton_refine(track, powers, 0.5 * (lo + hi), lo, hi, 48)
    assert got == near
    assert abs(golden_max(track, lo, hi) - near) < 1e-12


# ---------------------------------------------------------------------------
# parseval
# ---------------------------------------------------------------------------


def test_parseval_periodic_exact():
    f, x = ab_indicator()
    traj = parseval_defect(f, x, [0.0, 0.5], intervals(base=100, n_max=6))
    assert all(abs(d) < 1e-9 for d in traj.defects)
    assert abs(traj.energy.tail_max() - 0.5) < 1e-12


def test_parseval_zero_observable():
    x = PeriodicPoint("AB")
    f = Observable.constant(0.0, x.alphabet)
    traj = parseval_defect(f, x, [0.0, 0.25], intervals(10, 4))
    assert all(d == 0.0 for d in traj.defects)


def test_parseval_defect_nonincreasing_in_frequency_set():
    x = SturmianPoint(GOLDEN, 0.0)
    f = Observable.indicator("0", x.alphabet)
    sched = intervals(base=2000, n_max=5)
    thetas = [(k * GOLDEN) % 1.0 for k in (0, 1, -1, 2, -2)]
    prev = None
    for upto in range(1, len(thetas) + 1):
        traj = parseval_defect(f, x, thetas[:upto], sched)
        if prev is not None:
            assert all(d <= p + 1e-12 for d, p in zip(traj.defects, prev))
        prev = traj.defects


def test_parseval_bessel_nonnegative_defect_exact_characters():
    # orthogonal characters at rational frequencies, windows hit multiples
    x = PeriodicPoint("ABCD")
    f = Observable.indicator("A", x.alphabet)
    traj = parseval_defect(f, x, [0.0, 0.25, 0.5, 0.75],
                           intervals(base=100, n_max=4))
    assert all(d >= -1e-12 for d in traj.defects)
    assert all(abs(d) < 1e-9 for d in traj.defects)  # full frequency set


# ---------------------------------------------------------------------------
# eigenfunction samples
# ---------------------------------------------------------------------------


def test_eigen_non_frequency_gives_zeros():
    f, x = ab_indicator()
    sample = eigenfunction_sample(f, 0.3, [x, shift(x, 1)],
                                  intervals(base=1000, n_max=6))
    assert all(abs(v) < 1e-2 for v in sample.values)
    assert sample.modulus_spread < 1e-2
    assert sample.eigen_residual < 1e-2


def test_eigen_periodic_half_frequency():
    f, x = ab_indicator()
    sample = eigenfunction_sample(f, 0.5, [x, shift(x, 1)],
                                  intervals(base=100, n_max=6),
                                  shift_probes=(1, 2, 3))
    e0, e1 = sample.values
    assert abs(e0 - 0.5) < 1e-9
    assert abs(e1 + 0.5) < 1e-9
    assert sample.eigen_residual < 1e-9
    assert sample.modulus_spread < 1e-9
    assert sample.flags == ("", "")


def test_eigen_oscillating_average_is_zeroed_and_flagged():
    y = StepPoint()
    f = Observable.indicator("1", y.alphabet)
    sample = eigenfunction_sample(f, 0.0, [y], FolnerSchedule.alternating(12),
                                  shift_probes=())
    assert sample.values == (0.0 + 0.0j,)
    assert sample.flags == ("oscillating",)


def test_eigen_needs_points():
    f, x = ab_indicator()
    with pytest.raises(ValueError):
        eigenfunction_sample(f, 0.5, [], intervals(10, 3))


# ---------------------------------------------------------------------------
# uniformity of shifted windows
# ---------------------------------------------------------------------------


def test_weyl_uniform_constant():
    x = PeriodicPoint("A")
    f = Observable.constant(0.8, x.alphabet)
    res = weyl_uniform_fb(f, x, 0.0, intervals(base=50, n_max=3), 3, (-100, 100))
    assert res.spread < 1e-12
    assert abs(res.max_modulus - 0.8) < 1e-12


def test_weyl_uniform_periodic_aligned_windows():
    f, x = ab_indicator()
    res = weyl_uniform_fb(f, x, 0.5, intervals(base=10, n_max=4), 4, (-50, 50))
    assert res.spread < 1e-12


def test_weyl_uniform_step_straddles():
    y = StepPoint()
    f = Observable.indicator("1", y.alphabet)
    res = weyl_uniform_fb(f, y, 0.0, FolnerSchedule.custom([(0, 50)]),
                          1, (-500, 500))
    assert res.max_modulus == 1.0
    assert res.min_modulus == 0.0
    assert res.spread == 1.0


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


def test_report_periodic_is_pure_point():
    f, x = ab_indicator()
    rep = spectral_report(f, x, intervals(base=100, n_max=6), [256, 512])
    assert rep.purity == "evidence-pure-point"
    assert len(rep.frequencies) == 2
    assert all(r is not None and r < 1e-10 for r in rep.cross_residuals)


def test_report_thue_morse_not_pure_point():
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    f = Observable.letter_values({"0": 1.0, "1": -1.0})
    rep = spectral_report(f, tm, intervals(base=2000, n_max=8),
                          [2 ** 12, 2 ** 13, 2 ** 14], max_frequencies=9)
    assert rep.energy.tail_max() == 1.0
    assert rep.parseval.final_defect > 0.9
    assert rep.purity == "evidence-not-pure-point"


def test_bessel_inequality_per_stage():
    # sum of squared coefficients at well separated frequencies stays
    # under the energy plus a cross-term slack decaying with the window
    x = BernoulliPoint(0.5, 21)
    f = Observable.letter_values({"0": -1.0, "1": 1.0})
    sched = intervals(base=500, n_max=5)
    thetas = [0.0, 0.21, 0.43, 0.7]
    traj = parseval_defect(f, x, thetas, sched)
    for d, (_, length) in zip(traj.defects, sched.windows):
        slack = len(thetas) ** 2 * 2.0 / (length * min(
            abs(1 - np.exp(2j * np.pi * (a - b)))
            for a in thetas for b in thetas if a != b))
        assert d >= -slack - 1e-12
