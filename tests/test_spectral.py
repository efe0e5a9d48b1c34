"""Fourier coefficients along orbits, detection, Parseval, eigenfunctions."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apspectra import folner, spectral
from apspectra.folner import (Character, Converged, EstimatorConfig,
                              FolnerSchedule, Oscillating, WindowSegments,
                              estimate)
from apspectra.points import (FIBONACCI_RULES, THUE_MORSE_RULES,
                              BernoulliPoint, BlockPoint, Observable,
                              PeriodicPoint, StepPoint, SturmianPoint,
                              SubstitutionPoint, Track, observable_source,
                              observable_track, shift, sup_norm)
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
    fast = fourier_bohr_grid(f, x, 1024)
    direct = folner.phase_sums(1024, 0, fast.track) / 1024
    assert fast.cross_residual < 1e-10
    assert np.max(np.abs(fast.amplitudes - direct)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), pattern=st.text("ABC", min_size=1, max_size=7),
       seed=st.one_of(st.none(), st.integers(0, 2 ** 31 - 1)),
       re_=st.floats(-2, 2), im=st.floats(-2, 2))
def test_grid_fast_equals_direct(n, pattern, seed, re_, im):
    x = PeriodicPoint(pattern) if seed is None else BernoulliPoint(0.5, seed)
    f = Observable.letter_values(
        {a: complex(re_, im) if a in "A1" else 1.0 for a in x.alphabet})
    fast = fourier_bohr_grid(f, x, n)
    direct = folner.phase_sums(n, 0, fast.track) / n
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(fast.amplitudes - direct)) <= 1e-10 * scale
    assert fast.cross_residual <= 1e-10


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="needs an extended-precision long double")
@pytest.mark.parametrize("n", [1000, 3000])
def test_direct_grid_reduces_j_t_mod_n_exactly(n):
    # the direct grid against a long double sum with j t reduced mod n
    # in integers: given j / n rounded alone, the kernel would put the
    # phase at t near n up to n 2^-54 of a turn off (1e-13 of the largest
    # amplitude at n = 3000); reduced exactly, the direct grid and the
    # FFT's check are both within 5e-16 here, and the bound leaves 4x
    rng = np.random.default_rng(n)
    values = rng.random(n) + 1j * rng.random(n)
    direct = folner.phase_sums(n, 0, values) / n
    j = np.arange(n)
    two_pi = 8 * np.arctan(np.longdouble(1))
    want = np.empty(n, dtype=np.clongdouble)
    for a in range(0, n, 128):
        turns = (np.outer(j[a:a + 128], j) % n).astype(np.longdouble) / n
        want[a:a + 128] = np.exp(-two_pi * turns * np.clongdouble(1j)) @ values
    want /= n
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(direct - want))) <= 2e-15 * scale
    assert spectral._grid(values).cross_residual <= 2e-15


def test_a_perturbed_peak_bin_fails_the_grid_check(monkeypatch):
    # every stage is checked at the peaks detection would refine: a real
    # FFT whose strongest bin is off by 1e-9 shows in the residual
    f = Observable.letter_values({"0": 1.0, "1": -1.0})
    x = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    n = 2 ** 13
    clean = fourier_bohr_grid(f, x, n)
    peak = int(np.argmax(np.abs(clean.amplitudes[:n // 2 + 1])))
    rfft = np.fft.rfft

    def perturbed(a, *args, **kwargs):
        out = rfft(a, *args, **kwargs)
        out[peak] += 1e-9 * len(a)      # 1e-9 on the grid's coefficient
        return out
    monkeypatch.setattr(np.fft, "rfft", perturbed)
    grid = fourier_bohr_grid(f, x, n)
    assert abs(grid.amplitudes[peak] - clean.amplitudes[peak] - 1e-9) < 1e-15
    assert clean.cross_residual < 1e-14
    assert grid.cross_residual > 1e-10


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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 1200), seed=st.integers(0, 2 ** 32 - 1),
       levels=st.lists(st.floats(-4, 4), min_size=1, max_size=4))
@example(n=2, seed=0, levels=[1.0, -0.5])
@example(n=7, seed=1, levels=[0.0, 1.0])
@example(n=4096, seed=2, levels=[-1.0, 1.0, 0.25])
def test_real_track_grid_is_exactly_hermitian(n, seed, levels):
    # a real track takes the real FFT: bins n // 2 + 1 .. n - 1 are the
    # conjugates of bins (n + 1) // 2 - 1 .. 1 bit for bit, signed zeros
    # too, and the whole grid still agrees with the direct sum
    values = np.random.default_rng(seed).choice(levels, n)
    grid = spectral._grid(values)
    amps = grid.amplitudes
    half = n // 2 + 1
    assert np.array_equal(amps[half:].view(np.uint64),
                          np.conj(amps[n - half:0:-1]).view(np.uint64))
    assert amps[0].imag == 0.0 and (n % 2 or amps[n // 2].imag == 0.0)
    assert grid.cross_residual <= 1e-10
    # a complex track keeps the full FFT
    tilted = values + 1j * values[::-1]
    if tilted.imag.any():
        assert np.array_equal(spectral._grid(tilted).amplitudes.view(np.uint64),
                              (np.fft.fft(tilted) / n).view(np.uint64))


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
    got = spectral._newton_refine(spectral._Moments(track), 0.5 * (lo + hi),
                                  lo, hi, 48)
    assert got == near
    assert abs(golden_max(track, lo, hi) - near) < 1e-12


# ---------------------------------------------------------------------------
# the moment kernel against a long double evaluation
# ---------------------------------------------------------------------------


def moments_ld(track, theta):
    """sum_t s^k track[t] e(-theta t), k = 0, 1, 2, s = t - (n - 1) / 2,
    in np.clongdouble."""
    n = len(track)
    t = np.arange(n, dtype=np.longdouble)
    s = t - np.longdouble(n - 1) / 2
    two_pi = 8 * np.arctan(np.longdouble(1))
    terms = track.astype(np.clongdouble) * np.exp(
        (-two_pi * np.longdouble(theta) * t) * np.clongdouble(1j))
    return [complex(np.sum(terms * s ** k)) for k in range(3)], s


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="needs an extended-precision long double")
@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5000), theta=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1), complex_track=st.booleans())
@example(n=2, theta=0.5, seed=0, complex_track=False)
@example(n=4097, theta=0.9999999, seed=1, complex_track=True)
@example(n=5000, theta=0.3819660112501051, seed=2, complex_track=False)
def test_moment_kernel_matches_long_double(n, theta, seed, complex_track):
    rng = np.random.default_rng(seed)
    track = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_track
                                  else 0.0)
    kernel = spectral._Moments(track)
    q, r = kernel.q, kernel.r
    assert q * r >= n and q * (r - 1) < n        # pads less than one row
    got = kernel(theta)
    want, s = moments_ld(track, theta)
    # Error of one term relative to |s^k track[t]|: for n <= 5000, q and
    # r stay below PHASE_TABLE, so each column and row entry is one kernel
    # table entry (times e(0) = 1 exactly), with its turn theta x reduced
    # modulo 1 to within 3 ulp of a turn, and 2 pi times it and exp are
    # off by at most 8 pi ulp; the weight s^k track[t] and the two complex
    # products add 7 ulp.  The sums run over q columns, then r rows.  The
    # long double reference rounds its phase 2 pi theta t, t < n, and its
    # n-term sum in ulp of 2^-64, together below n / 256 ulp of float64.
    assert max(q, r) < folner.PHASE_TABLE
    ulps = q + r + 16 * np.pi + 7 + n / 256
    eps = np.finfo(float).eps / 2
    for k in range(3):
        scale = float(np.sum(np.abs(track) * np.abs(s.astype(float)) ** k))
        assert abs(got[k] - want[k]) <= ulps * eps * scale
    amplitude = complex(np.mean(track * np.exp(-2j * np.pi * theta
                                               * np.arange(n))))
    assert abs(kernel.amplitude(theta) - amplitude) <= (
        (ulps + np.pi * n) * eps * np.mean(np.abs(track)))


# ---------------------------------------------------------------------------
# real tracks: mirrored pairs and the tie rule
# ---------------------------------------------------------------------------


def real_tracks():
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    yield observable_track(Observable.letter_values({"0": 1.0, "1": -1.0}),
                           tm, 0, 8191), (2048, 4096, 8192)
    x = SturmianPoint(GOLDEN, 0.1)
    yield observable_track(Observable.indicator("0", x.alphabet), x,
                           0, 4095), (1024, 4096)
    signs = np.random.default_rng(5).choice([-1.0, 1.0], size=3000)
    yield Track(0, signs), (1500, 3000)


@pytest.mark.parametrize("track,sizes", list(real_tracks()),
                         ids=["thue-morse", "sturmian", "random-signs"])
def test_real_track_frequencies_come_in_mirrored_pairs(track, sizes):
    n = sizes[-1]
    freqs = detect_frequencies(fourier_bohr_grids(track, sizes),
                               threshold=0.01)
    assert len(freqs) > 4
    by_bin = {round(fr.theta_grid * n): fr for fr in freqs}
    assert len(by_bin) == len(freqs)
    for j, fr in by_bin.items():
        if 2 * j % n == 0:           # bins 0 and n/2 have no mirror
            continue
        refined, mirror = (fr, by_bin[n - j]) if 2 * j < n else (by_bin[n - j], fr)
        assert mirror.theta == (1.0 - refined.theta) % 1.0
        assert mirror.amplitude == refined.amplitude.conjugate()
        assert abs(mirror.amplitude) == abs(refined.amplitude)
    # exact ties rank the larger theta first
    for a, b in zip(freqs, freqs[1:]):
        assert abs(a.amplitude) > abs(b.amplitude) or a.theta > b.theta


@pytest.mark.parametrize("seed", range(5))
def test_real_track_zero_frequency_is_exactly_zero(seed):
    # bins -1 and 1 of a real track's grid are conjugates bit for bit, so
    # bin 0's three-bin offset and |A|^2' at 0 are exactly 0
    rng = np.random.default_rng(seed)
    track = Track(0, rng.choice([0.0, 1.0, 2.5], size=2048, p=[0.5, 0.3, 0.2]))
    freqs = detect_frequencies(fourier_bohr_grids(track, (512, 1024, 2048)))
    zero = [fr for fr in freqs if fr.theta_grid == 0.0]
    assert len(zero) == 1
    assert repr(zero[0].theta) == "0.0"
    assert zero[0].amplitude.imag == 0.0


@pytest.mark.parametrize("rho", [0.0, 0.4943832677402198])
def test_sturmian_zero_frequency_is_listed_as_zero(rho):
    # the spectrum config 6 of the determinism suite, at its own phase and
    # at the one the benchmark's held-out seed draws
    x = SturmianPoint(GOLDEN, rho)
    rep = spectral_report(Observable.indicator("0", x.alphabet), x,
                          intervals(base=10000, n_max=10),
                          [32768, 65536, 131072], max_frequencies=9)
    doc = rep.describe()
    zero = [fr for fr in doc["frequencies"] if fr["theta_grid"] == 0.0]
    assert len(zero) == 1
    assert repr(zero[0]["theta"]) == "0.0"
    assert repr(zero[0]["amplitude"][1]) == "0.0"
    assert "0.0" in doc["trajectories"]
    assert 0.0 in doc["parseval"]["thetas"]


def test_odd_frequency_cut_keeps_larger_theta_of_tied_pair():
    # the Thue-Morse spectrum at cfg 8's proportions: its 9th and 10th
    # frequencies are a mirrored pair, so a cut at 9 splits it
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    f = Observable.letter_values({"0": 1.0, "1": -1.0})
    rep = spectral_report(f, tm, intervals(base=800, n_max=10),
                          [2 ** 11, 2 ** 12, 2 ** 13], max_frequencies=9)
    thetas = [fr.theta for fr in rep.frequencies]
    assert len(thetas) == 9
    assert thetas[-1] == 0.6458515243290301
    assert all(circ(t, 0.3541484756709699) > 1e-3 for t in thetas)
    assert sorted(round(t, 4) for t in thetas) == [
        0.3334, 0.3336, 0.3346, 0.4166, 0.5834, 0.6459, 0.6654, 0.6664,
        0.6666]


# ---------------------------------------------------------------------------
# closed forms: periodic patterns on grids of whole periods
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       complex_pattern=st.booleans(), m=st.integers(2, 60),
       stages=st.integers(2, 3))
def test_periodic_pattern_detected_at_its_closed_forms(p, seed,
                                                       complex_pattern, m,
                                                       stages):
    rng = np.random.default_rng(seed)
    pattern = rng.uniform(-1, 1, p) + (1j * rng.uniform(-1, 1, p)
                                       if complex_pattern else 0.0)
    sizes = [m * p * 2 ** i for i in range(stages)]
    track = Track(0, np.tile(pattern, sizes[-1] // p))
    grids = fourier_bohr_grids(track, sizes)
    coeffs = np.fft.fft(pattern) / p         # a_{j/p}
    sup = float(np.max(np.abs(pattern)))
    for g in grids:
        assert np.max(np.abs(g.amplitudes[::g.n // p] - coeffs)) <= 1e-12 * sup
    freqs = detect_frequencies(grids)
    # a coefficient within this margin of the default threshold 0.02 sup
    # may land on either side of it: the decision there is rounding
    margin = 1e-9 * sup
    thr = 0.02 * sup
    for fr in freqs:
        j = round(fr.theta * p) % p
        assert circ(fr.theta, j / p) <= 1e-9
        assert abs(fr.amplitude - coeffs[j]) <= 1e-12 * sup
        assert abs(coeffs[j]) >= thr - margin
    found = {round(fr.theta * p) % p for fr in freqs}
    assert len(found) == len(freqs)
    assert {j for j in range(p) if abs(coeffs[j]) >= thr + margin} <= found


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
    sample = eigenfunction_sample(f, 0.3, x, [0, 1],
                                  intervals(base=1000, n_max=6))
    assert all(abs(v) < 1e-2 for v in sample.values)
    assert sample.modulus_spread < 1e-2
    assert sample.eigen_residual < 1e-2


def test_eigen_periodic_half_frequency():
    f, x = ab_indicator()
    sample = eigenfunction_sample(f, 0.5, x, [0, 1],
                                  intervals(base=100, n_max=6),
                                  shift_probes=(1, 2, 3))
    e0, e1 = sample.values
    assert abs(e0 - 0.5) < 1e-9
    assert abs(e1 + 0.5) < 1e-9
    assert sample.eigen_residual < 1e-9
    assert sample.modulus_spread < 1e-9
    assert sample.flags == ("", "")


@settings(max_examples=40, deadline=None)
@given(pattern=st.text("ABC", min_size=1, max_size=6), data=st.data())
def test_eigen_residual_vanishes_on_periodic_points(pattern, data):
    x = PeriodicPoint(pattern)
    p = len(pattern)
    theta = data.draw(st.integers(0, p - 1)) / p
    letter = data.draw(st.sampled_from(x.alphabet))
    f = Observable.indicator(letter, x.alphabet)
    # windows of whole periods make every average exact
    sample = eigenfunction_sample(f, theta, x, [0, 1],
                                  intervals(base=p * 20, n_max=6))
    assert sample.flags == ("", "")
    assert sample.eigen_residual <= 1e-12


def test_eigen_oscillating_average_is_zeroed_and_flagged():
    y = StepPoint()
    f = Observable.indicator("1", y.alphabet)
    sample = eigenfunction_sample(f, 0.0, y, [0], FolnerSchedule.alternating(12),
                                  shift_probes=())
    assert sample.values == (0.0 + 0.0j,)
    assert sample.flags == ("oscillating",)


def test_eigen_needs_points():
    f, x = ab_indicator()
    with pytest.raises(ValueError):
        eigenfunction_sample(f, 0.5, x, [], intervals(10, 3))


def per_point_eigen(f, theta, x, point_shifts, schedule, probes, config):
    """The eigen sample taken point by point and probe by probe, the
    reference route: for each point s.x and probe t, the window means of
    f(u.(t.(s.x))) conj(xi(u)) over every B_n, from a track of s.x over
    the span moved by t, whose sup scales the verdict.
    Returns the sample's fields, each offset s + t's sup, and whether
    some verdict was decided by rounding (``near_a_tolerance``)."""
    xi = Character(theta)
    lo, hi = schedule.span()
    segments = WindowSegments(schedule.windows)
    found, sups, tie = {}, {}, False
    for s in point_shifts:
        for t in (0, *probes):
            track = observable_track(f, shift(x, s), lo + t, hi + t - 1)
            moved = Track(lo, track.values)             # u -> f((u + t).(s.x))
            means = segments.sums(lambda a, b: moved.read(a, b)
                                  * xi.conj_values(a, b)) / schedule.lengths()
            sups[s + t] = sup_norm(track.values)
            est = estimate(means, sups[s + t], config)
            tie = tie or near_a_tolerance(means, sups[s + t], config)
            if isinstance(est.verdict, Converged):
                found[s, t] = complex(est.verdict.limit), ""
            elif isinstance(est.verdict, Oscillating):
                found[s, t] = 0j, "oscillating"
            else:
                found[s, t] = est.last, "undecided"
    values, flags, residual = [], [], 0.0
    for s in point_shifts:
        e_p, flag = found[s, 0]
        values.append(e_p)
        flags.append(flag)
        if flag == "undecided":
            continue
        for t in probes:
            e_t, flag_t = found[s, t]
            if flag_t != "undecided":
                residual = max(residual, abs(e_t - xi(t) * e_p))
    mods = [abs(v) for v, flag in zip(values, flags) if flag != "undecided"]
    spread = max(mods) - min(mods) if mods else 0.0
    return values, flags, residual, spread, sups, tie


def near_a_tolerance(means, sup, config):
    """Does a spread that the verdict compares with a tolerance lie within
    1e-12 of it?  Then rounding alone decides the verdict: a window mean
    summed in another order may fall on the other side."""
    k = min(config.tail, len(means))
    scale = sup if sup > 0 else 1.0
    conv, osc = config.convergence_tol * scale, config.oscillation_threshold * scale
    spreads = [np.max(np.abs(np.subtract.outer(w, w))) for w in
               (means[max(0, len(means) - back - k):len(means) - back]
                for back in range(k))]
    return any(abs(d - tol) <= 1e-12 for d, tol in
               [(spreads[0], conv), *((d, osc) for d in spreads)])


EIGEN_POINTS = st.one_of(
    st.sampled_from([PeriodicPoint("ABC"), SubstitutionPoint(FIBONACCI_RULES),
                     SubstitutionPoint(THUE_MORSE_RULES),
                     SturmianPoint(GOLDEN, 0.3), StepPoint(), BlockPoint()]),
    st.builds(BernoulliPoint, st.just(0.4), st.integers(0, 2 ** 32)))


@st.composite
def custom_schedules(draw):
    # growing lengths at any starts: windows that need not nest or touch
    lengths = sorted(draw(st.lists(st.integers(1, 120), min_size=1, max_size=6,
                                   unique=True)))
    return FolnerSchedule.custom([(draw(st.integers(-150, 150)), length)
                                  for length in lengths])


@st.composite
def eigen_cases(draw):
    x = draw(EIGEN_POINTS)
    window = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2,
                           unique=True))
    patterns = ["".join(p) for p in itertools.product(x.alphabet,
                                                      repeat=len(window))]
    # all-real tables make real tracks, the others complex ones
    entries = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0, 1j,
                                             complex(0.5, -1.5)]),
                            min_size=len(patterns), max_size=len(patterns)))
    f = Observable(tuple(window), dict(zip(patterns, map(complex, entries))))
    schedule = draw(st.one_of(
        st.builds(FolnerSchedule.intervals, st.integers(1, 60), st.integers(1, 8)),
        st.builds(FolnerSchedule.alternating, st.integers(1, 40)),
        custom_schedules()))
    theta = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1.0 - 1e-13, 0.5, 1 / 3,
                                  GOLDEN, -0.3, 1.7, 5.25]))
    shifts = draw(st.lists(st.integers(-3000, 3000), min_size=1, max_size=5))
    probes = draw(st.lists(st.integers(-8, 8), max_size=4))
    tail = draw(st.integers(1, 6))
    return x, f, schedule, theta, shifts, probes, tail


CFG7_CASE = (SturmianPoint(GOLDEN, 0.0),
             Observable.indicator("0", ("0", "1")), intervals(10_000, 10),
             GOLDEN, [0, 13, 34, 89, 233], [1, 2, 3], 5)
FAR_CASE = (SubstitutionPoint(FIBONACCI_RULES),
            Observable.letter_values({"0": 1.0, "1": -0.5j}), intervals(50, 4),
            0.3, [-5000, 0, 0, 7, 10 ** 6], [0, 3, 3, 250, -199], 5)
# one run of offsets whose moved spans see sups 0.5 and 2 on either side
# of the step
STEP_CASE = (StepPoint(), Observable.letter_values({"0": 0.5, "1": -2.0}),
             intervals(10, 3), GOLDEN, [-40, -35, -20], [1, 5], 5)
# means 0.5, 0.5, 1: undecided, since the oldest of the 2 tail - 1 = 3
# partials the verdict reads ends the oscillation; without it, oscillating
OLDEST_CASE = (StepPoint(), Observable.indicator("1", ("0", "1")),
               FolnerSchedule.custom([(-1, 2), (-2, 4), (0, 6)]), 0.0, [0], [],
               2)


@settings(max_examples=40, deadline=None)
@example(case=CFG7_CASE, run_windows=spectral.RUN_WINDOWS,
         run_block=folner.RUN_BLOCK)
@example(case=FAR_CASE, run_windows=spectral.RUN_WINDOWS,
         run_block=folner.RUN_BLOCK)
@example(case=STEP_CASE, run_windows=spectral.RUN_WINDOWS, run_block=5)
@example(case=OLDEST_CASE, run_windows=1, run_block=folner.RUN_BLOCK)
@given(case=eigen_cases(), run_windows=st.sampled_from([1, 7, spectral.RUN_WINDOWS]),
       run_block=st.sampled_from([5, 64, folner.RUN_BLOCK]))
def test_eigen_from_one_track_equals_the_per_point_route(case, run_windows,
                                                         run_block):
    # e(theta d) times the means over the windows moved by d = s + t, read
    # in runs of offsets, gives the per-point sample: flags equal, every
    # sup bit for bit and the values to 1e-12.  Not where a spread ties a
    # tolerance: intervals(20, 2) at theta 1/4 on a 0/1 track has window
    # means -0.05 +- 0.05i, whose spread 0.1 is the oscillation threshold
    # up to rounding, and the two routes round it to either side
    x, f, schedule, theta, shifts, probes, tail = case
    config = EstimatorConfig(tail=tail)
    values, flags, residual, spread, sups, tie = per_point_eigen(
        f, theta, x, shifts, schedule, probes, config)
    assume(not tie)
    seen = []

    def recording(avgs, sup, config):
        seen.append(sup)
        return estimate(avgs, sup, config)
    with mock.patch.object(spectral, "estimate", recording), \
            mock.patch.object(spectral, "RUN_WINDOWS", run_windows), \
            mock.patch.object(folner, "RUN_BLOCK", run_block):
        sample = eigenfunction_sample(f, theta, x, shifts, schedule, probes,
                                      config)
    assert list(sample.flags) == flags
    assert bits(np.array(seen)) == bits(np.array([sups[d] for d in sorted(sups)]))
    assert max(abs(a - b) for a, b in zip(sample.values, values)) <= 1e-12
    assert abs(sample.eigen_residual - residual) <= 1e-12
    assert abs(sample.modulus_spread - spread) <= 1e-12


def bits(values: np.ndarray) -> list[int]:
    return values.view(np.uint64).ravel().tolist()


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
    assert all(r < 1e-10 for r in rep.cross_residuals)


def test_eigen_reads_each_run_of_offsets_once(monkeypatch):
    # 5 points and 3 probes within one span: one run reads the span and
    # the offsets' spread once, where a read per (point, probe) took 20
    # spans; offsets more than a span apart are read in runs of their own
    x = SturmianPoint(GOLDEN, 0.1)
    f = Observable.indicator("0", x.alphabet)
    reads = []

    def counting(f, x):
        source = observable_source(f, x)

        def read(a, b):
            reads.append((a, b))
            return source(a, b)
        return read
    monkeypatch.setattr(spectral, "observable_source", counting)
    schedule = intervals(base=1000, n_max=8)            # a span of 8000
    eigenfunction_sample(f, GOLDEN, x, [0, 13, 34, 89, 233], schedule, (1, 2, 3))
    assert sum(b - a for a, b in reads) == 8000 + 236
    reads.clear()
    eigenfunction_sample(f, GOLDEN, x, [10 ** 6, 0, -10 ** 6], schedule, (1, 2, 3))
    assert sorted(reads) == [(s, s + 8003) for s in (-10 ** 6, 0, 10 ** 6)]


@pytest.mark.parametrize("schedule", [
    FolnerSchedule.alternating(600),                    # left of the grids
    FolnerSchedule.intervals(base=300, n_max=4),        # past the largest grid
    FolnerSchedule.dyadic(8)])                          # inside the grids
def test_report_averages_equal_parseval_read_from_the_point(schedule,
                                                            monkeypatch):
    # the report reads its averages from its grid track where that covers
    # a piece, else from the point: either way they keep the bits of
    # parseval_defect, which reads every piece from the point; short run
    # blocks make pieces of both kinds
    monkeypatch.setattr(folner, "RUN_BLOCK", 64)
    x = shift(SubstitutionPoint(FIBONACCI_RULES), 17)
    f = Observable((0, 2), {"00": 1.0, "01": 0.5j, "10": -0.0, "11": 2.0})
    rep = spectral_report(f, x, schedule, [256, 512], max_frequencies=5)
    thetas = tuple(fr.theta for fr in rep.frequencies)
    assert len(thetas) > 1
    traj = parseval_defect(f, x, thetas, schedule)
    assert rep.parseval.describe() == traj.describe()
    for theta in thetas:
        assert (rep.trajectories[theta].describe()
                == fourier_bohr(f, x, theta, schedule).describe())


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
