"""Acceptance gate: one test per criterion, run with `pytest -s` for the
per-criterion PASS/FAIL lines.

Every criterion passes.  Sub-checks 3b, 4b and 6b assert the exact
values of the paper's examples, each computed inside the test from its
closed form: the Sturmian Parseval tail over the nine strongest
frequencies, the Thue-Morse Riesz product on the FFT grid, and the
conservation of the step point's mismatch mass over the alternating
windows.  Their gate lines also print the measured defect share, grid
maximum and tail maximum.  See the test bodies for the derivations.
"""

import json
import time

import numpy as np
import pytest

from apspectra.almost import (EVIDENCE_AGAINST, EVIDENCE_FOR, ScanBudget,
                              almost_period_scan, averaged_D, classify_point,
                              orbit_profile)
from apspectra.diffraction import (WeightedComb, autocorrelation,
                                   bombieri_taylor_atom, diffraction_density,
                                   nphi_bridge, pure_point_fraction)
from apspectra.errors import NeverBelow
from apspectra.folner import (AdmissibleSeminorm, EstimatorConfig,
                              FolnerSchedule, Oscillating, partial_means,
                              seminorm_eval, stabilization_check, upper_mean)
from apspectra.points import (THUE_MORSE_RULES, BernoulliPoint, BlockPoint,
                              Observable, PeriodicPoint, StepPoint,
                              SturmianPoint, SubstitutionPoint, Track,
                              metric_d, observable_track, shift)
from apspectra.spectral import (detect_frequencies, eigenfunction_sample,
                                fourier_bohr, fourier_bohr_grid,
                                parseval_defect, spectral_report)
from cli_runner import run_cli

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def circ(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def gate(name: str, limit_s: float, started: float, checks):
    """Print one line for the criterion; fail with every violated clause."""
    elapsed = time.perf_counter() - started
    failures = [f"{desc} [{detail}]" for desc, ok, detail in checks if not ok]
    if elapsed > limit_s:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit_s}s")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s)")
    for desc, ok, detail in checks:
        mark = "ok" if ok else "FAILED"
        print(f"  - {desc}: {mark} [{detail}]")
    assert not failures, f"{name}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. periodic exactness
# ---------------------------------------------------------------------------


def test_criterion_1_periodic_exactness():
    started = time.perf_counter()
    x = PeriodicPoint("AB")
    f = Observable.indicator("A", x.alphabet)
    checks = []

    for n in (64, 256):
        g = fourier_bohr_grid(f, x, n)
        err = max(abs(g.amplitudes[0] - 0.5), abs(g.amplitudes[n // 2] - 0.5))
        checks.append((f"grid N={n}: c(0)=c(1/2)=0.5 within 1e-9", err < 1e-9,
                       f"err={err:.2e}"))

    sched = FolnerSchedule.intervals(base=100, n_max=6)
    traj = parseval_defect(f, x, [0.0, 0.5], sched)
    wd = max(abs(d) for d in traj.defects)
    checks.append(("parseval defect < 1e-9", wd < 1e-9, f"max|defect|={wd:.2e}"))

    comb = WeightedComb(x, {"A": 1.0, "B": 0.0})
    eta = autocorrelation(comb, 8, sched)
    masses = [(t, bombieri_taylor_atom(comb, t, sched).tail_max())
              for t in (0.0, 0.5)]
    frac = pure_point_fraction(masses, eta.eta0)
    checks.append(("pure point fraction = 1 within 1e-6", abs(frac - 1) < 1e-6,
                   f"fraction={frac!r}"))

    budget = ScanBudget(FolnerSchedule.intervals(base=50, n_max=5),
                        bohr_horizon=64)
    report = classify_point(x, [0.01, 0.05, 0.1, 0.2], budget, (-64, 64))
    all_for = all(v == EVIDENCE_FOR for v in report.verdicts.values())
    checks.append(("classify evidence-for on mean/weyl/bohr", all_for,
                   str(report.verdicts)))

    gate("1 (periodic exactness)", 1.0, started, checks)


# ---------------------------------------------------------------------------
# 2. bernoulli negative control
# ---------------------------------------------------------------------------


def test_criterion_2_bernoulli_negative_control():
    started = time.perf_counter()
    x = BernoulliPoint(0.5, 42)
    checks = []

    sched = FolnerSchedule.intervals(base=1000, n_max=10)   # window 10^4
    budget = ScanBudget(sched, estimator=EstimatorConfig(convergence_tol=0.05))
    profile = orbit_profile(x, range(-500, 501), budget, kinds=("mean",))
    nz = profile.t_values != 0
    lo = float(np.min(profile.mean_tail_max[nz]))
    hi = float(np.max(profile.mean_tail_max[nz]))
    checks.append(("averaged distance in [0.45, 0.55] for all t != 0",
                   0.45 <= lo and hi <= 0.55, f"range=[{lo:.4f}, {hi:.4f}]"))

    report = classify_point(x, [0.01, 0.05, 0.1, 0.2], budget, (-500, 500))
    checks.append(("classify mean evidence-against",
                   report.verdicts["mean"] == EVIDENCE_AGAINST,
                   str(report.verdicts)))

    # flat diffraction background 1/4 away from the mean-squared atom at 0;
    # the exclusion zone covers the Fejer main lobe of that atom
    comb = WeightedComb(x, {"0": 0.0, "1": 1.0})
    eta = autocorrelation(comb, 96, FolnerSchedule.intervals(base=100_000,
                                                             n_max=10))
    dens = diffraction_density(eta, "triangular", 512)
    away = np.minimum(dens.thetas, 1.0 - dens.thetas) >= 0.15
    dev = float(np.max(np.abs(dens.values[away] - 0.25)))
    checks.append(("density flat at 1/4 +- 0.02 away from 0", dev < 0.02,
                   f"max deviation={dev:.4f}"))

    gate("2 (bernoulli negative control)", 30.0, started, checks)


# ---------------------------------------------------------------------------
# 3. fibonacci pure point evidence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fibonacci_spectrum():
    x = SturmianPoint(GOLDEN, 0.0)
    f = Observable.indicator("0", x.alphabet)
    started = time.perf_counter()
    grids = [fourier_bohr_grid(f, x, n) for n in (2 ** 15, 2 ** 16, 2 ** 17)]
    freqs = detect_frequencies(grids)
    sched = FolnerSchedule.intervals(base=10_000, n_max=10)   # window 10^5
    top9 = [fr.theta for fr in freqs[:9]]
    traj = parseval_defect(f, x, top9, sched)
    theta1 = min((fr.theta for fr in freqs), key=lambda t: circ(t, GOLDEN))
    sample = eigenfunction_sample(
        f, theta1, x, (0, 13, 34, 89, 233), sched, shift_probes=(1, 2, 3))
    return {"freqs": freqs, "traj": traj, "sample": sample,
            "elapsed": time.perf_counter() - started,
            "started": started}


def test_criterion_3a_fibonacci_frequencies_and_eigenfunctions(fibonacci_spectrum):
    started = time.perf_counter() - fibonacci_spectrum["elapsed"]
    freqs = fibonacci_spectrum["freqs"]
    checks = []

    for k in (0, 1, -1, 2, -2):
        target = (k * GOLDEN) % 1.0
        best = min(circ(fr.theta, target) for fr in freqs)
        checks.append((f"refined theta within 1e-4 of frac({k}*alpha)",
                       best < 1e-4, f"dist={best:.2e}"))

    amp0 = next(fr for fr in freqs if circ(fr.theta, 0.0) < 1e-4)
    err = abs(abs(amp0.amplitude) - (1.0 - GOLDEN))
    checks.append(("amplitude at theta=0 equals 1-alpha within 1e-3",
                   err < 1e-3, f"amp={abs(amp0.amplitude):.6f}"))

    spread = fibonacci_spectrum["sample"].modulus_spread
    checks.append(("eigenfunction modulus spread < 0.05 over 5 points",
                   spread < 0.05, f"spread={spread:.2e}"))

    gate("3a (fibonacci frequencies)", 120.0, started, checks)


def test_criterion_3b_fibonacci_parseval_top9(fibonacci_spectrum):
    # The indicator of a letter with mean beta = 1 - alpha has Fourier-Bohr
    # coefficients c(k alpha) with |c_0|^2 = beta^2 and, for k != 0,
    # |c_k|^2 = sin(pi k beta)^2 / (pi k)^2 = sin(pi k alpha)^2 / (pi k)^2.
    # Since sum_{k>=1} sin(pi k beta)^2 / (pi k)^2 = beta (1 - beta) / 2,
    # the nine strongest frequencies, k alpha for |k| <= 4, leave the tail
    #   beta - beta^2 - 2 sum_{k=1..4} sin(pi k alpha)^2 / (pi k)^2
    # = 0.0199434, which is 5.22 percent of the energy beta = 0.381966.
    # Putting 6 alpha in place of 3 alpha would raise it by 4.3e-4, which
    # the 1e-4 tolerance below catches.
    traj = fibonacci_spectrum["traj"]
    energy = traj.energy.tail_max()
    defect = traj.final_defect
    beta = 1.0 - GOLDEN
    tail = beta - beta ** 2 - 2.0 * sum(
        np.sin(np.pi * k * GOLDEN) ** 2 / (np.pi * k) ** 2 for k in range(1, 5))
    theta_err = max(min(circ(theta, (k * GOLDEN) % 1.0) for theta in traj.thetas)
                    for k in range(-4, 5))
    started = time.perf_counter()
    checks = [
        ("energy matches 1-alpha", abs(energy - beta) < 1e-3,
         f"energy={energy:.6f}"),
        ("defect is nonnegative", defect > -1e-9, f"defect={defect:.6f}"),
        ("top 9 thetas are k*alpha mod 1 for |k| <= 4 within 1e-4",
         len(traj.thetas) == 9 and theta_err < 1e-4,
         f"{len(traj.thetas)} thetas, worst dist={theta_err:.2e}"),
        ("parseval defect with top 9 frequencies equals the |k| >= 5 tail "
         "within 1e-4", abs(defect - tail) <= 1e-4,
         f"defect={defect:.7f} = {defect / energy:.4%} of energy, "
         f"tail={tail:.7f}"),
    ]
    gate("3b (fibonacci parseval)", 120.0, started, checks)


# ---------------------------------------------------------------------------
# 4. thue-morse negative spectral control
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def thue_morse_spectrum():
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    f = Observable.letter_values({"0": 1.0, "1": -1.0})
    started = time.perf_counter()
    grid = fourier_bohr_grid(f, tm, 2 ** 16)
    rep = spectral_report(f, tm, FolnerSchedule.intervals(base=5000, n_max=10),
                          [2 ** 14, 2 ** 15, 2 ** 16], max_frequencies=9)
    return {"grid": grid, "report": rep, "point": tm, "observable": f,
            "elapsed": time.perf_counter() - started}


def test_criterion_4a_thue_morse_defect_and_purity(thue_morse_spectrum):
    started = time.perf_counter() - thue_morse_spectrum["elapsed"]
    rep = thue_morse_spectrum["report"]
    grid = thue_morse_spectrum["grid"]
    max_amp = float(np.max(np.abs(grid.amplitudes)))
    energy = rep.energy.tail_max()
    checks = [
        ("energy equals 1 exactly", energy == 1.0, f"energy={energy!r}"),
        ("parseval defect > 0.9 * energy (top 9 detected frequencies)",
         rep.parseval.final_defect > 0.9 * energy,
         f"defect={rep.parseval.final_defect:.4f}"),
        ("purity verdict evidence-not-pure-point",
         rep.purity == "evidence-not-pure-point", rep.purity),
        # regression baseline pinned from the first run of the grid oracle
        ("grid maximum matches the pinned baseline",
         abs(max_amp - 0.09780773725692163) < 1e-9, f"max={max_amp!r}"),
    ]
    gate("4a (thue-morse spectral control)", 60.0, started, checks)


def test_criterion_4b_thue_morse_grid_amplitude_bound(thue_morse_spectrum):
    # The first N = 2^n Thue-Morse signs t_m = (-1)^{s_2(m)} factor as
    #   sum_{m<N} t_m e(-m theta) = prod_{k<n} (1 - e(-2^k theta)),
    # so on the grid |A(j/N)| = prod_{k<n} 2|sin(pi 2^k j / N)| / N (the
    # Riesz product), evaluated here with exact integer residues.  Near the
    # doubling orbit of 1/3 each pair of factors is about 3, and the sup
    # over all theta is about 1.045 * 3^(n/2) / 2^n.  On the grid every
    # even j gives 0 and every odd j has 2 and sqrt(2) as its factors
    # k = n-1 and n-2 (2.83 < 3), which keeps the grid maximum below
    # 3^(n/2) / 2^n (3^8 / 2^16 = 0.1001; the maximum is 0.977 times
    # that).  The bound decays like N^(log_4 3 - 1) -> 0: no Fourier-Bohr
    # coefficient persists.
    started = time.perf_counter()
    tm = thue_morse_spectrum["point"]
    f = thue_morse_spectrum["observable"]
    grids = {16: thue_morse_spectrum["grid"]}
    grids.update({n: fourier_bohr_grid(f, tm, 2 ** n) for n in (14, 15)})
    checks = []
    for n in (14, 15, 16):
        size = 2 ** n
        j = np.arange(size, dtype=np.int64)
        riesz = np.ones(size)
        for k in range(n):
            riesz *= 2.0 * np.abs(np.sin(np.pi * ((j << k) % size) / size))
        riesz /= size
        amps = np.abs(grids[n].amplitudes)
        err = float(np.max(np.abs(amps - riesz)))
        checks.append((f"N=2^{n}: |grid amplitudes| equal the Riesz product "
                       "within 1e-12", err <= 1e-12, f"max err={err:.2e}"))
        max_amp = float(np.max(amps))
        bound = 3.0 ** (n / 2) / size
        checks.append((f"N=2^{n}: max grid amplitude <= 3^(n/2)/2^n",
                       max_amp <= bound,
                       f"max={max_amp:.5f}, bound={bound:.5f}"))
    gate("4b (thue-morse amplitude bound)", 60.0, started, checks)


# ---------------------------------------------------------------------------
# 5. the dyadic block point
# ---------------------------------------------------------------------------


def test_criterion_5_block_point_genericity_and_periods():
    started = time.perf_counter()
    x = BlockPoint()
    sched = FolnerSchedule.dyadic(16)
    f = Observable.indicator("1", x.alphabet)
    est = partial_means(observable_track(f, x, sched.span()[0],
                                         sched.span()[1] - 1), sched)
    a16 = est.partials[15][1].real
    checks = [
        ("site average at n=16 within 0.02 of 1/2", abs(a16 - 0.5) <= 0.02,
         f"a_16={a16!r}"),
    ]

    budget = ScanBudget(sched, bohr_horizon=32)
    scan = almost_period_scan(x, 0.1, "mean", (-32, 32), budget)
    nontrivial = [t for t in scan.periods if t != 0]
    checks.append(("mean scan at eps=0.1 finds a nontrivial period set",
                   len(nontrivial) > 0,
                   f"{len(nontrivial)} nontrivial periods, max_gap={scan.max_gap}"))

    gate("5 (dyadic block point)", 600.0, started, checks)


# ---------------------------------------------------------------------------
# 6. the step point along the alternating schedule
# ---------------------------------------------------------------------------


def test_criterion_6a_step_point_oscillates():
    started = time.perf_counter()
    y = StepPoint()
    sched = FolnerSchedule.alternating(12)
    f = Observable.indicator("1", y.alphabet)
    est = partial_means(observable_track(f, y, *(-12, 12)), sched)
    exact = all(a.real == (1.0 if n % 2 == 0 else 0.0)
                for n, a in est.partials)
    checks = [
        ("partial means are exactly 1 (even n) and 0 (odd n)", exact,
         str([(n, a.real) for n, a in est.partials[:6]])),
        ("verdict Oscillating(0, 1)", est.verdict == Oscillating(0.0, 1.0),
         str(est.verdict)),
    ]
    gate("6a (step point oscillation)", 600.0, started, checks)


def test_criterion_6b_step_point_averaged_distance():
    # The step point and its translate by t differ at exactly |t| sites
    # next to the edge, and the metric kernel smears that mismatch over
    # sites within 16 + |t| of 0 while keeping its total mass |t|.  Every
    # tail window of the alternating schedule, {0..n} or {-n..-1}, holds
    # the whole mass on its side of 0, so |B_n| * partial_n takes one value
    # L on the left windows and one value R on the right windows, with
    # L + R = |t|.  Hence partial_n = O(|t| / |B_n|) -> 0: the averaged
    # distance D(y, y+t) is 0 although no partial is exactly 0.
    started = time.perf_counter()
    y = StepPoint()
    sched = FolnerSchedule.alternating(64)
    min_tail_window = min(l for _, l in sched.windows[-5:])
    checks = []
    worst = 0.0
    oracle_ok, bound_ok = True, True
    mass_err = 0.0
    for t in [t for t in range(-16, 17) if t != 0]:
        est = averaged_D(y, t, sched, radius=16)
        tail_max = est.tail_max()
        worst = max(worst, tail_max)
        tail = list(zip(sched.windows, est.partials))[-5:]
        # independent oracle: site-by-site metric over the last windows
        for (s0, length), (_, a) in tail:
            brute = np.mean([metric_d(shift(y, s), shift(y, t + s), 16)
                             for s in range(s0, s0 + length)])
            if abs(a.real - brute) > 1e-12:
                oracle_ok = False
        if tail_max > abs(t) / min_tail_window + 1e-12:
            bound_ok = False
        left = [length * a.real for (s0, length), (_, a) in tail if s0 < 0]
        right = [length * a.real for (s0, length), (_, a) in tail if s0 >= 0]
        mass_err = max(mass_err, max(left) - min(left), max(right) - min(right),
                       abs(left[0] + right[0] - abs(t)))
    checks.append(("partials match the brute-force metric oracle", oracle_ok,
                   "site-by-site comparison over the tail windows"))
    checks.append(("tail max obeys the boundary-mass bound |t|/min|B_tail|",
                   bound_ok, f"worst tail max={worst:.6f}"))
    checks.append(("|B_n| * partial is one value per side, the two sum to "
                   "|t| within 1e-9, for all 0 < |t| <= 16", mass_err <= 1e-9,
                   f"worst tail max={worst:.6f}, mass error={mass_err:.1e}"))
    gate("6b (step point averaged distance)", 600.0, started, checks)


# ---------------------------------------------------------------------------
# 7. identity suites
# ---------------------------------------------------------------------------


def test_criterion_7_identity_suites():
    started = time.perf_counter()
    rng = np.random.default_rng(2718)
    checks = []

    # fast vs direct grid transform
    xb = BernoulliPoint(0.5, 303)
    fb = Observable.letter_values({"0": 0.2 + 0.7j, "1": -0.9})
    g = fourier_bohr_grid(fb, xb, 2048)
    checks.append(("fast vs direct transform residual < 1e-10",
                   g.cross_residual is not None and g.cross_residual < 1e-10,
                   f"residual={g.cross_residual:.2e}"))

    # atom estimates versus squared character averages
    sched = FolnerSchedule.intervals(base=300, n_max=5)
    comb = WeightedComb(xb, {"0": 0.3 + 0.1j, "1": -0.7})
    obs = comb.as_observable()
    worst = 0.0
    for theta in rng.uniform(0.0, 1.0, size=8):
        atom = bombieri_taylor_atom(comb, float(theta), sched)
        fbr = fourier_bohr(obs, xb, float(theta), sched)
        for (_, a), (_, b) in zip(atom.partials, fbr.partials):
            worst = max(worst, abs(a.real - abs(b) ** 2))
    checks.append(("atom vs squared fourier average residual < 1e-12",
                   worst < 1e-12, f"worst={worst:.2e}"))

    # kernel bridge: convolution route equals the cylinder route
    worst = 0.0
    for _ in range(10):
        offsets = sorted(rng.choice(np.arange(-4, 5), size=3, replace=False))
        kernel = {int(u): complex(rng.normal(), rng.normal()) for u in offsets}
        res = nphi_bridge(comb, kernel, -60, 60)
        worst = max(worst, res.residual)
    checks.append(("kernel bridge residual < 1e-12", worst < 1e-12,
                   f"worst={worst:.2e}"))

    # superlevel estimates on 100 random bounded tracks
    sched7 = FolnerSchedule.intervals(base=10, n_max=5)
    markov_ok = True
    for _ in range(100):
        h = rng.uniform(0.0, 1.0, size=50)
        delta = float(rng.uniform(0.05, 0.9))
        ind = (h >= delta).astype(float)
        um_h = upper_mean(Track(0, h), sched7)
        um_i = upper_mean(Track(0, ind), sched7)
        if not (um_i <= um_h / delta + 1e-12 and um_h <= um_i + delta + 1e-12):
            markov_ok = False
    checks.append(("superlevel estimates hold on 100 random tracks",
                   markov_ok, "both directions, identical windows"))

    # seminorm axioms on 100 random tracks
    sched_n = FolnerSchedule.intervals(base=15, n_max=4)
    norms = [AdmissibleSeminorm("sup"), AdmissibleSeminorm("mean", sched_n),
             AdmissibleSeminorm("weyl", sched_n, shift_budget=30)]
    lo, hi = -100, 160
    axioms_ok = True
    for norm in norms:
        if abs(seminorm_eval(norm, Track(lo, np.ones(hi - lo))) - 1.0) > 1e-12:
            axioms_ok = False
        for _ in range(34):
            fv = rng.uniform(-1, 1, size=hi - lo) + 1j * rng.uniform(-1, 1, size=hi - lo)
            gv = rng.uniform(-1, 1, size=hi - lo) + 1j * rng.uniform(-1, 1, size=hi - lo)
            nf, ng = seminorm_eval(norm, Track(lo, fv)), seminorm_eval(norm, Track(lo, gv))
            if seminorm_eval(norm, Track(lo, fv + gv)) > nf + ng + 1e-11:
                axioms_ok = False
            lam = complex(rng.normal(), rng.normal())
            if abs(seminorm_eval(norm, Track(lo, lam * fv)) - abs(lam) * nf) > 1e-9:
                axioms_ok = False
            if nf > seminorm_eval(norm, Track(lo, np.abs(fv) + 0.01)) + 1e-11:
                axioms_ok = False
    checks.append(("seminorm axioms hold on randomized tracks", axioms_ok,
                   "triangle, homogeneity, monotonicity, unit normalization"))

    # stabilization of uniform means on the single-bump track
    sbump = FolnerSchedule.intervals(base=2, n_max=10)
    vals = np.zeros(600)
    vals[300] = 1.0
    report = stabilization_check(Track(-300, vals), sbump, 0.1,
                                 shift_budget=100)
    ok = report.all_later_below and sbump.window(report.first_n_below)[1] > 10
    checks.append(("single-bump uniform means stabilize below 0.1", ok,
                   f"first index {report.first_n_below}, margin {report.margin:.3f}"))
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    pm = observable_track(Observable.letter_values({"0": 1.0, "1": -1.0}),
                          tm, -150, 150)
    with pytest.raises(NeverBelow):
        stabilization_check(pm, FolnerSchedule.intervals(base=8, n_max=4),
                            0.9, shift_budget=64)
    checks.append(("unimodular track reports never-below at eps=0.9", True,
                   "uniform means stay at 1"))

    gate("7 (identity suites)", 30.0, started, checks)


# ---------------------------------------------------------------------------
# 8. determinism of the front door
# ---------------------------------------------------------------------------

DETERMINISM_CONFIGS = [
    ("classify", {
        "point": "periodic:AB",
        "schedule": {"kind": "intervals", "base": 50, "n_max": 5},
        "eps_grid": [0.01, 0.05, 0.1, 0.2], "range": [-64, 64],
        "bohr_horizon": 64}),
    ("parseval", {
        "point": "periodic:AB",
        "observable": {"kind": "indicator", "letter": "A"},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 6},
        "thetas": [0.0, 0.5]}),
    ("diffract", {
        "point": "periodic:AB", "weights": {"A": 1.0, "B": 0.0},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 6},
        "k_max": 8, "grid_size": 32, "atom_thetas": [0.0, 0.5]}),
    ("scan", {
        "point": "bernoulli:0.5:42", "kinds": ["mean"],
        "schedule": {"kind": "intervals", "base": 1000, "n_max": 10},
        "estimator": {"convergence_tol": 0.05},
        "epsilon": 0.2, "range": [-500, 500]}),
    ("classify", {
        "point": "bernoulli:0.5:42",
        "schedule": {"kind": "intervals", "base": 1000, "n_max": 10},
        "estimator": {"convergence_tol": 0.05},
        "eps_grid": [0.01, 0.05, 0.1, 0.2], "range": [-500, 500]}),
    ("diffract", {
        "point": "bernoulli:0.5:42", "weights": {"0": 0.0, "1": 1.0},
        "schedule": {"kind": "intervals", "base": 100000, "n_max": 10},
        "k_max": 96, "grid_size": 512, "atom_thetas": [0.0]}),
    ("spectrum", {
        "point": {"kind": "sturmian", "alpha": GOLDEN},
        "observable": {"kind": "indicator", "letter": "0"},
        "schedule": {"kind": "intervals", "base": 10000, "n_max": 10},
        "grid_sizes": [32768, 65536, 131072], "max_frequencies": 9}),
    ("eigen", {
        "point": {"kind": "sturmian", "alpha": GOLDEN},
        "observable": {"kind": "indicator", "letter": "0"},
        "schedule": {"kind": "intervals", "base": 10000, "n_max": 10},
        "theta": GOLDEN, "point_shifts": [0, 13, 34, 89, 233],
        "shift_probes": [1, 2, 3]}),
    ("spectrum", {
        "point": "thue-morse",
        "observable": {"kind": "letter_values", "map": {"0": 1.0, "1": -1.0}},
        "schedule": {"kind": "intervals", "base": 5000, "n_max": 10},
        "grid_sizes": [16384, 32768, 65536], "max_frequencies": 9}),
    ("scan", {
        "point": "block", "kinds": ["mean"],
        "schedule": {"kind": "dyadic", "n_max": 16},
        "epsilon": 0.1, "range": [-32, 32]}),
    ("scan", {
        "point": "step", "kinds": ["mean"],
        "schedule": {"kind": "alternating", "n_max": 64},
        "epsilon": 0.1, "range": [-16, 16]}),
    ("generate", {
        "point": "fibonacci", "range": [-64, 64],
        "observable": "indicator:0"}),
]


def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    checks = []
    for i, (command, cfg) in enumerate(DETERMINISM_CONFIGS):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"out{i}{run}"
            res = run_cli([
                command, "--config", str(cfg_path), "--out", str(out)])
            assert res.exit_code == 0, f"{command} cfg{i}: {res.output}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
            (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
            for n in names)
        checks.append((f"{command} cfg{i} byte-identical", identical,
                       ",".join(names)))
    gate("8 (determinism)", 600.0, started, checks)
