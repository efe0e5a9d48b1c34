"""Averaged orbit metrics, almost-period scans, classification."""

import numpy as np
import pytest

from apspectra import almost
from apspectra.almost import (EVIDENCE_AGAINST, EVIDENCE_FOR, ScanBudget,
                              almost_period_scan, averaged_D, averaged_Dn,
                              classify_point, function_almost_periods,
                              orbit_profile, superlevel_density)
from apspectra.errors import EmptyShiftRange, MissingSamples
from apspectra.folner import (Converged, EstimatorConfig, FolnerSchedule,
                              partial_means, uniform_mean)
from apspectra.points import (FIBONACCI_RULES, THUE_MORSE_RULES,
                              BernoulliPoint, Observable, PeriodicPoint,
                              StepPoint, SturmianPoint, SubstitutionPoint,
                              BlockPoint, Track, cylinder_weights, metric_d,
                              observable_track, shift)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def intervals(base=100, n_max=8):
    return FolnerSchedule.intervals(base=base, n_max=n_max)


# ---------------------------------------------------------------------------
# averaged distance
# ---------------------------------------------------------------------------


def test_averaged_D_vanishes_at_zero_shift():
    for x in (PeriodicPoint("AB"), StepPoint(), BernoulliPoint(0.5, 1)):
        est = averaged_D(x, 0, intervals(20, 5))
        assert all(a == 0.0 for _, a in est.partials)
        assert est.verdict == Converged(0.0 + 0.0j, 0.0)


def test_averaged_D_periodic_exact():
    x = PeriodicPoint("AB")
    est2 = averaged_D(x, 2, intervals(20, 5))
    assert all(a == 0.0 for _, a in est2.partials)
    est1 = averaged_D(x, 1, intervals(20, 5))
    assert all(abs(a - 1.0) < 1e-12 for _, a in est1.partials)


def test_averaged_D_bernoulli_near_half():
    x = BernoulliPoint(0.5, 4242)
    sched = intervals(base=1000, n_max=10)
    for t in (1, -3, 17):
        est = averaged_D(x, t, sched, radius=16)
        assert abs(est.tail_max() - 0.5) < 0.05


def test_averaged_D_matches_bruteforce_metric():
    x = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    sched = FolnerSchedule.custom([(0, 8), (-5, 15), (-10, 30)])
    t = 3
    est = averaged_D(x, t, sched, radius=6)
    for (s0, length), (_, a) in zip(sched.windows, est.partials):
        brute = np.mean([metric_d(shift(x, s), shift(x, t + s), 6)
                         for s in range(s0, s0 + length)])
        assert abs(a.real - brute) < 1e-12


# ---------------------------------------------------------------------------
# uniform averaged distance
# ---------------------------------------------------------------------------


def test_averaged_Dn_zero_shift():
    value, _ = averaged_Dn(StepPoint(), 0, intervals(10, 3), 2, (-50, 50))
    assert value == 0.0


def test_averaged_Dn_periodic_all_one():
    x = PeriodicPoint("AB")
    for n in (1, 2, 3):
        value, _ = averaged_Dn(x, 1, intervals(10, 3), n, (-40, 40))
        assert abs(value - 1.0) < 1e-12


def test_averaged_Dn_step_matches_bruteforce():
    y = StepPoint()
    sched = FolnerSchedule.custom([(0, 10)])
    span = 200
    value, arg = averaged_Dn(y, 1, sched, 1, (-span, span), radius=8)
    d = [metric_d(shift(y, s), shift(y, 1 + s), 8)
         for s in range(-span - 9, span + 10)]
    sums = [np.mean(d[i:i + 10]) for i in range(2 * span + 1)]
    assert abs(value - max(sums)) < 1e-12
    assert value > 0.0
    # the best window covers the step; mass there is about d(edge)/10
    assert value < 0.2


def test_averaged_Dn_dominates_plain_average():
    x = BernoulliPoint(0.4, 5)
    sched = intervals(base=50, n_max=4)
    for t in (1, 5):
        est = averaged_D(x, t, sched)
        for n in (1, 2, 3, 4):
            value, _ = averaged_Dn(x, t, sched, n, (-20, 20))
            plain = est.partials[n - 1][1].real
            assert value >= plain - 1e-12
        small, _ = averaged_Dn(x, t, sched, 4, (-20, 20))
        large, _ = averaged_Dn(x, t, sched, 4, (-80, 80))
        assert large >= small - 1e-12  # monotone in the shift budget


def test_averaged_Dn_empty_shift_range():
    with pytest.raises(EmptyShiftRange):
        averaged_Dn(StepPoint(), 1, intervals(10, 2), 1, (4, -4))


# ---------------------------------------------------------------------------
# superlevel density
# ---------------------------------------------------------------------------


def test_superlevel_zero_shift():
    est = superlevel_density(StepPoint(), 0, 0.25, intervals(10, 4))
    assert all(a == 0.0 for _, a in est.partials)


def test_superlevel_periodic_full_density():
    est = superlevel_density(PeriodicPoint("AB"), 1, 0.5, intervals(10, 4))
    assert all(a == 1.0 for _, a in est.partials)


def test_superlevel_markov_consistency():
    # density(d >= delta) <= averaged_D / delta, window by window
    x = SubstitutionPoint(FIBONACCI_RULES, ("0", "0"))
    sched = intervals(base=100, n_max=6)
    for t, delta in ((5, 0.2), (13, 0.1), (2, 0.5)):
        dens = superlevel_density(x, t, delta, sched)
        dist = averaged_D(x, t, sched)
        for (_, a), (_, b) in zip(dens.partials, dist.partials):
            assert a.real <= b.real / delta + 1e-12
            assert b.real <= a.real + delta + 1e-12  # converse estimate


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def budget(base=100, n_max=6, **kw):
    return ScanBudget(intervals(base, n_max), **kw)


def test_scan_periodic_multiples():
    x = PeriodicPoint("ABC")
    scan = almost_period_scan(x, 0.05, "mean", (-60, 60), budget())
    assert set(scan.periods) >= {t for t in range(-60, 61) if t % 3 == 0}
    assert scan.max_gap == 3
    assert 0 in scan.periods


def test_scan_bernoulli_only_trivial_period():
    x = BernoulliPoint(0.5, 42)
    b = budget(base=500, n_max=6,
               estimator=EstimatorConfig(convergence_tol=0.05))
    scan = almost_period_scan(x, 0.2, "mean", (-500, 500), b)
    assert scan.periods == (0,)
    # consecutive-difference gap with the range endpoints as sentinels
    assert scan.max_gap == 500


def test_scan_fibonacci_gap():
    fib = SubstitutionPoint(FIBONACCI_RULES, ("0", "0"))
    b = ScanBudget(intervals(2000, 5),
                   estimator=EstimatorConfig(convergence_tol=0.01))
    scan = almost_period_scan(fib, 0.1, "mean", (-500, 500), b)
    positives = [p for p in scan.periods if p > 0]
    assert positives  # nontrivial periods exist
    assert scan.max_gap <= 55
    # recorded values at this budget
    assert scan.max_gap == 13
    assert positives[:3] == [13, 21, 34]


def test_scan_kinds_on_periodic():
    x = PeriodicPoint("AB")
    b = budget(base=40, n_max=4, bohr_horizon=64)
    for kind in ("mean", "weyl", "bohr"):
        scan = almost_period_scan(x, 0.05, kind, (-20, 20), b)
        assert set(scan.periods) == {t for t in range(-20, 21) if t % 2 == 0}


def test_scan_period_difference_doubles_epsilon():
    # t, s in the scan make t - s a 2 eps period at the same budget
    fib = SubstitutionPoint(FIBONACCI_RULES, ("0", "0"))
    b = ScanBudget(intervals(2000, 5))
    eps = 0.1
    scan = almost_period_scan(fib, eps, "mean", (-150, 150), b)
    some = [p for p in scan.periods][:8]
    for t in some:
        for s in some:
            diff = t - s
            est = averaged_D(fib, diff, b.schedule, b.metric_radius)
            assert est.tail_max() < 2 * eps + 1e-12


def test_scan_invariance_under_base_point_shift():
    # averaged distances move by at most the window-exchange error 2|r|/|B_n|
    x = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    sched = intervals(base=200, n_max=5)
    r, t = 7, 3
    a = averaged_D(x, t, sched)
    bshift = averaged_D(shift(x, r), t, sched)
    for (_, u), (_, v), (_, length) in zip(a.partials, bshift.partials,
                                           sched.windows):
        assert abs(u.real - v.real) <= 2.0 * r / length + 1e-12


def test_club_inequality_finite_form():
    # |D(x,tx) - D(x,rx)| <= D(x,(r-t)x) + 2|t|/|B_n| per partial index
    x = SturmianPoint(GOLDEN, 0.0)
    sched = intervals(base=300, n_max=5)
    for t, r in ((3, 10), (5, 18), (-4, 9)):
        dt = averaged_D(x, t, sched)
        dr = averaged_D(x, r, sched)
        ddiff = averaged_D(x, r - t, sched)
        for (_, u), (_, v), (_, w), (_, length) in zip(
                dt.partials, dr.partials, ddiff.partials, sched.windows):
            assert abs(u.real - v.real) <= w.real + 2.0 * abs(t) / length + 1e-12


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_periodic_all_for():
    report = classify_point(PeriodicPoint("AB"), [0.01, 0.05, 0.1, 0.2],
                            budget(base=50, n_max=5, bohr_horizon=64),
                            (-64, 64))
    assert report.verdicts == {k: EVIDENCE_FOR for k in ("mean", "weyl", "bohr")}


def test_classify_bernoulli_mean_against():
    b = ScanBudget(intervals(500, 6),
                   estimator=EstimatorConfig(convergence_tol=0.05),
                   bohr_horizon=128)
    report = classify_point(BernoulliPoint(0.5, 42), [0.05, 0.1, 0.2], b,
                            (-200, 200))
    assert report.verdicts["mean"] == EVIDENCE_AGAINST


def test_classify_thue_morse_recorded_verdict():
    # the smallest averaged distance over nonzero shifts is about 1/3,
    # so every epsilon in the default grid leaves only the trivial period
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    b = ScanBudget(intervals(1000, 8),
                   estimator=EstimatorConfig(convergence_tol=0.01),
                   bohr_horizon=256)
    report = classify_point(tm, [0.01, 0.05, 0.1, 0.2], b, (-200, 200))
    assert report.verdicts["mean"] == EVIDENCE_AGAINST


def test_classify_hierarchy_never_contradicts():
    # reported verdicts respect: bohr-for => weyl-for => mean-for
    pts = [PeriodicPoint("ABAB"), StepPoint(), BernoulliPoint(0.5, 3)]
    rank = {EVIDENCE_FOR: 2, "undecided": 1, EVIDENCE_AGAINST: 0}
    for x in pts:
        rep = classify_point(x, [0.05, 0.2], budget(base=60, n_max=4,
                                                    bohr_horizon=32),
                             (-40, 40))
        assert rank[rep.verdicts["bohr"]] <= rank[rep.verdicts["weyl"]] + 2
        if rep.verdicts["bohr"] == EVIDENCE_FOR:
            assert rep.verdicts["weyl"] == EVIDENCE_FOR
        if rep.verdicts["weyl"] == EVIDENCE_FOR:
            assert rep.verdicts["mean"] == EVIDENCE_FOR
        if rep.verdicts["mean"] == EVIDENCE_AGAINST:
            assert rep.verdicts["weyl"] == EVIDENCE_AGAINST


def test_profile_threads_deterministic():
    x = BernoulliPoint(0.5, 11)
    b = budget(base=100, n_max=4, bohr_horizon=32)
    one = orbit_profile(x, range(-25, 26), b, threads=1)
    four = orbit_profile(x, range(-25, 26), b, threads=4)
    assert np.array_equal(one.t_values, four.t_values)
    assert np.array_equal(one.mean_tail_max, four.mean_tail_max)
    assert np.array_equal(one.weyl_value, four.weyl_value)
    assert np.array_equal(one.bohr_value, four.bohr_value)


def test_profile_pool_is_bounded(monkeypatch):
    # a recorder stands in for the pool: it logs max_workers and runs the
    # work inline, so no real thread is started
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(almost, "ThreadPoolExecutor", Recorder)
    x = PeriodicPoint("AB")
    b = budget(base=20, n_max=3, bohr_horizon=8)
    serial = orbit_profile(x, range(-5, 6), b)
    assert sizes == []
    monkeypatch.setattr(almost.os, "cpu_count", lambda: 8)
    pooled = orbit_profile(x, range(-5, 6), b, threads=10 ** 6)
    assert np.array_equal(pooled.weyl_value, serial.weyl_value)
    orbit_profile(x, range(3), b, threads=10 ** 6)
    monkeypatch.setattr(almost.os, "cpu_count", lambda: None)
    orbit_profile(x, range(3), b, threads=10 ** 6)
    assert sizes == [8, 3]


def float_profile_row(x, t, b):
    """The per-translate float route orbit_profile replaced, the test oracle:
    convolved cylinder distances, then float window and sliding sums."""
    r = b.metric_radius
    n = b.resolved_weyl_index()
    span = b.resolved_weyl_span()
    start, length = b.schedule.window(n)
    lo = min(b.schedule.span()[0], start - span, -b.bohr_horizon)
    hi = max(b.schedule.span()[1], start + span + length, b.bohr_horizon + 1)
    mask = x.codes(lo - r, hi + r) != x.codes(lo - r + t, hi + r + t)
    w, c = cylinder_weights(r)
    d = Track(lo, np.convolve(mask.astype(float), w, "valid") / c)
    est = partial_means(d, b.schedule, config=b.estimator)
    weyl, _ = uniform_mean(d, b.schedule, n, (-span, span))
    h = b.bohr_horizon
    bohr = float(np.max(d.values[-h - lo:h + 1 - lo]))
    empty = {"mean": not mask[b.schedule.span()[0] - lo:
                              b.schedule.span()[1] - lo + 2 * r].any(),
             "weyl": not mask[start - span - lo:
                              start + span + length - lo + 2 * r].any(),
             "bohr": not mask[-h - lo:h + 1 - lo + 2 * r].any()}
    return (est.tail_max(), isinstance(est.verdict, Converged), weyl, bohr,
            empty)


@pytest.mark.parametrize("x,schedule", [
    (BernoulliPoint(0.5, 5), FolnerSchedule.intervals(base=60, n_max=6)),
    (PeriodicPoint("AAB"), FolnerSchedule.intervals(base=60, n_max=6)),
    (BlockPoint(), FolnerSchedule.dyadic(n_max=9)),
    # the step sits at -span (4 * 360), so every weyl maximum lies at the
    # first shift only, and mean and bohr see no mismatch
    (shift(StepPoint(), 4 * 360), FolnerSchedule.intervals(base=60, n_max=6)),
], ids=["bernoulli", "periodic", "block", "step"])
def test_profile_matches_float_route(x, schedule):
    b = ScanBudget(schedule, metric_radius=10, bohr_horizon=40,
                   estimator=EstimatorConfig(convergence_tol=0.05))
    ts = range(-30, 31)
    prof = orbit_profile(x, ts, b)
    for i, t in enumerate(ts):
        mean, converged, weyl, bohr, empty = float_profile_row(x, t, b)
        assert prof.bohr_value[i] == bohr
        assert prof.mean_converged[i] == converged
        assert prof.mean_tail_max[i] == pytest.approx(mean, rel=1e-12, abs=0)
        assert prof.weyl_value[i] == pytest.approx(weyl, rel=1e-12, abs=0)
        for kind, value in zip(almost.KINDS, (prof.mean_tail_max[i],
                                              prof.weyl_value[i],
                                              prof.bohr_value[i])):
            assert (value == 0.0) == empty[kind]
    # each kind's column is the same whichever kinds are requested
    for kind, column in zip(almost.KINDS, ("mean_tail_max", "weyl_value",
                                           "bohr_value")):
        alone = orbit_profile(x, ts, b, kinds=(kind,))
        assert np.array_equal(getattr(alone, column), getattr(prof, column))
        if kind == "mean":
            assert np.array_equal(alone.mean_converged, prof.mean_converged)


# ---------------------------------------------------------------------------
# almost periods of sampled functions (algebra closure, empirically)
# ---------------------------------------------------------------------------


def test_sum_and_product_of_periodic_tracks_keep_almost_periods():
    xa = PeriodicPoint("AB")
    xb = PeriodicPoint("ABC")
    fa = observable_track(Observable.indicator("A", xa.alphabet), xa, -400, 400)
    fb = observable_track(Observable.indicator("A", xb.alphabet), xb, -400, 400)
    sched = intervals(base=30, n_max=5)
    scan_range = (-48, 48)
    pa = function_almost_periods(fa, 0.1, sched, scan_range)
    pb = function_almost_periods(fb, 0.1, sched, scan_range)
    assert max(np.diff(sorted(pa))) <= 2
    assert max(np.diff(sorted(pb))) <= 3
    fsum = Track(-400, np.asarray(fa.values) + np.asarray(fb.values))
    fprod = Track(-400, np.asarray(fa.values) * np.asarray(fb.values))
    psum = function_almost_periods(fsum, 0.1, sched, scan_range)
    pprod = function_almost_periods(fprod, 0.1, sched, scan_range)
    assert set(psum) >= {-48, -42, -36, -30, -24, -18, -12, -6, 0, 6, 12, 18,
                         24, 30, 36, 42, 48} - {49}
    assert len(pprod) > 1


def test_function_almost_periods_needs_coverage():
    track = Track(0, np.ones(50))
    with pytest.raises(MissingSamples):
        function_almost_periods(track, 0.1, intervals(10, 3), (-5, 5))
