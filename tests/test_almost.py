"""Averaged orbit metrics, almost-period scans, classification."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apspectra import almost
from apspectra.almost import (EVIDENCE_AGAINST, EVIDENCE_FOR, ScanBudget,
                              almost_period_scan, averaged_D, averaged_Dn,
                              classify_point, function_almost_periods,
                              orbit_profile, superlevel_density)
from apspectra.errors import EmptyShiftRange, MissingSamples
from apspectra.folner import (Converged, EstimatorConfig, FolnerSchedule,
                              max_sliding_sums, partial_means, uniform_mean)
from apspectra.points import (FIBONACCI_RULES, PERIOD_DOUBLING_RULES,
                              THUE_MORSE_RULES, BernoulliPoint, Observable,
                              PeriodicPoint, StepPoint, SturmianPoint,
                              SubstitutionPoint,
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
    # the verdict in rationals, so a tail spread that ties the tolerance
    # (as 21/440 ties 0.05 * 21/22) is decided exactly, the tolerance at
    # its binary value
    spread, sup = exact_mean_spread(x, t, b)
    converged = (sup == 0
                 or spread < Fraction(b.estimator.convergence_tol) * sup)
    return est.tail_max(), converged, weyl, bohr, empty


def exact_mean_spread(x, t, b):
    """The spread of the tail mean partials and the sup of the distances
    they average, as rationals from integer cylinder sums."""
    r = b.metric_radius
    lo, hi = b.schedule.span()
    mask = x.codes(lo - r, hi + r) != x.codes(lo - r + t, hi + r + t)
    weights = [2 ** (r - abs(k)) for k in range(-r, r + 1)]
    sums = np.convolve(mask.astype(np.int64), weights, "valid")
    c = 3 * 2 ** r - 2
    partials = [Fraction(int(sums[a - lo:a - lo + n].sum()), c * n)
                for a, n in b.schedule.windows]
    tail = partials[-min(b.estimator.tail, len(partials)):]
    return max(tail) - min(tail), Fraction(int(sums.max()), c)


@pytest.mark.parametrize("tol,base,n_max,radius,ts,want", [
    # spread == tol * sup fails the strict test spread < tol * sup
    (0.0625, 10, 2, 1, (-7, -1), False),
    # the binary 0.05 lies just above 1/20, so spread == sup / 20 passes
    (0.05, 20, 4, 2, (-7, -6), True),
], ids=["sixteenth", "twentieth"])
def test_profile_verdict_decides_ties_exactly(tol, base, n_max, radius, ts,
                                              want):
    x = SubstitutionPoint(THUE_MORSE_RULES)
    b = ScanBudget(intervals(base, n_max), metric_radius=radius,
                   bohr_horizon=0,
                   estimator=EstimatorConfig(convergence_tol=tol))
    for t in ts:
        spread, sup = exact_mean_spread(x, t, b)
        assert sup > 0 and spread == Fraction(repr(tol)) * sup
    prof = orbit_profile(x, ts, b, kinds=("mean",))
    assert prof.mean_converged.tolist() == [want] * len(ts)


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


SCAN_BUDGETS = st.builds(
    lambda radius, base, n_max, horizon: ScanBudget(
        intervals(base, n_max), metric_radius=radius, bohr_horizon=horizon,
        estimator=EstimatorConfig(convergence_tol=0.05)),
    st.integers(1, 12), st.integers(8, 40), st.integers(2, 5),
    st.integers(0, 40))


@settings(max_examples=25, deadline=None)
@given(x=st.sampled_from([BernoulliPoint(0.5, 5), PeriodicPoint("AAB"),
                          SturmianPoint(GOLDEN),
                          SubstitutionPoint(THUE_MORSE_RULES)]),
       budgets=st.lists(SCAN_BUDGETS, min_size=2, max_size=2),
       kinds=st.lists(st.sampled_from(almost.KINDS), min_size=1, unique=True),
       first=st.integers(-20, 0), count=st.integers(1, 12))
def test_profile_buffers_match_float_route(x, budgets, kinds, first, count):
    # two calls in a row whose sample runs differ in length: a buffer that
    # kept stale sums or the wrong size would show in the second
    assume(budgets[0].metric_radius != budgets[1].metric_radius)
    ts = range(first, first + count)
    for b in budgets:
        prof = orbit_profile(x, ts, b, kinds=tuple(kinds))
        columns = dict(zip(almost.KINDS, (prof.mean_tail_max, prof.weyl_value,
                                          prof.bohr_value)))
        for i, t in enumerate(ts):
            mean, converged, weyl, bohr, empty = float_profile_row(x, t, b)
            want = dict(zip(almost.KINDS, (mean, weyl, bohr)))
            for kind, column in columns.items():
                if kind not in kinds:
                    assert np.isnan(column[i])
                    continue
                assert column[i] == pytest.approx(want[kind], rel=1e-12, abs=0)
                assert (column[i] == 0.0) == empty[kind]
            if "mean" in kinds:
                assert prof.mean_converged[i] == converged


# points of every kind: periodic, Bernoulli, substitution, Sturmian, step
# and block, the last two moved so their features fall anywhere
EVERY_KIND = st.one_of(
    st.text("ABC", min_size=1, max_size=6).map(PeriodicPoint),
    st.builds(BernoulliPoint, st.sampled_from([0.2, 0.5, 0.9]),
              st.integers(0, 2 ** 20)),
    st.builds(SubstitutionPoint, st.sampled_from(
        [FIBONACCI_RULES, THUE_MORSE_RULES, PERIOD_DOUBLING_RULES])),
    st.builds(SturmianPoint, st.floats(0.01, 0.99), st.floats(0.0, 0.99)),
    st.builds(lambda t: shift(StepPoint(), t), st.integers(-60, 60)),
    st.builds(lambda t: shift(BlockPoint(), t), st.integers(-60, 60)))

# every schedule kind, radii 1..16, any weyl window and span, and
# horizons that do and do not contain the weyl range
ANY_BUDGETS = st.builds(
    lambda schedule, radius, index, span, horizon, tol: ScanBudget(
        schedule, metric_radius=radius,
        weyl_index=min(index, len(schedule)), weyl_shift_span=span,
        bohr_horizon=horizon,
        estimator=EstimatorConfig(convergence_tol=tol)),
    st.one_of(
        st.builds(intervals, st.integers(1, 30), st.integers(1, 4)),
        st.builds(FolnerSchedule.dyadic, st.integers(1, 6)),
        st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 40)),
                 min_size=1, max_size=4, unique_by=lambda w: w[1]).map(
            lambda ws: FolnerSchedule.custom(sorted(ws, key=lambda w: w[1])))),
    st.integers(1, 16), st.integers(1, 6), st.integers(0, 40),
    st.integers(0, 80), st.sampled_from([0.05, 0.0625, 0.5]))

# symmetric and lopsided ranges, {0} alone, and scattered sets
TRANSLATES = st.one_of(
    st.integers(0, 20).map(lambda h: list(range(-h, h + 1))),
    st.tuples(st.integers(-20, 0), st.integers(0, 20)).map(
        lambda r: list(range(r[0], r[1] + 1))),
    st.just([0]),
    st.lists(st.integers(-20, 20), min_size=1, max_size=16))


@settings(max_examples=150, deadline=None)
@given(x=EVERY_KIND, b=ANY_BUDGETS, ts=TRANSLATES,
       kinds=st.lists(st.sampled_from(almost.KINDS), min_size=1, unique=True))
def test_profile_pairs_are_invisible(x, b, ts, kinds):
    # t and -t share one mask; each row must be the one a profile of t
    # alone gives, bit for bit
    prof = orbit_profile(x, ts, b, kinds=tuple(kinds))
    assert prof.t_values.tolist() == sorted(ts)
    for i, t in enumerate(prof.t_values.tolist()):
        one = orbit_profile(x, [t], b, kinds=tuple(kinds))
        for column in ("mean_tail_max", "mean_converged", "weyl_value",
                       "bohr_value"):
            got, want = getattr(prof, column)[i], getattr(one, column)[0]
            assert np.array_equal(got, want, equal_nan=True), (t, column)
            assert np.signbit(got) == np.signbit(want)


def period_of(x):
    return len(x.pattern) if isinstance(x, PeriodicPoint) else None


@settings(max_examples=150, deadline=None)
@given(x=EVERY_KIND, b=ANY_BUDGETS, ts=TRANSLATES)
def test_orbit_values_obey_the_finite_hierarchy(x, b, ts):
    # each value times its weight c * length is an integer sum below 2^52,
    # so it is recovered exactly by rounding; the properties are checked on
    # those integers, where a tie cannot fall to rounding
    prof = orbit_profile(x, ts, b)
    r = b.metric_radius
    c = 3 * 2 ** r - 2
    index = b.resolved_weyl_index()
    start, w_len = b.schedule.window(index)
    span = b.resolved_weyl_span()
    h = b.bohr_horizon
    inside = -h <= start - span and start + span + w_len <= h + 1
    tail = b.schedule.lengths()[-min(b.estimator.tail, len(b.schedule)):]

    def integer(value, weight):
        whole = round(Fraction(float(value)) * weight)
        assert float(Fraction(whole, weight)) == value
        return whole

    for i, t in enumerate(prof.t_values.tolist()):
        mean, weyl, bohr = (prof.mean_tail_max[i], prof.weyl_value[i],
                            prof.bohr_value[i])
        for value in (mean, weyl, bohr):
            assert 0.0 <= value <= 1.0
        weyl_sum = integer(weyl, c * w_len)
        bohr_sum = integer(bohr, c)
        assert 0 <= weyl_sum <= c * w_len and 0 <= bohr_sum <= c
        # the mean partials as integer window sums; the one at the weyl
        # index is the window sum at shift 0, among those weyl maximizes
        partials = [round(Fraction(float(a.real)) * c * length)
                    for (_, length), (_, a) in zip(
                        b.schedule.windows,
                        averaged_D(x, t, b.schedule, r).partials)]
        assert mean == max(float(Fraction(s, c * length)) for s, length
                           in zip(partials[-len(tail):], tail.tolist()))
        assert weyl_sum >= partials[index - 1]
        if inside:
            assert bohr_sum * w_len >= weyl_sum
            assert bohr >= weyl
        p = period_of(x)
        if t == 0 or (p is not None and t % p == 0):
            assert mean == weyl == bohr == 0.0
            assert prof.mean_converged[i]


def weyl_run_inside_bohr(b):
    start, w_len = b.schedule.window(b.resolved_weyl_index())
    span, h = b.resolved_weyl_span(), b.bohr_horizon
    return -h <= start - span and start + span + w_len <= h + 1


EPS_GRIDS = st.lists(st.floats(0.001, 0.5), min_size=1, max_size=4)
SCAN_RANGES = st.tuples(st.integers(-30, 10), st.integers(0, 40)).map(
    lambda r: (r[0], r[0] + r[1]))


COLUMNS = ("mean_tail_max", "mean_converged", "weyl_value", "bohr_value")

# radii small next to the windows, so the mismatch count of many
# translates reaches below
SETTLING_BUDGETS = st.builds(
    lambda base, n_max, radius, index, span, horizon: ScanBudget(
        intervals(base, n_max), metric_radius=radius,
        weyl_index=min(index, n_max), weyl_shift_span=span,
        bohr_horizon=horizon),
    st.integers(20, 80), st.integers(1, 4), st.integers(1, 6),
    st.integers(1, 4), st.integers(0, 40), st.integers(0, 80))


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(st.just(PeriodicPoint("A")), EVERY_KIND),
       b=st.one_of(ANY_BUDGETS, SETTLING_BUDGETS), ts=TRANSLATES,
       eps_grid=EPS_GRIDS,
       kinds=st.lists(st.sampled_from(almost.KINDS), min_size=1, unique=True))
def test_profile_below_settles_only_values_at_or_above_it(x, b, ts, eps_grid,
                                                          kinds):
    # a weyl value settled by its mismatch count is a lower bound that
    # reaches below, so no kind finds other periods at any epsilon up to
    # below, and the mean and bohr columns keep their bits
    below = max(eps_grid)
    exact = orbit_profile(x, ts, b, kinds=tuple(kinds))
    fast = orbit_profile(x, ts, b, kinds=tuple(kinds), below=below)
    for column in COLUMNS:
        got = getattr(fast, column)
        if column != "weyl_value":
            assert np.array_equal(got, getattr(exact, column), equal_nan=True)
    if "weyl" in kinds:
        settled = fast.weyl_value != exact.weyl_value
        assert np.all(fast.weyl_value <= exact.weyl_value)
        assert np.all(fast.weyl_value[settled] >= below)
    scan_range = (min(ts), max(ts))
    for eps in eps_grid:
        for kind in kinds:
            assert (almost._scan_from_profile(fast, eps, kind, scan_range)
                    == almost._scan_from_profile(exact, eps, kind, scan_range))


def test_profile_bound_counts_only_mismatches_under_the_whole_kernel():
    # the one mismatch of the step's translates +-1, moved across the
    # shift-0 weyl window and its edges: a bound that counted it while
    # part of its kernel weight falls outside the window would exceed the
    # exact value, and where the bound is taken it equals that value
    radius, length = 3, 20
    b = ScanBudget(intervals(length, 1), metric_radius=radius,
                   weyl_shift_span=0, bohr_horizon=0)
    for c in range(-2 * radius - 2, length + 2 * radius + 2):
        x = shift(StepPoint(), c)
        exact = orbit_profile(x, [-1, 0, 1], b, kinds=("weyl",))
        fast = orbit_profile(x, [-1, 0, 1], b, kinds=("weyl",),
                             below=0.5 / length)
        assert np.array_equal(fast.weyl_value, exact.weyl_value), c


def test_classify_slides_only_the_unsettled_unit(monkeypatch):
    # every Bernoulli translate but 0 mismatches about half its weyl
    # window, above the largest epsilon, so only the unit of t = 0 (the
    # one unit with a single translate) reaches the sliding maximum
    spans = []

    def counted(values, length, unit_spans):
        spans.append(len(unit_spans))
        return max_sliding_sums(values, length, unit_spans)

    monkeypatch.setattr(almost, "max_sliding_sums", counted)
    x = BernoulliPoint(0.5, 42)
    b = budget(base=100, n_max=4, bohr_horizon=32)
    classify_point(x, [0.05, 0.1, 0.2], b, (-50, 50))
    assert spans == [1]
    prof = orbit_profile(x, range(-50, 51), b, below=0.2)
    assert spans == [1, 1]
    assert prof.weyl_value[50] == 0.0
    assert np.all(np.delete(prof.weyl_value, 50) >= 0.2)


@settings(max_examples=100, deadline=None)
@given(x=EVERY_KIND, b=ANY_BUDGETS, eps_grid=EPS_GRIDS,
       scan_range=SCAN_RANGES, gap=st.sampled_from([0.05, 0.2, 0.5]))
def test_classify_raw_verdicts_follow_the_hierarchy(x, b, eps_grid,
                                                    scan_range, gap):
    # where the weyl run lies inside the bohr horizon, bohr >= weyl for
    # every translate, so the bohr periods at each epsilon are a subset of
    # the weyl ones: before reconciliation, bohr-for implies weyl-for and
    # weyl-against implies bohr-against
    rep = classify_point(x, eps_grid, b, scan_range, gap)
    raw = rep.raw_verdicts
    if weyl_run_inside_bohr(b):
        if raw["bohr"] == EVIDENCE_FOR:
            assert raw["weyl"] == EVIDENCE_FOR
        if raw["weyl"] == EVIDENCE_AGAINST:
            assert raw["bohr"] == EVIDENCE_AGAINST


@settings(max_examples=100, deadline=None)
@given(pattern=st.text("ABC", min_size=1, max_size=6), b=ANY_BUDGETS,
       eps_grid=EPS_GRIDS, lo=st.integers(-40, 20), extra=st.integers(0, 20))
def test_classify_periodic_point_is_evidence_for(pattern, b, eps_grid, lo,
                                                 extra):
    # every multiple of the period p is a period of every kind at every
    # epsilon, so no gap exceeds p, a fifth of a range 5p wide or wider
    p = len(pattern)
    scan_range = (lo, lo + 5 * p + extra)
    rep = classify_point(PeriodicPoint(pattern), eps_grid, b, scan_range)
    assert rep.raw_verdicts == dict.fromkeys(almost.KINDS, EVIDENCE_FOR)


FAULT_PROBE = """
import resource
from apspectra.almost import ScanBudget, orbit_profile
from apspectra.folner import FolnerSchedule
from apspectra.points import BernoulliPoint

# weyl window [0, 10000) with shifts |s| <= 40000: about 90,000 samples
b = ScanBudget(FolnerSchedule.intervals(base=1000, n_max=10))
x = BernoulliPoint(0.5, 42)
orbit_profile(x, range(3), b)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
orbit_profile(x, range(-100, 100), b)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_profile_translates_do_not_fault_fresh_pages():
    pytest.importorskip("resource")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # as perfbench runs commands: with one BLAS thread glibc keeps its
    # default mmap threshold, so an array allocated per translate would
    # come back as fresh pages every time (about 320 faults a translate)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    res = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 50 * 200


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
