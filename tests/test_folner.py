"""Window schedules, partial means, seminorms, stabilization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspectra.errors import EmptyShiftRange, MissingSamples, NeverBelow
from apspectra.folner import (AdmissibleSeminorm, Character, Converged,
                              EstimatorConfig, FolnerSchedule, Oscillating,
                              Undecided, WindowSegments, max_sliding_sums,
                              partial_means, seminorm_eval, sliding_sums,
                              stabilization_check, uniform_mean,
                              upper_mean)
from apspectra.points import (Observable, StepPoint, SubstitutionPoint,
                              THUE_MORSE_RULES, Track, observable_track)


def dict_track(lo, hi, fn):
    return Track(lo, np.array([fn(t) for t in range(lo, hi + 1)]))


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_intervals_windows():
    s = FolnerSchedule.intervals(base=10, n_max=4)
    assert s.windows == ((0, 10), (0, 20), (0, 30), (0, 40))


def test_dyadic_windows():
    s = FolnerSchedule.dyadic(5)
    assert s.windows == ((1, 2), (1, 4), (1, 8), (1, 16), (1, 32))


def test_alternating_windows():
    s = FolnerSchedule.alternating(4)
    # n=1: {-1}, n=2: {0,1,2}, n=3: {-3,-2,-1}, n=4: {0..4}
    assert s.windows == ((-1, 1), (0, 3), (-3, 3), (0, 5))


def test_custom_rejects_shrinking_lengths():
    with pytest.raises(ValueError):
        FolnerSchedule.custom([(0, 10), (0, 5)])
    with pytest.raises(ValueError):
        FolnerSchedule.custom([(0, 10), (0, 10)])  # strict growth outside alternating
    with pytest.raises(ValueError):
        FolnerSchedule.custom([(0, 0)])


def test_character_reduced_mod_one():
    xi = Character(1.25)
    assert xi.theta == 0.25
    assert abs(complex(xi(4)) - 1.0) < 1e-12
    vals = xi.conj_values(0, 4)
    assert np.allclose(vals, np.exp(-2j * np.pi * 0.25 * np.arange(4)))


# ---------------------------------------------------------------------------
# partial means
# ---------------------------------------------------------------------------


def test_partial_means_constant():
    c = 0.3 - 0.2j
    s = FolnerSchedule.intervals(base=5, n_max=6)
    est = partial_means(dict_track(0, 29, lambda t: c), s)
    assert all(abs(a - c) < 1e-15 for _, a in est.partials)
    assert isinstance(est.verdict, Converged)
    assert abs(est.verdict.limit - c) < 1e-15
    assert est.verdict.residual < 1e-15


def test_partial_means_step_alternating_oscillates():
    s = FolnerSchedule.alternating(12)
    y = StepPoint()
    track = observable_track(Observable.indicator("1", y.alphabet), y, *(-12, 12))
    est = partial_means(track, s)
    for n, a in est.partials:
        assert a.real == (1.0 if n % 2 == 0 else 0.0)
    assert est.verdict == Oscillating(0.0, 1.0)
    assert est.tail_spread == 1.0


def test_partial_means_alternating_sign_converges_to_zero():
    s = FolnerSchedule.intervals(base=10, n_max=8)
    est = partial_means(dict_track(0, 79, lambda t: (-1.0) ** t), s)
    for (n, a), (_, length) in zip(est.partials, s.windows):
        assert abs(a) <= 1.0 / length + 1e-15
    assert isinstance(est.verdict, Converged)
    assert abs(est.verdict.limit) < 1e-12


def test_partial_means_missing_sample_reports_first_t():
    s = FolnerSchedule.intervals(base=5, n_max=2)
    samples = Track(0, np.ones(7))      # stops short of the span [0, 10)
    with pytest.raises(MissingSamples) as err:
        partial_means(samples, s)
    assert err.value.t == 7
    with pytest.raises(MissingSamples) as err:
        partial_means(Track(3, np.ones(10)), s)     # starts late
    assert err.value.t == 0


def test_partial_means_undecided_between_tolerances():
    # tail spread 0.03 sits between conv tol (0.001 * sup) and osc (0.1 * sup)
    s = FolnerSchedule.custom([(0, n) for n in (10, 20, 30, 40, 50)])
    block_means = [0.50, 0.54, 0.43, 0.57, 0.46]
    vals = np.repeat(block_means, 10)
    est = partial_means(Track(0, vals), s)
    spreads_ok = 0.001 * est.sup_samples < est.tail_spread < 0.1 * est.sup_samples
    assert spreads_ok
    assert isinstance(est.verdict, Undecided)


# ---------------------------------------------------------------------------
# upper mean
# ---------------------------------------------------------------------------


def test_upper_mean_zero():
    s = FolnerSchedule.intervals(base=4, n_max=5)
    assert upper_mean(dict_track(0, 19, lambda t: 0.0), s) == 0.0


def test_upper_mean_step_dyadic_is_one():
    s = FolnerSchedule.dyadic(8)
    y = StepPoint()
    track = observable_track(Observable.indicator("1", y.alphabet), y, 1, 256)
    assert upper_mean(track, s) == 1.0


def test_upper_mean_multiples_of_three():
    n_max, base = 6, 30
    s = FolnerSchedule.intervals(base=base, n_max=n_max)
    samples = dict_track(0, base * n_max - 1, lambda t: 1.0 if t % 3 == 0 else 0.0)
    value = upper_mean(samples, s)
    assert abs(value - 1.0 / 3.0) <= 1.0 / (base * n_max)
    assert value <= 1.0


def test_upper_mean_bounded_by_sup():
    rng = np.random.default_rng(7)
    s = FolnerSchedule.intervals(base=8, n_max=5)
    vals = rng.normal(size=40) + 1j * rng.normal(size=40)
    track = Track(0, vals)
    assert upper_mean(track, s) <= float(np.max(np.abs(vals))) + 1e-12


# ---------------------------------------------------------------------------
# uniform mean
# ---------------------------------------------------------------------------


def test_uniform_mean_constant():
    s = FolnerSchedule.intervals(base=10, n_max=2)
    samples = dict_track(-50, 80, lambda t: 0.4)
    value, arg = uniform_mean(samples, s, 2, (-30, 30))
    assert abs(value - 0.4) < 1e-12
    assert -30 <= arg <= 30  # any shift achieves the sup for a constant


def test_uniform_mean_window_inside_support():
    samples = dict_track(-250, 350, lambda t: 1.0 if 0 <= t < 100 else 0.0)
    s = FolnerSchedule.custom([(0, 10)])
    value, arg = uniform_mean(samples, s, 1, (-200, 200))
    assert value == 1.0
    assert 0 <= arg <= 90


def test_uniform_mean_right_tail_saturates():
    samples = dict_track(-250, 350, lambda t: 1.0 if t >= 0 else 0.0)
    s = FolnerSchedule.custom([(0, 10)])
    value, arg = uniform_mean(samples, s, 1, (-200, 200))
    assert value == 1.0
    assert arg >= 0


def test_uniform_mean_empty_shift_range():
    s = FolnerSchedule.custom([(0, 4)])
    with pytest.raises(EmptyShiftRange):
        uniform_mean(Track(0, np.ones(1)), s, 1, (5, 2))


def test_uniform_mean_dominates_plain_average_when_zero_scanned():
    rng = np.random.default_rng(11)
    s = FolnerSchedule.intervals(base=12, n_max=4)
    vals = rng.uniform(0.0, 1.0, size=200)
    track = Track(-80, vals)
    for n in range(1, 5):
        start, length = s.window(n)
        plain = float(np.mean(vals[start + 80:start + 80 + length]))
        value, _ = uniform_mean(track, s, n, (-5, 5))
        assert value >= plain - 1e-12


# ---------------------------------------------------------------------------
# admissible seminorms
# ---------------------------------------------------------------------------


def test_seminorm_sup():
    norm = AdmissibleSeminorm("sup")
    vals = np.array([0.1, -0.7, 0.3, 0.65])
    assert seminorm_eval(norm, Track(0, vals)) == 0.7


def test_seminorm_mean_on_odd_indicator():
    s = FolnerSchedule.intervals(base=20, n_max=5)
    norm = AdmissibleSeminorm("mean", s)
    samples = dict_track(0, 99, lambda t: 1.0 if t % 2 else 0.0)
    value = seminorm_eval(norm, samples)
    assert abs(value - 0.5) <= 1.0 / 20


def test_seminorm_weyl_sees_the_step_mean_does_not():
    # symmetric windows around 0: the mean proxy of the step is about 1/2,
    # while the shifted sup pushes the window fully into the support
    windows = [(-l, 2 * l + 1) for l in (5, 10, 15, 20, 25)]
    s = FolnerSchedule.custom(windows)
    y = StepPoint()
    track = observable_track(Observable.indicator("1", y.alphabet), y, -300, 300)
    mean_norm = AdmissibleSeminorm("mean", s)
    weyl_norm = AdmissibleSeminorm("weyl", s, shift_budget=200)
    m = seminorm_eval(mean_norm, track)
    w = seminorm_eval(weyl_norm, track)
    assert abs(m - 0.5) <= 0.05
    assert w == 1.0


def _random_tracks(rng, count, lo, hi, scale=1.0):
    for _ in range(count):
        yield Track(lo, scale * rng.uniform(-1.0, 1.0, size=hi - lo) +
                    1j * scale * rng.uniform(-1.0, 1.0, size=hi - lo))


def _norms():
    s = FolnerSchedule.intervals(base=15, n_max=4)
    return [AdmissibleSeminorm("sup"),
            AdmissibleSeminorm("mean", s),
            AdmissibleSeminorm("weyl", s, shift_budget=30)]


def test_seminorm_axioms_on_random_tracks():
    rng = np.random.default_rng(101)
    lo, hi = -100, 160
    for norm in _norms():
        ones = Track(lo, np.ones(hi - lo))
        assert abs(seminorm_eval(norm, ones) - 1.0) < 1e-12
        for f, g in zip(_random_tracks(rng, 25, lo, hi),
                        _random_tracks(rng, 25, lo, hi)):
            nf = seminorm_eval(norm, f)
            ng = seminorm_eval(norm, g)
            nsum = seminorm_eval(norm, Track(lo, f.values + g.values))
            assert nsum <= nf + ng + 1e-11
            lam = 0.37 - 1.2j
            nscaled = seminorm_eval(norm, Track(lo, lam * f.values))
            assert abs(nscaled - abs(lam) * nf) < 1e-10
            dominating = Track(lo, np.abs(f.values) + 0.01)
            assert nf <= seminorm_eval(norm, dominating) + 1e-11


def test_seminorm_shift_invariance_up_to_boundary():
    # translating the sample map moves each window average by at most
    # the window-exchange error 2 |r| sup / |B_n|
    rng = np.random.default_rng(77)
    sched = FolnerSchedule.intervals(base=15, n_max=4)
    vals = rng.uniform(-1.0, 1.0, size=400)
    r = 7
    base = Track(-200, vals)
    moved = Track(-200 + r, vals)          # h(. - r)
    sup = float(np.max(np.abs(vals)))
    norm = AdmissibleSeminorm("mean", sched)
    bound = 2.0 * r * sup / 15.0
    assert abs(seminorm_eval(norm, base) - seminorm_eval(norm, moved)) <= bound + 1e-12
    sup_norm = AdmissibleSeminorm("sup")
    assert seminorm_eval(sup_norm, base) == seminorm_eval(sup_norm, moved)


def test_superlevel_estimates_markov_and_converse():
    # window-by-window: avg 1[h >= delta] <= avg(h)/delta and
    # avg(h) <= avg 1[h >= delta] + delta, for h with values in [0, 1]
    rng = np.random.default_rng(55)
    s = FolnerSchedule.intervals(base=10, n_max=5)
    for _ in range(100):
        h = rng.uniform(0.0, 1.0, size=50)
        delta = rng.uniform(0.05, 0.9)
        ind = (h >= delta).astype(float)
        for start, length in s.windows:
            ah = float(np.mean(h[start:start + length]))
            ai = float(np.mean(ind[start:start + length]))
            assert ai <= ah / delta + 1e-12
            assert ah <= ai + delta + 1e-12
        # the tail-max proxies inherit both inequalities
        um_h = upper_mean(Track(0, h), s)
        um_i = upper_mean(Track(0, ind), s)
        assert um_i <= um_h / delta + 1e-12
        assert um_h <= um_i + delta + 1e-12


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------


def test_stabilization_zero_track():
    s = FolnerSchedule.intervals(base=4, n_max=5)
    track = Track(-200, np.zeros(500))
    report = stabilization_check(track, s, 0.1, shift_budget=20)
    assert report.first_n_below == 1
    assert report.all_later_below


def test_stabilization_single_bump():
    # mass 1 spread over the window: uniform mean = 1/|B_n|, so the first
    # index below 0.1 is the first window longer than 10 sites
    s = FolnerSchedule.intervals(base=2, n_max=10)
    lo, hi = -300, 300
    vals = np.zeros(hi - lo)
    vals[-lo] = 1.0
    report = stabilization_check(Track(lo, vals), s, 0.1, shift_budget=100)
    first_len = next(l for _, l in s.windows if 1.0 / l < 0.1)
    assert s.window(report.first_n_below)[1] == first_len
    assert report.all_later_below
    assert report.margin > 0


def test_stabilization_never_below_on_unimodular_track():
    s = FolnerSchedule.intervals(base=8, n_max=4)
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    track = observable_track(
        Observable.letter_values({"0": 1.0, "1": -1.0}), tm, -200, 200)
    with pytest.raises(NeverBelow) as err:
        stabilization_check(track, s, 0.9, shift_budget=64)
    assert min(err.value.values) == 1.0  # |h| constant 1 makes every mean 1


# ---------------------------------------------------------------------------
# window kernels against brute sums
# ---------------------------------------------------------------------------


INTEGER_ARRAYS = st.lists(st.integers(-1000, 1000), min_size=1, max_size=60)


@settings(max_examples=60, deadline=None)
@given(values=INTEGER_ARRAYS, start=st.integers(-50, 50),
       dtype=st.sampled_from([np.int64, float, complex]), data=st.data())
def test_window_sums_equal_brute_sums(values, start, dtype, data):
    n = len(values)
    windows = data.draw(st.lists(
        st.integers(0, n - 1).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(1, n - a))),
        min_size=1, max_size=8))
    windows = [(start + a, l) for a, l in windows]
    segments = WindowSegments(windows)
    sums = segments.sums(np.array(values, dtype=dtype), start)
    brute = [sum(values[s - start:s - start + l]) for s, l in windows]
    assert sums.tolist() == brute
    if dtype is np.int64:
        exact = segments.sums(np.array(values, dtype=np.int32), start)
        assert exact.dtype == np.int64 and exact.tolist() == brute


@pytest.mark.parametrize("dtype", [float, complex, np.int32])
def test_long_window_sums_exact_or_near_fsum(dtype):
    rng = np.random.default_rng(3)
    block = 1 << 16                                 # windows cross its multiples
    n = 3 * block + 1234 + 1
    values = rng.standard_normal(n) * 1e3
    if dtype is complex:
        values = values + 1j * rng.standard_normal(n)
    values = values.astype(dtype)
    start = -17
    edges = [block * j for j in range(1, 4)]
    windows = [(0, n), (0, 1), (0, edges[0]), (0, edges[0] + 1),
               (edges[0], edges[1] - edges[0]), (edges[0] - 1, 2),
               (edges[1] + 5, n - edges[1] - 5), (edges[2], n - edges[2]),
               (7, edges[2] - 7), (n - 1, 1)]
    got = WindowSegments([(s + start, l) for s, l in windows]).sums(values, start)
    if dtype is np.int32:
        brute = [int(values[s:s + l].sum(dtype=np.int64)) for s, l in windows]
        assert got.dtype == np.int64 and got.tolist() == brute
        return
    assert got.dtype == values.dtype
    for (s, l), total in zip(windows, got):
        part = values[s:s + l]
        bound = n * 2.0 ** -52 * float(np.sum(np.abs(part)))
        want = complex(math.fsum(part.real.tolist()), math.fsum(part.imag.tolist()))
        assert abs(total - want) <= bound


@settings(max_examples=60, deadline=None)
@given(values=INTEGER_ARRAYS, dtype=st.sampled_from([np.int64, float, complex]),
       data=st.data())
def test_sliding_sums_equal_brute_sums(values, dtype, data):
    length = data.draw(st.integers(1, len(values)))
    sums = sliding_sums(np.array(values, dtype=dtype), length)
    assert sums.tolist() == [sum(values[i:i + length])
                             for i in range(len(values) - length + 1)]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=90),
       data=st.data())
def test_max_sliding_sum_equals_max_of_sliding_sums(values, data):
    # lengths leave 0 to 89 steps: no block, whole blocks and a ragged
    # tail; spans start and end anywhere, inside one block or across many
    length = data.draw(st.integers(1, len(values)))
    arr = np.array(values, dtype=np.int32)
    out = np.full((2, len(values)), -1, dtype=np.int64)
    sums = sliding_sums(arr.astype(np.int64), length)
    last = len(sums) - 1
    spans = [(0, last)] + data.draw(st.lists(
        st.tuples(st.integers(0, last), st.integers(0, last)).map(
            lambda pq: tuple(sorted(pq))), max_size=4))
    want = [int(np.max(sums[p:q + 1])) for p, q in spans]
    assert max_sliding_sums(arr, length, spans, out) == want
