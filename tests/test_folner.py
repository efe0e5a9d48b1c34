"""Window schedules, partial means, seminorms, stabilization."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apspectra import folner
from apspectra.errors import EmptyShiftRange, MissingSamples, NeverBelow
from apspectra.folner import (AdmissibleSeminorm, Character, Converged,
                              EstimatorConfig, FolnerSchedule, Oscillating,
                              Undecided, WindowSegments, estimate,
                              max_sliding_sums, partial_means,
                              seminorm_eval, sliding_sums,
                              stabilization_check, uniform_mean,
                              upper_mean)
from apspectra.points import (FIBONACCI_RULES, THUE_MORSE_RULES,
                              BernoulliPoint, BlockPoint, Observable,
                              PeriodicPoint, StepPoint, SturmianPoint,
                              SubstitutionPoint, Track, observable_source,
                              observable_track, shift, sup_norm)


GOLDEN = (5 ** 0.5 - 1) / 2


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
    # -1e-17 % 1.0 rounds to 1.0, which is the character of 0.0
    for theta in (-1e-17, -0.0, 1.0, 2.0, -5e-324):
        assert Character(theta).theta == 0.0
        assert Character(theta) == Character(0.0)
    assert 0.0 <= Character(-1e-16).theta < 1.0


# the reach of the kernel's accuracy check: the schedule span's budget
# and one RUN_BLOCK piece past it
KERNEL_REACH = 2 ** 22 + 2 ** 16


def exact_phase(theta, t: int) -> complex:
    """e(-theta t), theta a float or a Fraction, from the exact rational
    theta t: the nearest quarter turn q / 4 is a power of -i, and cos and
    sin take the rest, a turn of at most 1/8."""
    turn = Fraction(theta) * t
    q = round(4 * turn)
    angle = 2 * math.pi * float(turn - Fraction(q, 4))
    return complex(math.cos(angle), -math.sin(angle)) * (1, -1j, -1, 1j)[q % 4]


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-1.0, 1.0), t0=st.integers(-KERNEL_REACH, KERNEL_REACH),
       n=st.integers(1, 3 * folner.PHASE_TABLE), data=st.data())
@example(theta=0.6180339887498949, t0=KERNEL_REACH - 40, n=40, data=None)
@example(theta=0.3, t0=-KERNEL_REACH, n=300, data=None)
def test_phases_match_an_exact_rational_reference(theta, t0, n, data):
    got = folner.phases(theta, t0, n)
    ts = range(t0, t0 + n) if data is None else data.draw(
        st.lists(st.integers(t0, t0 + n - 1), min_size=1, max_size=20))
    for t in ts:
        assert abs(got[t - t0] - exact_phase(theta, t)) <= 2e-15, t


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 5000), t0=st.integers(-KERNEL_REACH, KERNEL_REACH),
       n=st.integers(1, 3 * folner.PHASE_TABLE), data=st.data())
@example(m=3000, t0=KERNEL_REACH - 40, n=40, data=None)
def test_grid_phase_sums_reduce_j_t_mod_m_exactly(m, t0, n, data):
    # the sums of a unit value at t are e(-j t / m), j < m: given j / m
    # rounded alone, the kernel would put them up to |t| 2^-54 of a turn
    # off, 2e-9 at |t| = 2^22
    t = t0 + n - 1 if data is None else data.draw(st.integers(t0, t0 + n - 1))
    values = np.zeros(n)
    values[t - t0] = 1.0
    got = folner.phase_sums(m, t0, values)
    js = range(m) if data is None else data.draw(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=20))
    for j in js:
        assert abs(got[j] - exact_phase(Fraction(j, m), t)) <= 2e-15, j


@settings(max_examples=80, deadline=None)
@given(theta=st.floats(0.0, 1.0, exclude_max=True),
       t0=st.integers(-KERNEL_REACH, KERNEL_REACH),
       n=st.integers(1, 3 * folner.PHASE_TABLE), data=st.data())
def test_phase_at_t_does_not_depend_on_the_window(theta, t0, n, data):
    span = folner.phases(theta, t0, n)
    a = data.draw(st.integers(t0, t0 + n - 1))
    b = data.draw(st.integers(a + 1, t0 + n))
    assert bits(folner.phases(theta, a, b - a)) == bits(span[a - t0:b - t0])
    assert bits(folner.phases(theta, a, 1)) == bits(span[a - t0:a - t0 + 1])


@pytest.mark.parametrize("theta", [0.0, 0.5, GOLDEN, 0.123456789, 1e-9])
def test_phases_keep_their_bits_across_windows_and_pieces(theta):
    # negative t, windows that start mid-table, and both ends of the
    # RUN_BLOCK pieces of a long segment, read alone, by piece and span-long
    lo, hi = -3 * folner.RUN_BLOCK - 37, folner.RUN_BLOCK + 11
    span = folner.phases(theta, lo, hi - lo)
    segments = WindowSegments([(lo, hi - lo)])
    for a, b, *_ in segments.pieces:
        piece = folner.phases(theta, a, b - a)
        assert bits(piece) == bits(span[a - lo:b - lo])
        for t in (a - 1, a, b - 1, b):
            if lo <= t < hi:
                one = folner.phases(theta, t, 1)
                assert bits(one) == bits(span[t - lo:t - lo + 1])
                assert Character(theta)(t) == complex(one[0]).conjugate()
    for a in (lo + 1, -folner.PHASE_TABLE - 1, -5, 3, folner.PHASE_TABLE + 7):
        assert bits(folner.phases(theta, a, 600)) == bits(span[a - lo:a - lo + 600])
    # a row of an array of thetas is the kernel at that theta
    rows = folner.phases(np.array([theta, 0.25, GOLDEN]), lo + 5, 1000)
    assert bits(rows[0]) == bits(span[5:1005])


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


@settings(max_examples=150, deadline=None)
@given(means=st.lists(st.sampled_from([0.0, 0.5, 0.95, 1.0, 0.5j, 0.9995]),
                      min_size=1, max_size=14),
       tail=st.integers(1, 6))
def test_verdict_reads_only_the_last_two_tails_of_partials(means, tail):
    # eigenfunction_sample sweeps only the last 2 tail - 1 windows of each
    # offset, so no partial before them may change a verdict
    config = EstimatorConfig(tail=tail)
    means = np.array(means, dtype=complex)
    judged = estimate(means[-(2 * tail - 1):], 1.0, config)
    assert judged.verdict == estimate(means, 1.0, config).verdict


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
    sums = segments.sums(Track(start, np.array(values, dtype=dtype)).read)
    brute = [sum(values[s - start:s - start + l]) for s, l in windows]
    assert sums.tolist() == brute
    if dtype is np.int64:
        exact = segments.sums(Track(start, np.array(values, dtype=np.int32)).read)
        assert exact.dtype == np.int64 and exact.tolist() == brute


def test_integer_sums_are_exact_and_cast_a_piece_at_a_time():
    # int32 samples sum in int64 one piece at a time, so the cast to
    # int64 holds at most 1 B per value, not 8 as a span-wide cast would
    n = 1 << 20
    values = np.random.default_rng(5).integers(0, 1 << 31, n, dtype=np.int32)
    windows = [*FolnerSchedule.intervals(1 << 17, 8).windows,
               *((s, 3) for s in range(0, n - 3, 99_991)), (n - 1, 1)]
    segments = WindowSegments(windows)
    tracemalloc.start()
    try:
        sums = segments.sums(lambda a, b: values[a:b])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n
    assert sums.dtype == np.int64
    assert sums.tolist() == [int(values[s:s + l].sum(dtype=np.int64))
                             for s, l in windows]


@pytest.mark.parametrize("dtype", [float, complex, np.int32])
def test_long_window_sums_exact_or_near_fsum(dtype):
    # long segments cut into many blocks of a patched RUN_BLOCK, or into a
    # few of the default, stay within the fsum bound of their blocks' sum
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
    for run_block in (1, 64, folner.RUN_BLOCK):
        with mock.patch.object(folner, "RUN_BLOCK", run_block):
            got = WindowSegments([(s + start, l) for s, l in windows]).sums(
                Track(start, values).read)
        if dtype is np.int32:
            brute = [int(values[s:s + l].sum(dtype=np.int64))
                     for s, l in windows]
            assert got.dtype == np.int64 and got.tolist() == brute
            continue
        assert got.dtype == complex                 # float input is widened
        for (s, l), total in zip(windows, got):
            part = values[s:s + l]
            bound = n * 2.0 ** -52 * float(np.sum(np.abs(part)))
            want = complex(math.fsum(part.real.tolist()),
                           math.fsum(part.imag.tolist()))
            assert abs(total - want) <= bound, run_block


SCHEDULES = st.one_of(
    st.builds(FolnerSchedule.intervals, st.integers(1, 400), st.integers(1, 8)),
    st.builds(FolnerSchedule.dyadic, st.integers(1, 11)),
    st.builds(FolnerSchedule.alternating, st.integers(1, 60)))


def bits(values: np.ndarray) -> list[int]:
    return values.view(np.uint64).ravel().tolist()


def in_defined_order(ends, block_sum) -> np.ndarray:
    """Segment sums in the order the window sums define, built without
    WindowSegments' pieces: each segment [a, b) between consecutive
    ``ends`` is cut into blocks of RUN_BLOCK values from a, each summed by
    ``block_sum(c, d)``, and the block sums are added left to right."""
    sums = []
    for a, b in zip(ends, ends[1:]):
        cuts = [*range(a, b, folner.RUN_BLOCK), b]
        total = block_sum(cuts[0], cuts[1])
        for c, d in zip(cuts[1:], cuts[2:]):
            total = total + block_sum(c, d)
        sums.append(total)
    return np.array(sums)


@settings(max_examples=80, deadline=None)
@given(schedule=SCHEDULES, before=st.integers(0, 50), after=st.integers(0, 50),
       max_lag=st.integers(0, 6), real=st.booleans(),
       theta=st.one_of(st.sampled_from([0.0, 0.5, 0.25]),
                       st.floats(0.0, 1.0, exclude_max=True)),
       run_block=st.sampled_from([1, 5, 64, folner.RUN_BLOCK]),
       seed=st.integers(0, 2 ** 31 - 1))
# a one-value run: numpy rounds an in-place complex product of one value
# otherwise than a product over the span
@example(schedule=FolnerSchedule.alternating(1), before=0, after=0,
         max_lag=5, real=False, theta=0.625, run_block=1, seed=1)
# segments of exactly RUN_BLOCK values, one block each, and of RUN_BLOCK
# + 1, a block and one value
@example(schedule=FolnerSchedule.intervals(64, 3), before=3, after=2,
         max_lag=4, real=False, theta=0.3, run_block=64, seed=2)
@example(schedule=FolnerSchedule.intervals(65, 3), before=3, after=2,
         max_lag=4, real=False, theta=0.3, run_block=64, seed=3)
def test_segment_sums_equal_span_wide_sums_bit_for_bit(
        schedule, before, after, max_lag, real, theta, run_block, seed):
    # the reference cuts span-wide complex values, character products
    # and lagged copies into the blocks of the defined order itself;
    # values include exact and signed zeros, and short run blocks cut the
    # spans into many runs and long segments into many blocks
    with mock.patch.object(folner, "RUN_BLOCK", run_block):
        check_segment_sums(schedule, before, after, max_lag, real, theta,
                           seed)


def check_segment_sums(schedule, before, after, max_lag, real, theta, seed):
    rng = np.random.default_rng(seed)
    lo, hi = schedule.span()
    start = lo - max_lag - before
    n = hi + after - start
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
    values[rng.random(n) < 0.1] = 0.0
    values[rng.random(n) < 0.05] = -0.0
    if not real:
        values = values + 1j * rng.standard_normal(n)
    segments = WindowSegments(schedule.windows)
    ends = segments.ends.tolist()
    lengths = schedule.lengths()
    w = values.astype(complex)

    def reduceat(span):
        return lambda c, d: np.add.reduceat(span[c - lo:d - lo], [0])[0]

    want = segments.totals(in_defined_order(ends, reduceat(w[lo - start:])))
    read = Track(start, values).read
    assert bits(segments.sums(read)) == bits(want)

    table = Character(theta).conj_values(lo, hi)
    want = segments.totals(in_defined_order(
        ends, reduceat(values[lo - start:hi - start] * table)))
    got = segments.sweep(read, (theta,)).means[0]
    assert bits(got) == bits(want / lengths)
    shared = segments.sums(lambda a, b: read(a, b) * table[a - lo:b - lo])
    assert bits(shared) == bits(want)

    want = segments.totals(in_defined_order(ends, lambda c, d: np.array([
        np.vdot(w[c - k - start:d - k - start], w[c - start:d - start])
        for k in range(max_lag + 1)])))
    got = segments.sweep(read, max_lag=max_lag).lags
    assert bits(got) == bits(want / lengths[:, None])


@pytest.mark.parametrize("run_block", [1, 64, 100])
def test_long_segment_sums_keep_signed_zeros(run_block):
    # the long segments are cut into blocks that each sum to -0.0, and
    # their sums, added left to right, must stay -0.0
    windows = [(0, 1), (0, 1000), (0, 5000)]
    read = Track(0, np.full(5000, complex(-0.0, -0.0))).read
    table = Character(0.25).conj_values(0, 5000)
    with mock.patch.object(folner, "RUN_BLOCK", run_block):
        segments = WindowSegments(windows)
        assert sum(joins for *_, joins in segments.pieces) > 2
        want = segments.totals(np.add.reduceat(read(0, 5000), [0, 1, 1000]))
        assert bits(segments.sums(read)) == bits(want)
        want = segments.totals(np.add.reduceat(read(0, 5000) * table,
                                               [0, 1, 1000]))
        got = segments.sweep(read, (0.25,)).means[0]
        assert bits(got) == bits(want / np.array([1, 1000, 5000]))


STREAM_POINTS = st.one_of(
    st.sampled_from([PeriodicPoint("ABC"), SubstitutionPoint(FIBONACCI_RULES),
                     SubstitutionPoint(THUE_MORSE_RULES),
                     SturmianPoint(GOLDEN, 0.3), StepPoint(), BlockPoint()]),
    st.builds(BernoulliPoint, st.just(0.4), st.integers(0, 2 ** 32)),
).flatmap(lambda x: st.integers(-300, 300).map(lambda s: shift(x, s)))

# table entries with signed zeros in both parts; the entries with an
# imaginary part make some pieces of a track complex and others real
ENTRIES = st.sampled_from([0.0, -0.0, 1.5, -2.25, complex(0.0, -0.0),
                           complex(-0.0, -0.0), complex(0.5, -0.0), 1j,
                           complex(-1.0, 2.0)])


@st.composite
def table_observables(draw, alphabet):
    window = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3,
                           unique=True))
    patterns = ["".join(p) for p in itertools.product(alphabet,
                                                      repeat=len(window))]
    entries = draw(st.lists(ENTRIES, min_size=len(patterns),
                            max_size=len(patterns)))
    return Observable(tuple(window), dict(zip(patterns, map(complex, entries))))


@settings(max_examples=60, deadline=None)
@given(x=STREAM_POINTS, schedule=SCHEDULES, data=st.data(),
       theta=st.sampled_from([0.0, 0.5, GOLDEN]),
       probes=st.lists(st.integers(-6, 6), max_size=3),
       max_lag=st.integers(0, 5),
       run_block=st.sampled_from([1, 5, 64, folner.RUN_BLOCK]))
def test_streamed_sums_equal_span_long_track_sums(x, schedule, data, theta,
                                                  probes, max_lag, run_block):
    # read from the point a piece at a time, the sums keep the bits of the
    # same sums over one span-long track, whichever pieces are complex
    f = data.draw(table_observables(x.alphabet))
    with mock.patch.object(folner, "RUN_BLOCK", run_block):
        check_streamed_sums(x, f, schedule, theta, (0, *probes), max_lag)


def check_streamed_sums(x, f, schedule, theta, shifts, max_lag):
    lo, hi = schedule.span()
    first = min(min(shifts), -max_lag)
    track = observable_track(f, x, lo + first, hi + max(shifts) - 1)
    source = observable_source(f, x)
    segments = WindowSegments(schedule.windows)
    lengths = schedule.lengths()

    assert (bits(segments.sums(source) / lengths)
            == bits(partial_means(track, schedule).values))
    lagged = segments.sweep(source, max_lag=max_lag)
    assert (bits(lagged.lags)
            == bits(segments.sweep(track.read, max_lag=max_lag).lags))
    assert lagged.sup == sup_norm(track.read(lo - max_lag, hi))

    square = np.abs(track.values) ** 2
    xi = Character(theta)
    for s in shifts:
        # the windows moved by s, read from the one source of x's samples
        moved = WindowSegments([(a + s, l) for a, l in schedule.windows])
        swept = moved.sweep(source, (theta,), energy=s == 0)
        want = moved.sums(lambda a, b: track.read(a, b) * xi.conj_values(a, b))
        assert bits(swept.means[0]) == bits(want / lengths)
        if s == 0:
            assert bits(swept.energy) == bits(partial_means(
                Track(track.start, square), schedule).values)
        assert swept.peaks.tolist() == [sup_norm(track.read(a + s, a + s + l))
                                        for a, l in schedule.windows]
        assert swept.sup == sup_norm(track.read(lo + s, hi + s))


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
    # lengths leave 0 to 89 steps: no block, whole blocks and a padded
    # last block; spans start and end anywhere, in one block or across many
    length = data.draw(st.integers(1, len(values)))
    arr = np.array(values, dtype=np.int32)
    sums = sliding_sums(arr.astype(np.int64), length)
    last = len(sums) - 1
    spans = [(0, last)] + data.draw(st.lists(
        st.tuples(st.integers(0, last), st.integers(0, last)).map(
            lambda pq: tuple(sorted(pq))), max_size=4))
    want = [int(np.max(sums[p:q + 1])) for p, q in spans]
    assert max_sliding_sums(arr, length, spans) == want


@pytest.mark.parametrize("chunk", [1, 7, 8, 64])
@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=200),
       data=st.data())
def test_chunked_max_sliding_sums_equal_brute_maxima(chunk, values, data):
    # taken a chunk of steps at a time, the maxima stay exact, for spans
    # that start or end on a chunk edge, next to one, or anywhere
    length = data.draw(st.integers(1, len(values)))
    arr = np.array(values, dtype=np.int32)
    sums = sliding_sums(arr.astype(np.int64), length)
    m = len(sums) - 1
    edges = sorted({min(max(e + d, 0), m) for e in range(0, m + chunk, chunk)
                    for d in (-1, 0, 1)})
    ends = st.sampled_from(edges) | st.integers(0, m)
    spans = [(0, m)] + data.draw(st.lists(st.tuples(ends, ends).map(
        lambda pq: tuple(sorted(pq))), max_size=5))
    with mock.patch.object(folner, "SLIDE_CHUNK", chunk):
        got = max_sliding_sums(arr, length, spans)
    assert got == [int(sums[p:q + 1].max()) for p, q in spans]
