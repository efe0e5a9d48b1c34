"""Generators, observables, tracks and the cylinder metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspectra.points import (FIBONACCI_RULES, MAX_RADIUS,
                              PERIOD_DOUBLING_RULES, THUE_MORSE_RULES,
                              BernoulliPoint, BlockPoint, Observable,
                              PeriodicPoint, StepPoint, SturmianPoint,
                              SubstitutionPoint, Track, cylinder_weights,
                              eval_window, metric_d, mismatch_track,
                              observable_track, shift, smeared_counts,
                              sup_metric_lb)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def all_points():
    return [
        PeriodicPoint("AB"),
        PeriodicPoint("ABC"),
        SubstitutionPoint(FIBONACCI_RULES, ("0", "0"), "fibonacci"),
        SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"), "thue-morse"),
        SubstitutionPoint(PERIOD_DOUBLING_RULES, ("0", "0"), "period-doubling"),
        SturmianPoint(GOLDEN, 0.0),
        BernoulliPoint(0.3, 99),
        StepPoint(),
        BlockPoint(),
    ]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_window_periodic():
    assert eval_window(PeriodicPoint("AB"), 0, 3) == "ABAB"


def test_eval_window_block_example():
    # blocks are {2}, {4,5}, {8..11}, ... so [2,6] reads 1,0,1,1,0
    assert eval_window(BlockPoint(), 2, 6) == "10110"
    assert eval_window(BlockPoint(), 7, 12) == "011110"
    assert eval_window(BlockPoint(), -3, 1) == "00000"
    assert eval_window(BlockPoint(fill="1"), -3, 0) == "1111"


def test_eval_window_sturmian_golden():
    x = SturmianPoint(GOLDEN, 0.0)
    assert eval_window(x, 0, 4) == "01011"


def test_eval_window_rejects_reversed_range():
    with pytest.raises(ValueError):
        eval_window(StepPoint(), 3, 1)


def test_substitution_prefix_is_fixed():
    # applying the rules to a prefix must reproduce a longer prefix
    for rules in (FIBONACCI_RULES, THUE_MORSE_RULES, PERIOD_DOUBLING_RULES):
        x = SubstitutionPoint(rules, ("0", "0"))
        prefix = eval_window(x, 0, 49)
        image = "".join(rules[c] for c in prefix)
        assert image == eval_window(x, 0, len(image) - 1)


def test_substitution_rejects_illegal_seed():
    with pytest.raises(ValueError):
        SubstitutionPoint(FIBONACCI_RULES, ("1", "1"))  # "11" never occurs


def test_bernoulli_reproducible_and_order_independent():
    a = BernoulliPoint(0.5, 42)
    b = BernoulliPoint(0.5, 42)
    mid = a.codes(50, 60)
    full = b.codes(-100, 200)
    assert np.array_equal(mid, full[150:160])
    assert np.array_equal(a.codes(-100, 200), full)
    other = BernoulliPoint(0.5, 43)
    assert not np.array_equal(other.codes(-100, 200), full)


def test_bernoulli_density_tracks_p():
    x = BernoulliPoint(0.3, 7)
    mean = float(np.mean(x.codes(0, 200_000)))
    assert abs(mean - 0.3) < 0.005


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_shift_zero_is_identity():
    for x in all_points():
        assert eval_window(shift(x, 0), -7, 7) == eval_window(x, -7, 7)


def test_shift_periodic_by_period():
    x = PeriodicPoint("AB")
    assert eval_window(shift(x, 2), -9, 9) == eval_window(x, -9, 9)


def test_shift_postcondition_on_every_generator():
    rng = np.random.default_rng(3)
    for x in all_points():
        for _ in range(5):
            t = int(rng.integers(-40, 41))
            a = int(rng.integers(-30, 0))
            b = a + int(rng.integers(0, 25))
            assert eval_window(shift(x, t), a, b) == eval_window(x, a + t, b + t)


def test_shift_step_point_recorded_values():
    # with (t.x)(k) = x(k + t): shifting by -5 moves the step edge to k = 5
    y = StepPoint()
    assert eval_window(shift(y, -5), 0, 0) == "0"
    assert eval_window(shift(y, -5), 4, 4) == "0"
    assert eval_window(shift(y, -5), 5, 5) == "1"
    assert eval_window(shift(y, -5), -6, -6) == "0"


def test_shift_is_group_action():
    rng = np.random.default_rng(5)
    for x in all_points():
        s, t = int(rng.integers(-20, 21)), int(rng.integers(-20, 21))
        lhs = eval_window(shift(shift(x, s), t), -10, 10)
        rhs = eval_window(shift(x, s + t), -10, 10)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def test_indicator_track_on_periodic():
    x = PeriodicPoint("AB")
    f = Observable.indicator("A", x.alphabet)
    track = observable_track(f, x, 0, 5)
    assert list(track.values) == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


def test_constant_observable_track():
    for x in all_points():
        f = Observable.constant(0.25 - 1j, x.alphabet)
        track = observable_track(f, x, -4, 4)
        assert np.allclose(track.values, 0.25 - 1j)


def test_thue_morse_pm_one_prefix():
    tm = SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))
    f = Observable.letter_values({"0": 1.0, "1": -1.0})
    track = observable_track(f, tm, 0, 7)
    assert list(track.values) == [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0]


def test_track_values_bounded_by_sup_norm():
    x = SturmianPoint(GOLDEN, 0.25)
    f = Observable.letter_values({"0": 0.4 + 0.3j, "1": -0.6j})
    track = observable_track(f, x, -50, 50)
    assert float(np.max(np.abs(track.values))) <= f.sup_norm() + 1e-15


def test_track_commutes_with_shift():
    rng = np.random.default_rng(9)
    for x in all_points():
        f = Observable.indicator(x.alphabet[0], x.alphabet, offset=1)
        s = int(rng.integers(-15, 16))
        shifted = observable_track(f, shift(x, s), 0, 20)
        base = observable_track(f, x, s, 20 + s)
        assert np.allclose(shifted.values, base.values)


def test_two_site_observable_patterns():
    x = PeriodicPoint("AB")
    table = {"AA": 0.0, "AB": 1.0, "BA": 2.0, "BB": 0.0}
    f = Observable((0, 1), table)
    track = observable_track(f, x, 0, 3)
    assert list(track.values) == [1.0, 2.0, 1.0, 2.0]


def test_partial_table_raises_naming_pattern():
    x = PeriodicPoint("AB")
    f = Observable((0, 1), {"AA": 1.0, "AB": 1.0, "BA": 1.0})
    with pytest.raises(KeyError, match="BB"):
        observable_track(f, x, 0, 3)


def test_track_is_a_mapping():
    track = Track(3, np.array([1.0, 2.0, 3.0]))
    assert track[4] == 2.0
    assert len(track) == 3
    assert list(track) == [3, 4, 5]
    assert dict(track.items())[5] == 3.0
    with pytest.raises(KeyError):
        track[6]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metric_zero_on_equal_points():
    for x in all_points():
        assert metric_d(x, x, 8) == 0.0


def test_cylinder_metric_object():
    from apspectra.points import CylinderMetric
    m = CylinderMetric(8)
    assert abs(m.normalizer - (3.0 - 2.0 ** -7)) < 1e-15
    assert len(m.weights) == 17
    x = PeriodicPoint("AB")
    assert m.distance(x, shift(x, 1)) == metric_d(x, shift(x, 1), 8)
    with pytest.raises(ValueError):
        CylinderMetric(0).distance(x, x)


def test_metric_one_on_everywhere_different():
    x = PeriodicPoint("A")
    y = PeriodicPoint("B")
    assert abs(metric_d(x, y, 8) - 1.0) < 1e-15


def test_metric_periodic_parity():
    x = PeriodicPoint("AB")
    assert abs(metric_d(x, shift(x, 1), 8) - 1.0) < 1e-15
    assert metric_d(x, shift(x, 2), 8) == 0.0


def test_metric_axioms_on_generated_points():
    pts = [PeriodicPoint("AB"), shift(StepPoint(), 2),
           SturmianPoint(GOLDEN, 0.1), BernoulliPoint(0.4, 1),
           SubstitutionPoint(THUE_MORSE_RULES, ("0", "0"))]
    for a in pts:
        for b in pts:
            dab = metric_d(a, b, 10)
            assert 0.0 <= dab <= 1.0
            assert abs(dab - metric_d(b, a, 10)) < 1e-15
            for c in pts:
                assert dab <= metric_d(a, c, 10) + metric_d(c, b, 10) + 1e-12


def test_metric_zero_iff_windows_agree():
    x = StepPoint()
    y = shift(x, 1)
    assert metric_d(x, y, 8) > 0.0
    # far translates agree on the whole comparison window
    assert metric_d(shift(x, 100), shift(y, 100), 8) == 0.0


def test_sup_metric_examples():
    x = PeriodicPoint("AB")
    assert sup_metric_lb(x, x, 50, 8) == 0.0
    assert sup_metric_lb(x, shift(x, 2), 50, 8) == 0.0
    y = StepPoint()
    _, c = cylinder_weights(8)
    value = sup_metric_lb(y, shift(y, 1), 100, 8)
    # the single disagreeing site carries weight 1 when centered
    assert abs(value - 1.0 / c) < 1e-15


def test_sup_metric_monotone_in_horizon():
    y = StepPoint()
    z = shift(y, 3)
    values = [sup_metric_lb(y, z, s, 8) for s in (0, 2, 5, 20, 100)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# properties of the shift action and the mismatch kernel
# ---------------------------------------------------------------------------

POINTS = all_points()


@pytest.mark.parametrize("x", POINTS, ids=lambda x: type(x).__name__)
@settings(max_examples=15, deadline=None)
@given(t=st.integers(-300, 300), a=st.integers(-300, 300),
       length=st.integers(0, 80))
def test_shift_codes_read_translated_coordinates(x, t, a, length):
    b = a + length
    assert np.array_equal(shift(x, t).codes(a, b), x.codes(a + t, b + t))


@settings(max_examples=40, deadline=None)
@given(i=st.integers(0, len(POINTS) - 1), j=st.integers(0, len(POINTS) - 1),
       t=st.integers(-20, 20), s0=st.integers(-100, 100),
       n=st.integers(1, 12), radius=st.integers(1, 6))
def test_mismatch_track_is_metric_along_the_orbit(i, j, t, s0, n, radius):
    x, y = POINTS[i], shift(POINTS[j], t)
    track = mismatch_track(x, y, s0, s0 + n, radius)
    w, c = cylinder_weights(radius)
    for s, d in zip(range(s0, s0 + n), track):
        assert d == metric_d(shift(x, s), shift(y, s), radius)
        xs = eval_window(x, s - radius, s + radius)
        ys = eval_window(y, s - radius, s + radius)
        brute = sum(wk for wk, p, q in zip(w, xs, ys) if p != q) / c
        assert d == brute


def convolved_mismatch(mask, radius):
    """The float route the integer kernel replaced, the test oracle."""
    w, c = cylinder_weights(radius)
    return np.convolve(np.asarray(mask, dtype=float), w, "valid") / c


@settings(max_examples=120, deadline=None)
@given(radius=st.integers(1, MAX_RADIUS), extra=st.integers(0, 90),
       fill=st.sampled_from(["random", "zeros", "ones"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_smeared_counts_equal_convolution_bit_for_bit(radius, extra, fill,
                                                      seed):
    n = 2 * radius + 1 + extra
    if fill == "random":
        mask = np.random.default_rng(seed).integers(0, 2, n).astype(bool)
    else:
        mask = np.full(n, fill == "ones")
    s, c = smeared_counts(mask, radius)
    assert s.dtype == np.int32 and len(s) == extra + 1
    assert c == 3 * 2 ** radius - 2
    assert np.array_equal(s / c, convolved_mismatch(mask, radius))


def test_metric_radius_bound():
    ones = np.ones(2 * MAX_RADIUS + 1, dtype=bool)
    s, c = smeared_counts(ones, MAX_RADIUS)
    assert s.tolist() == [c] and c == 3 * 2 ** 28 - 2
    assert cylinder_weights(MAX_RADIUS)[1] * 2 ** MAX_RADIUS == c
    for bad in (0, MAX_RADIUS + 1, 2000):
        with pytest.raises(ValueError, match="radius"):
            cylinder_weights(bad)
        with pytest.raises(ValueError, match="radius"):
            smeared_counts(np.ones(2 * bad + 1, dtype=bool), bad)
