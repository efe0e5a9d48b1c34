"""Generators, observables, tracks and the cylinder metric."""

import itertools
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apspectra import points
from apspectra.points import (FIBONACCI_RULES, MAX_RADIUS,
                              PERIOD_DOUBLING_RULES, THUE_MORSE_RULES,
                              BernoulliPoint, BlockPoint, Observable,
                              PeriodicPoint, StepPoint, SturmianPoint,
                              SubstitutionPoint, Track, cylinder_weights,
                              eval_window, metric_d, mismatch_track,
                              observable_track, shift, smeared_counts,
                              sup_norm)
from cli_runner import SRC

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


P24 = "abcdefghijklmnopqrstuvwx"


@pytest.mark.parametrize("rules,seed,grows", [
    (FIBONACCI_RULES, "00", True),
    (THUE_MORSE_RULES, "00", True),
    ({"0": "0010", "1": "1"}, "00", True),         # Chacon's: not primitive
    ({c: c + P24[(i + 1) % 24] * 2 for i, c in enumerate(P24)}, "ab", True),
    ({"a": "b", "b": "c", "c": "ab"}, "ba", True),  # the plastic number
    ({"a": "ba", "b": "b", "c": "cb", "d": "ac"}, "ac", False),  # linear
    ({"a": "ab", "b": "bc", "c": "c"}, "ab", False),  # quadratic
    ({"0": "0", "1": "10"}, "00", False),          # never grows
])
def test_substitution_seed_letters_must_grow_exponentially(rules, seed,
                                                          grows):
    if grows:
        SubstitutionPoint(rules, tuple(seed))
    else:
        with pytest.raises(ValueError, match="exponentially"):
            SubstitutionPoint(rules, tuple(seed))


@pytest.mark.parametrize("size", [128, 129])
def test_substitution_alphabet_has_at_most_128_letters(size):
    # letters need not be ASCII, but their number stays bounded
    c = [chr(0x4E00 + i) for i in range(size)]
    rules = {a: a + c[(i + 1) % size] + a for i, a in enumerate(c)}
    if size <= 128:
        x = SubstitutionPoint(rules, (c[0], c[1]))
        assert eval_window(x, -1, 0) == c[0] + c[1]
    else:
        with pytest.raises(ValueError, match="128"):
            SubstitutionPoint(rules, (c[0], c[1]))


def oracle_window(rules, seed, start, stop):
    """x(start..stop-1) of the fixed point by plain word expansion: the
    seed words l and r grow under sigma^p, with p the smallest power for
    which sigma^p(l) ends in l and sigma^p(r) starts with r, until they
    cover the window.  The last (first) n letters of sigma(w) depend only
    on the last (first) n letters of w, so each word is cut to what the
    window reads after every application."""
    table = str.maketrans(rules)
    need_left, need_right = max(-start, 1), max(stop, 1)

    def apply(left, right):
        return (left.translate(table)[-need_left:],
                right.translate(table)[:need_right])

    left, right = apply(*seed)
    power = 1
    while (left[-1], right[0]) != seed:
        left, right = apply(left, right)
        power += 1
        assert power <= 24
    while len(left) < -start or len(right) < stop:
        for _ in range(power):
            left, right = apply(left, right)
    word = left + right
    return word[len(left) + start:len(left) + stop]


@st.composite
def growing_points(draw, letters=tuple("01abαβé中")):
    """Points of random substitutions on two to four letters, non-ASCII
    ones among them, primitive or not, at one of their legal seeds whose
    letters grow exponentially."""
    alphabet = draw(st.lists(st.sampled_from(letters), min_size=2,
                             max_size=4, unique=True))
    word = st.lists(st.sampled_from(alphabet), min_size=1, max_size=4)
    rules = {a: "".join(draw(word)) for a in alphabet}
    points = []
    for left in alphabet:
        for right in alphabet:
            try:
                points.append(SubstitutionPoint(rules, (left, right)))
            except ValueError:
                pass
    assume(points)
    return draw(st.sampled_from(points))


CHACON = SubstitutionPoint({"0": "0010", "1": "1"}, ("0", "0"))


@settings(max_examples=200, deadline=None)
@given(x=growing_points(), start=st.integers(-300, 300),
       length=st.integers(0, 400))
@example(x=CHACON, start=-300, length=400)
def test_substitution_codes_match_word_expansion(x, start, length):
    window = "".join(x.alphabet[c] for c in x.codes(start, start + length))
    assert window == oracle_window(x.rules, x.seed, start, start + length)


FAR = 2 ** 22


@pytest.mark.parametrize("x", [
    SubstitutionPoint(FIBONACCI_RULES, ("0", "0")),
    CHACON,
    SubstitutionPoint({"α": "αβ中", "β": "中αβ", "中": "βα"}, ("β", "α")),
], ids=["fibonacci", "chacon", "non-ascii"])
def test_substitution_far_windows_match_word_expansion(x):
    # short windows at both ends of [-FAR - 100, FAR], the ends included
    word = oracle_window(x.rules, x.seed, -FAR - 100, FAR + 1)
    rng = np.random.default_rng(17)
    starts = np.concatenate([rng.integers(FAR - 400, FAR, 40),
                             rng.integers(-FAR - 100, -FAR + 300, 40)])
    for start, length in zip(starts.tolist(), rng.integers(0, 400, 80).tolist()):
        stop = min(start + length, FAR + 1)
        window = "".join(x.alphabet[c] for c in x.codes(start, stop))
        assert window == word[start + FAR + 100:stop + FAR + 100]
    assert "".join(x.alphabet[c] for c in x.codes(FAR - 1, FAR + 1)) == word[-2:]
    assert x.alphabet[x.codes(-FAR - 100, -FAR - 99)[0]] == word[0]


def test_substitution_codes_are_safe_across_threads():
    x = SubstitutionPoint(FIBONACCI_RULES, ("0", "0"))
    rng = np.random.default_rng(11)
    windows = [(int(a), int(a) + int(n)) for a, n in zip(
        rng.integers(-FAR, FAR, 64), rng.integers(0, 5000, 64))]
    expected = [x.codes(a, b) for a, b in windows]
    fresh = SubstitutionPoint(FIBONACCI_RULES, ("0", "0"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda w: fresh.codes(*w), windows * 4))
    finally:
        sys.setswitchinterval(interval)
    for i, codes in enumerate(got):
        assert np.array_equal(codes, expected[i % len(windows)])


# a 125-letter rule whose seed letters grow only through a 122-letter
# cycle c_0 -> c_1 -> ... -> c_121 -> c_0 c_0: the letter lengths reach
# 2^63 only after about 6800 levels
SLOW_CYCLE = [chr(0x4E00 + i) for i in range(122)]
SLOW_RULES = {**{a: b for a, b in zip(SLOW_CYCLE, SLOW_CYCLE[1:])},
              SLOW_CYCLE[-1]: SLOW_CYCLE[0] * 2,
              "l": SLOW_CYCLE[0] + "l", "r": "r" + SLOW_CYCLE[0], "s": "lr"}
SLOW_PROBE = """
import json, sys, time
from apspectra.points import SubstitutionPoint
rules = json.loads(sys.argv[1])
started = time.perf_counter()
x = SubstitutionPoint(rules, ("l", "r"))
built = time.perf_counter()
levels = len(x._lengths)
codes = x.codes(-1000, 1000)
read = time.perf_counter()
print(json.dumps([built - started, read - built, levels, len(x._lengths),
                  codes.tolist()]))
"""


def test_slow_substitution_builds_only_the_levels_it_reads():
    # in a fresh process, so the times include no warm cache; the table
    # holds level 0 until a read, and then about the 390 levels that
    # cover 1000 letters, not the 6840 that reach 2^63
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", SLOW_PROBE,
                          json.dumps(SLOW_RULES)], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    build_s, read_s, built, read, codes = json.loads(res.stdout)
    assert build_s < 2.0 and read_s < 2.0, (build_s, read_s)
    assert built == 1 and read < 1000, (built, read)
    alphabet = sorted(SLOW_RULES)
    window = oracle_window(SLOW_RULES, ("l", "r"), -1000, 1000)
    assert codes == [alphabet.index(a) for a in window]


def test_bernoulli_reproducible_and_order_independent():
    a = BernoulliPoint(0.5, 42)
    b = BernoulliPoint(0.5, 42)
    mid = a.codes(50, 60)
    full = b.codes(-100, 200)
    assert np.array_equal(mid, full[150:160])
    assert np.array_equal(a.codes(-100, 200), full)
    other = BernoulliPoint(0.5, 43)
    assert not np.array_equal(other.codes(-100, 200), full)
    # hashed in blocks: cuts anywhere, across block ends, read the same
    long = a.codes(-70_000, 140_000)
    assert long.dtype == np.int64
    assert np.array_equal(np.concatenate([b.codes(-70_000, 123),
                                          b.codes(123, 65_659),
                                          b.codes(65_659, 140_000)]), long)


def sturmian_one_shot(x: SturmianPoint, start: int, stop: int) -> np.ndarray:
    """The rotation coding computed over the whole window at once."""
    frac = np.mod(np.arange(start, stop, dtype=float) * x.alpha + x.rho, 1.0)
    return (frac >= 1.0 - x.alpha).astype(np.int64)


@pytest.mark.parametrize("block", [1, 5, 64, points.HASH_BLOCK, 1 << 16])
def test_sturmian_blocks_match_one_shot_codes(block, monkeypatch):
    # computed a block at a time, the codes keep the bits of the one-shot
    # formula, in windows that start, end and cross block edges anywhere
    monkeypatch.setattr(points, "HASH_BLOCK", block)
    edge = points.HASH_BLOCK
    for x in (SturmianPoint(GOLDEN, 0.0), SturmianPoint(0.3183, 0.77)):
        for start, stop in [(-3 * edge - 2, 2 * edge + 3), (edge - 1, edge + 1),
                            (-edge, 0), (5, 5), (2 ** 22 - 7, 2 ** 22 + 3 * edge),
                            (-2 ** 22 - edge, -2 ** 22 + 1)]:
            got = x.codes(start, stop)
            assert got.dtype == np.int64
            assert (got.view(np.uint64).tolist()
                    == sturmian_one_shot(x, start, stop).view(np.uint64).tolist())


def block_letter(t: int, fill: str) -> int:
    """BlockPoint's docstring: 1 on [2^n, 2^n + 2^(n-1)) for n >= 1, the
    fill letter at t <= 0."""
    if t <= 0:
        return int(fill)
    return int(any(2 ** n <= t < 2 ** n + 2 ** (n - 1) for n in range(1, 64)))


CODED = [
    (PeriodicPoint("AB"), lambda t: t % 2),
    (PeriodicPoint("cabca"), lambda t: "abc".index("cabca"[t % 5])),
    (StepPoint(), lambda t: int(t >= 0)),
    (BlockPoint("0"), lambda t: block_letter(t, "0")),
    (BlockPoint("1"), lambda t: block_letter(t, "1")),
]
# 0, and the block ends 2^n and 2^n + 2^(n-1) of either sign up to 2^22
ANCHORS = [0] + [sign * (2 ** n + half * 2 ** (n - 1)) for n in range(1, 23)
                 for half in (0, 1) for sign in (1, -1)]


@pytest.mark.parametrize("x,letter", CODED, ids=["AB", "cabca", "step",
                                                 "block0", "block1"])
@settings(max_examples=150, deadline=None)
@given(anchor=st.sampled_from(ANCHORS), offset=st.integers(-40, 40),
       length=st.integers(-8, 80))
@example(anchor=2 ** 22, offset=-40, length=80)
@example(anchor=-2 ** 22, offset=-3, length=0)
def test_slice_filled_codes_match_their_definition(x, letter, anchor, offset,
                                                   length):
    # windows of any sign, empty or reversed, across block ends and near
    # the budget, against the letter of each coordinate
    start = anchor + offset
    got = x.codes(start, start + length)
    assert got.dtype == np.int64
    assert got.tolist() == [letter(t) for t in range(start, start + length)]


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


@pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0, 0.0], [0.0, -0.0],
                                    [complex(-0.0, -0.0)], []])
def test_sup_norm_of_zeros_is_positive_zero(values):
    # a max over entries that are all -0.0 keeps the -0.0; |v| does not
    got = sup_norm(np.array(values))
    assert got == 0.0 and np.copysign(1.0, got) == 1.0


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


@settings(max_examples=80, deadline=None)
@given(rest=st.text(alphabet="abc", max_size=9),
       window=st.lists(st.integers(-5, 5), min_size=1, max_size=7),
       t0=st.integers(-40, 40), length=st.integers(1, 60),
       kind=st.sampled_from(["real", "complex", "complex unseen"]),
       seed=st.integers(0, 2 ** 31 - 1))
@example(rest="", window=[3, -2, 0, 5, -5, 1, 2], t0=-7, length=30,
         kind="complex unseen", seed=0)
def test_observable_track_matches_per_coordinate_lookup(rest, window, t0,
                                                        length, kind, seed):
    # three letters and up to seven offsets: keys run past 3^6 - 1 = 728,
    # which uint8 arithmetic would wrap without a sound
    pattern = "abc" + rest
    x = PeriodicPoint(pattern)
    rng = np.random.default_rng(seed)
    patterns = ["".join(p) for p in
                itertools.product(x.alphabet, repeat=len(window))]
    table = dict(zip(patterns, rng.standard_normal(len(patterns)).tolist()))

    def at(t):
        return "".join(pattern[(t + off) % len(pattern)] for off in window)

    coords = range(t0, t0 + length)
    seen = {at(t) for t in coords}
    if kind == "complex":
        table = {p: complex(v, rng.standard_normal()) for p, v in table.items()}
    elif kind == "complex unseen":
        unseen = [p for p in patterns if p not in seen]
        assume(unseen)
        table[unseen[0]] = complex(table[unseen[0]], 1.0)
    track = observable_track(Observable(tuple(window), table), x, t0,
                             t0 + length - 1)
    # an imaginary part that never occurs leaves the track real
    assert track.values.dtype == (complex if kind == "complex" else float)
    assert track.start == t0
    assert track.values.tolist() == [table[at(t)] for t in coords]


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


def sup_metric_lb(x, y, horizon, radius=16):
    """max over |s| <= horizon of d(s.x, s.y); a lower bound for the sup
    metric."""
    return float(np.max(mismatch_track(x, y, -horizon, horizon + 1, radius)))


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
