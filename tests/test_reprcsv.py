"""spectrum.csv's formatter against its oracle, ``repr``: every cell of
``reprcsv.lines`` must read as ``repr(float(cell))`` writes it, and |c|,
``np.hypot`` of a grid's parts, must round as ``abs`` of a complex does."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspectra import reprcsv
from apspectra.cli import _BLOCK
from apspectra.config import build_observable, build_point, validate
from apspectra.reprcsv import lines
from apspectra.spectral import fourier_bohr_grid
from test_acceptance import DETERMINISM_CONFIGS


def bits_of(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def oracle(table: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


# powers of ten, among them the exact range's ends and the switches of
# repr's layout (exponent below 1e-4 and from 1e16), some of whose
# nearest doubles (1e-6's, 1e-7's) lie below them and so read one digit
# up; and 2^52 and 2^53, where the unit of the last place reaches 1 and
# 2: each with the doubles a few steps around it
EDGES = [10.0 ** j for j in range(-12, 18)] + [2.0 ** 52, 2.0 ** 53]
magnitudes = st.one_of(
    st.integers(0, 2 ** 63 - 1),                    # every exponent, nan, inf
    st.builds(lambda j, k: bits_of(j / 2 ** k),     # dyadic: exact ties
              st.integers(0, 2 ** 53), st.integers(0, 1074)),
    st.builds(lambda j, k: bits_of(j / 2 ** k),     # as grid thetas are
              st.integers(1, 2 ** 20), st.integers(0, 40)),
    st.builds(lambda v, d: bits_of(round(v, d)),    # short decimals
              st.floats(0, 1e17), st.integers(-5, 17)),
    st.builds(lambda m, e: bits_of(float(f"{m}e{e}")),  # 15 to 17 digits
              st.integers(10 ** 14, 10 ** 17 - 1), st.integers(-30, 0)),
    st.one_of(st.integers(-40, 55), st.integers(-1074, 1023)).map(
        lambda e: bits_of(2.0 ** e)),              # the lopsided interval
    st.builds(lambda m, e: bits_of(m * 2.0 ** e),  # any M at an exact E
              st.integers(2 ** 52, 2 ** 53 - 1), st.integers(-90, 1)),
    st.builds(lambda edge, step: bits_of(edge) + step,
              st.sampled_from(EDGES), st.integers(-3, 3)),
    st.integers(0, 2 ** 60).map(lambda i: bits_of(float(i))),
    st.just(0))
cells = st.builds(lambda magnitude, negative: magnitude | negative << 63,
                  magnitudes, st.integers(0, 1))


@settings(max_examples=2000, deadline=None)
@given(st.lists(cells, min_size=1, max_size=48), st.integers(1, 4))
def test_lines_match_repr(drawn, cols):
    # fallback cells (subnormal, tiny, huge, nan, inf) sit among exact
    # ones, so a patch in the wrong row shows
    cols = min(cols, len(drawn))
    values = np.array(drawn[:len(drawn) - len(drawn) % cols],
                      dtype=np.uint64).view(np.float64).reshape(-1, cols)
    assert lines(values) == oracle(values)


def grid_table(index: int) -> np.ndarray:
    """theta, re, im and |c| of a benchmark spectrum's largest grid."""
    cfg = validate(*DETERMINISM_CONFIGS[index], None)
    point = build_point(cfg["point"])
    grid = fourier_bohr_grid(build_observable(cfg["observable"], point),
                             point, max(cfg["grid_sizes"]))
    amps = grid.amplitudes
    return np.column_stack([grid.thetas, amps.real, amps.imag,
                            np.hypot(amps.real, amps.imag)])


@pytest.mark.parametrize("index", [6, 8])
def test_benchmark_grids_match_repr_and_only_outliers_take_it(
        index, monkeypatch):
    table = grid_table(index)
    assert lines(table[:_BLOCK]) == oracle(table[:_BLOCK])
    # on the whole grid, repr is called for the nonzero cells outside
    # 1e-11 <= |x| < 1e16 only: cfg8's grid holds 98,305 zeros and 2,018
    # cells under 1e-11
    calls = []
    monkeypatch.setattr(reprcsv, "repr",
                        lambda v: calls.append(v) or repr(v), raising=False)
    text = lines(table)
    size = np.abs(table)
    outside = (table != 0) & ~((size >= 1e-11) & (size < 1e16))
    assert len(calls) == np.count_nonzero(outside)
    assert text == oracle(table)


def modulus(re: float, im: float) -> float:
    # abs raises where the modulus overflows, which no grid cell nears
    try:
        return abs(complex(re, im))
    except OverflowError:
        return float("inf")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(cells, cells), min_size=1, max_size=32))
def test_hypot_rounds_as_abs_of_a_complex(pairs):
    re, im = np.array(pairs, dtype=np.uint64).view(np.float64).T
    with np.errstate(over="ignore"):
        got = np.hypot(re, im)
    want = np.array([modulus(a, b) for a, b in zip(re.tolist(),
                                                   im.tolist())])
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64),
                          want[~nan].view(np.uint64))
