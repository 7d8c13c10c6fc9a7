"""The numpy OBJ and JSON text against CPython's own %-formatting, value
by value."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from titeica import _objtext
from tests.conftest import face_rows_reference, limb_decimal
from tests.test_cli import special_float_mesh


def float_reference(values):
    return b"".join(b"v" + b"".join(b" %.17g" % x for x in row) + b"\n"
                    for row in values.tolist())


def float_text(values):
    return b"".join(bytes(t) for t in _objtext.float_rows(values))


def face_text(n, m):
    return b"".join(bytes(t) for t in _objtext.face_rows(n, m))


def json_reference(values):
    """json.dumps's nesting, each float as %.17g but zeros and non-finite
    values as json.dumps writes them."""
    def text(x):
        if isinstance(x, list):
            return "[" + ", ".join(text(y) for y in x) + "]"
        return "%.17g" % x if x and math.isfinite(x) else json.dumps(x)
    return text(values.tolist()).encode()


def json_text(values):
    return b"".join(bytes(t) for t in _objtext.json_array(values))


def assert_float_rows(values):
    values = np.asarray(values, dtype=float).reshape(-1, 3)
    got, want = float_text(values), float_reference(values)
    if got != want:  # name the first value that differs
        for row in values:
            one = row[None]
            assert float_text(one) == float_reference(one), row.tolist()
    assert got == want


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2 ** 64, 3 * 350_000,
                                              dtype=np.uint64)
    assert_float_rows(bits.view(np.float64))


def test_random_values_in_every_decade():
    rng = np.random.default_rng(21)
    x = rng.uniform(1.0, 10.0, 3 * 100_000) * 10.0 ** rng.integers(-13, 19, 3 * 100_000)
    assert_float_rows(x * rng.choice([-1.0, 1.0], x.size))


def powers_of_ten():
    """Every power of ten from 1e-330 to 1e308 and its neighbours up to
    8 ulps away, both signs."""
    p = np.array([float(f"1e{j}") for j in range(-330, 309)])
    bits = p.view(np.int64)[:, None] + np.arange(-8, 9)
    x = bits[bits > 0].view(np.float64)
    x = x[np.isfinite(x)]
    return np.concatenate([x, -x])


def test_powers_of_ten_and_neighbours():
    x = powers_of_ten()
    assert_float_rows(np.resize(x, -(-x.size // 3) * 3))


def test_no_double_in_range_rounds_up_to_a_power_of_ten():
    # N = 10^17 under the floor's k would take a double less than 5e-18
    # (relative) below a power of ten; the closest below each is further
    for j in range(_objtext._KMIN + 1, _objtext._KMAX + 2):
        power = Fraction(10) ** j
        below = float(power)
        if Fraction(below) >= power:
            below = np.nextafter(below, 0.0)
        assert (power - Fraction(below)) * 2 * 10 ** 17 > power
        assert_float_rows([below, -below, np.nextafter(below, 0.0)])


def halfway_cases():
    """Odd i / 2^j whose exact decimal expansion, the digits of i 5^j, has
    18 significant digits: %.17g must round them half to even."""
    rng = np.random.default_rng(22)
    i, j = [], []
    for e in range(1, 64):
        lo, hi = -(-10 ** 17 // 5 ** e), min((10 ** 18 - 1) // 5 ** e, 2 ** 53)
        if lo <= hi:
            i.append(rng.integers(lo // 2, (hi - 1) // 2 + 1, 600) * 2 + 1)
            j.append(np.full(600, e))
    i, j = np.concatenate(i), np.concatenate(j)
    return np.ldexp(i.astype(float), -j), [str(a * 5 ** b) for a, b in
                                            zip(i.tolist(), j.tolist())]


def test_halfway_cases_round_to_even():
    x, digits = halfway_cases()
    assert x.size >= 5000 and all(len(d) == 18 and d[-1] == "5" for d in digits)
    # ties go down to an even 17th digit and up from an odd one
    parity = {int(d[16]) % 2 for d in digits}
    assert parity == {0, 1}
    assert_float_rows(np.resize(np.concatenate([x, -x]), -(-2 * x.size // 3) * 3))


def edge_values():
    big = np.finfo(float).max
    tiny = np.finfo(float).tiny
    return np.array([
        0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, big, -big, np.inf, -np.inf,
        np.nan, -np.nan, 1e-11, np.nextafter(1e-11, 1), 1e17,
        np.nextafter(1e17, 0), 0.5, 1.0, 1e16, 9.999999999999999e16, 1e-7])


def test_edge_values():
    assert_float_rows(np.resize(edge_values(), 24))


def neighbours(x, ulps=4):
    """x and the doubles up to ulps apart, both ways."""
    return (np.float64(x).view(np.int64) + np.arange(-ulps, ulps + 1)).view(np.float64)


def test_decimal_matches_the_limb_product():
    # the two-product's N and k against the 128-bit limb product, next
    # to the ends of its range and in every decade between them
    rng = np.random.default_rng(26)
    x = np.concatenate([neighbours(_objtext._XMIN), neighbours(1e-6),
                        np.nextafter(1e17, 0.0) - np.arange(8) * 16.0,
                        rng.uniform(1.0, 10.0, 20_000)
                        * 10.0 ** rng.integers(-6, 17, 20_000)])
    x = x[(x >= _objtext._XMIN) & (x < 1e17)]
    got, want = _objtext._decimal(x), limb_decimal(x)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # the least double at or above 10^-6
    below = np.nextafter(_objtext._XMIN, 0.0)
    assert Fraction(below) < Fraction(1, 10 ** 6) <= Fraction(_objtext._XMIN)


def test_ends_of_the_numpy_range():
    # 10^-11 (the old lower end, now formatted by Python), 10^-6 (the
    # double 1e-6 is below it, and by Python) and 10^17 (by Python from
    # the double 1e17 on), each with its neighbours and both signs
    x = np.concatenate([neighbours(1e-11), neighbours(1e-6), neighbours(1e17)])
    x = np.concatenate([x, -x])
    assert_float_rows(x)
    assert json_text(x.reshape(-1, 6)) == json_reference(x.reshape(-1, 6))


def test_a_block_of_python_values_alone(monkeypatch):
    # blocks in which no value is numpy's: below 10^-6, subnormal, zero,
    # at or past 10^17 and non-finite
    x = np.array([9.999999999999999e-7, 1e-6, 3e-9, 1.5e-300, 5e-324, 0.0,
                  -0.0, 1e17, 2.5e200, np.inf, -np.inf, np.nan])
    for block in (3, 12, 8192):
        monkeypatch.setattr(_objtext, "BLOCK", block)
        assert_float_rows(x)
        assert json_text(x.reshape(4, 3)) == json_reference(x.reshape(4, 3))


def test_special_float_mesh():
    assert_float_rows(special_float_mesh().vertices)


@pytest.mark.parametrize("ncols", [1, 2, 5])
def test_any_row_width(ncols):
    # a row of one value, and rows wider than the OBJ's 3
    x = powers_of_ten()[: 400 * ncols].reshape(-1, ncols)
    assert float_text(x) == float_reference(x)


def test_ints():
    # the digit text of the face writer: runs of indices across 10^j, in
    # the fewest groups of four digits that hold them and in four groups;
    # an index of d digits is the last d bytes, after zeros
    for j in range(1, 16):
        for first in (10 ** j - 3, 10 ** j - 1, 10 ** j, 10 ** j + 1):
            i = np.arange(first, first + 4, dtype=np.uint64)
            narrow = -(-len(str(first + 3)) // 4)
            for count in sorted({narrow, 4}):
                text = _objtext._digits(i, count)
                assert text.shape == (4, 4 * count)
                for row, value in zip(text, i.tolist()):
                    digits = b"%d" % value
                    assert bytes(row) == digits.rjust(4 * count, b"0"), (value, count)


@pytest.mark.parametrize("n, m", [(2, 2), (4, 4), (11, 10), (40, 30),
                                  (101, 100), (7, 5), (1, 5), (5, 1), (12, 1000)])
def test_face_rows(monkeypatch, n, m):
    # vertex indices that cross 10, 100 and 1000 inside one block of
    # faces, and 10^4 inside the last of (101, 100), whose blocks of 20
    # grid rows hold vertex indices 8001..10100; (12, 1000) has blocks of
    # 2 grid rows, and the last quad of its grid row 8 has the corners
    # 8999, 9999, 10000 and 9000, one at 10^4 and three below; then blocks
    # of one grid row (the 1, 7 and 64 values end inside one) and of
    # several; grids of one row or one column have no faces
    assert face_text(n, m) == face_rows_reference(n, m)
    for block in (1, 7, 64, 1000):
        monkeypatch.setattr(_objtext, "BLOCK", block)
        assert face_text(n, m) == face_rows_reference(n, m), block


def assert_json_array(values):
    got = json_text(values)
    assert got == json_reference(values)
    # every value but nan reads back bit-exactly, as from json.dumps
    back = np.asarray(json.loads(got), dtype=float)
    nan = np.isnan(values)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.uint64), values[~nan].view(np.uint64))


def test_json_random_bit_patterns():
    bits = np.random.default_rng(24).integers(0, 2 ** 64, 40 * 50 * 3 * 2,
                                              dtype=np.uint64)
    assert_json_array(bits.view(np.float64).reshape(40, 50, 3, 2))


def test_json_powers_of_ten_and_neighbours():
    x = powers_of_ten()
    assert_json_array(x[: x.size // 30 * 30].reshape(-1, 10, 3))


def test_json_edge_values():
    # -0.0 is written -0.0: json.loads reads -0 as the integer 0
    assert json_text(np.array([[-0.0, 0.0]])) == b"[[-0.0, 0.0]]"
    assert (json_text(np.array([[np.nan, np.inf, -np.inf]]))
            == b"[[NaN, Infinity, -Infinity]]")
    assert json_text(np.zeros((0, 3, 3))) == b"[]"
    assert json_text(np.zeros((2, 0, 3))) == b"[[], []]"
    with pytest.raises(ValueError):
        json_text(np.zeros((1, 1, 1, 1, 1)))
    x = np.resize(edge_values(), 24)
    for shape in [(4, 6), (2, 4, 3), (2, 2, 3, 2), (24, 1, 1), (1, 1, 24)]:
        values = x.reshape(shape)
        assert json_text(values) == json_reference(values)


@pytest.mark.parametrize("shape", [(1, 1), (1, 1, 3), (1, 1, 3, 2), (1, 9, 3, 2),
                                   (9, 1, 3, 2), (5, 4, 3), (5, 4, 3, 2),
                                   (5, 4, 1)])
def test_json_block_boundaries(monkeypatch, shape):
    # blocks of one vertex, of part of a grid row, of exactly one grid row
    # (4 vertices of (5, 4, ...)), of more and of the whole array
    values = np.random.default_rng(25).standard_normal(shape)
    width = math.prod(shape[2:])
    for vertices in (1, 3, 4, 5, 8, 100):
        monkeypatch.setattr(_objtext, "BLOCK", vertices * width)
        assert_json_array(values)
