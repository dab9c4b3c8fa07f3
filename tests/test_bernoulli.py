import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lirep import BERNOULLI_CAP, ResourceLimitError, bernoulli_numbers, bernoulli_poly
from lirep import bernoulli as bernoulli_mod
from lirep.bernoulli import _poly_magnitude, bernoulli_number

from oracles import bernoulli_exact, bernoulli_poly_exact


def test_first_values():
    table = bernoulli_numbers(4)
    assert table[0] == 1
    assert table[1] == Fraction(-1, 2)
    assert table[2] == Fraction(1, 6)
    assert table[3] == 0
    assert table[4] == Fraction(-1, 30)


def test_single_entry_table():
    assert bernoulli_numbers(0) == (Fraction(1),)


def test_odd_indices_vanish():
    table = bernoulli_numbers(33)
    for k in range(1, 17):
        assert table[2 * k + 1] == 0


def test_recurrence_exact_to_64():
    table = bernoulli_numbers(64)
    for n in range(1, 65):
        acc = sum(math.comb(n + 1, j) * table[j] for j in range(n + 1))
        assert acc == 0


def test_matches_akiyama_tanigawa():
    table = bernoulli_numbers(30)
    assert list(table) == bernoulli_exact(30)


def test_cap_enforced():
    with pytest.raises(ResourceLimitError):
        bernoulli_numbers(BERNOULLI_CAP + 1)


def test_shared_table_grows_up_to_the_cap(monkeypatch):
    # from a fresh list: B_150, then B_200 on top of it, then past the cap
    monkeypatch.setattr(bernoulli_mod, "_values", [Fraction(1)])
    bernoulli_number(150)
    assert bernoulli_number(200) == bernoulli_numbers(200)[200]
    with pytest.raises(ResourceLimitError):
        bernoulli_number(BERNOULLI_CAP + 1)


def test_poly_past_the_cap_names_the_cap():
    # float(C(300, k) B_k) overflows at some k below the cap; the cap error
    # must come first
    with pytest.raises(ResourceLimitError, match="Bernoulli cap"):
        bernoulli_poly(300, 0.5)


def test_negative_index_rejected():
    with pytest.raises(ValueError, match="n must be >= 0"):
        bernoulli_number(-1)


def test_poly_degree_zero():
    assert bernoulli_poly(0, 0.7) == 1.0


def test_poly_half_argument_b2():
    # B_2(1/2) = (2^{-1} - 1) B_2 = -1/12
    assert bernoulli_poly(2, 0.5) == pytest.approx(-1.0 / 12.0, abs=1e-15)


def test_poly_against_exact_rational():
    for n in (1, 2, 3, 5, 8, 12):
        for x in (Fraction(1, 4), Fraction(7, 10), Fraction(-3, 8)):
            expected = float(bernoulli_poly_exact(n, x))
            assert bernoulli_poly(n, float(x)) == pytest.approx(expected, abs=1e-13)


def test_poly_half_identity_to_20():
    # B_n(1/2) = (2^{1-n} - 1) B_n, to 4 ulp of the Horner evaluation scale
    # (the odd-n values are exact zeros reached by cancellation, so "ulp"
    # has to be measured against the summands, not the result)
    for n in range(21):
        lhs = bernoulli_poly(n, 0.5)
        rhs = (2.0 ** (1 - n) - 1.0) * float(bernoulli_number(n))
        scale = sum(
            abs(float(math.comb(n, k) * bernoulli_number(k))) * 0.5 ** (n - k)
            for k in range(n + 1)
        )
        assert lhs == pytest.approx(rhs, abs=4 * 2.3e-16 * max(scale, 1e-30))


@given(
    n=st.integers(min_value=0, max_value=12),
    x=st.floats(min_value=0.05, max_value=0.95),
)
def test_poly_reflection(n, x):
    # B_n(1 - x) = (-1)^n B_n(x)
    lhs = bernoulli_poly(n, 1.0 - x)
    rhs = (-1.0) ** n * bernoulli_poly(n, x)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-14)


def test_poly_complex_argument():
    z = 0.3 + 0.4j
    expected = z * z - z + Fraction(1, 6)  # B_2(x) = x^2 - x + 1/6
    assert bernoulli_poly(2, z) == pytest.approx(complex(expected), abs=1e-15)


def test_scalar_path_against_array_and_exact():
    # Scalars and arrays run the same Horner loop; Python and numpy complex
    # products may round differently. Both stay within Horner's bound
    # (2n + 1) eps sum |c_k| |x|^{n-k} of the exact value at these dyadic
    # (exactly representable) points.
    numbers = bernoulli_exact(12)
    points = (0.375, -1.25, 0.8125 + 0.375j, 0.5 - 0.3125j, -1.125 + 1.75j)
    for n in range(1, 13):
        coeffs = [math.comb(n, k) * numbers[k] for k in range(n + 1)]
        for x in points:
            re, im = Fraction(x.real), Fraction(x.imag)
            exact_re = exact_im = Fraction(0)
            for c in coeffs:
                exact_re, exact_im = exact_re * re - exact_im * im + c, exact_re * im + exact_im * re
            exact = complex(float(exact_re), float(exact_im))
            magnitude = sum(abs(float(c)) * abs(x) ** (n - k) for k, c in enumerate(coeffs))
            assert _poly_magnitude(n, abs(x)) == pytest.approx(magnitude, rel=1e-14)
            bound = (2 * n + 1) * 2.0**-52 * magnitude
            scalar = bernoulli_poly(n, x)
            array = bernoulli_poly(n, np.array([x]))[0]
            assert type(scalar) is type(x)
            assert abs(scalar - exact) <= bound, (n, x)
            assert abs(array - exact) <= bound, (n, x)
            if isinstance(x, float):
                assert scalar == array
