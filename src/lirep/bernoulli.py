"""Exact-rational Bernoulli numbers and Bernoulli polynomials.

Convention: B_1 = -1/2 (the generating function t*e^{tx}/(e^t - 1)).
Numbers are kept as Fractions and projected to binary64 only on demand,
which keeps the polynomial coefficients exact for any index the cap allows.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction

from .errors import ResourceLimitError

#: Largest index bernoulli_numbers will compute. float(B_n) starts to
#: overflow binary64 a little above 256, so the cap doubles as an overflow guard.
BERNOULLI_CAP = 256

_lock = threading.Lock()
#: B_0..B_{len-1}, shared by every caller; only bernoulli_number appends,
#: under _lock, so each B_k is computed once per process.
_values: list[Fraction] = [Fraction(1)]


def _check_cap(n: int) -> None:
    """Raise the cap's ResourceLimitError for an index past BERNOULLI_CAP."""
    if n > BERNOULLI_CAP:
        raise ResourceLimitError(f"n_max={n} exceeds the Bernoulli cap {BERNOULLI_CAP}")


def bernoulli_number(n: int) -> Fraction:
    """B_n as an exact rational, from the binomial recurrence.

    The recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0 (k >= 1) is solved for
    B_k term by term, entirely in Fraction arithmetic, for every k the
    shared list does not hold yet.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_cap(n)
    if n >= len(_values):
        with _lock:
            for k in range(len(_values), n + 1):
                acc = Fraction(0)
                for j in range(k):
                    acc += math.comb(k + 1, j) * _values[j]
                _values.append(-acc / (k + 1))
    return _values[n]


def bernoulli_numbers(n_max: int) -> tuple[Fraction, ...]:
    """B_0..B_n_max as exact rationals."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    bernoulli_number(n_max)
    return tuple(_values[: n_max + 1])


@functools.cache
def _poly_coefficients(n: int) -> tuple[float, ...]:
    """Float coefficients of B_n(x) in descending powers of x.

    B_0..B_n are fetched first, so that past the cap the cap's error comes
    before float(C(n, k) B_k) overflows, as it does from n = 259.
    """
    return tuple(float(math.comb(n, k) * b) for k, b in enumerate(bernoulli_numbers(n)))


def bernoulli_poly(n: int, x):
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^{n-k}.

    Horner evaluation on the exact coefficient expansion. Accepts scalars
    (real or complex) and numpy arrays: the loop is np.polyval's, without
    its per-call conversions.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = 0.0
    for c in _poly_coefficients(n):
        acc = acc * x + c
    return acc


def _poly_magnitude(n: int, r: float) -> float:
    """sum_k |C(n,k) B_k| r^{n-k}, by the same Horner loop.

    The rounding of bernoulli_poly(n, x) at |x| = r is at most
    (2n + 1) eps times this, to first order: Horner's bound (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 5.1) with
    sqrt(5) u per complex product, plus the rounding of the coefficients.
    At 0 <= Re x <= 1 it reaches 1.3 eps times this at n = 11.
    """
    acc = 0.0
    for c in _poly_coefficients(n):
        acc = acc * r + abs(c)
    return acc
