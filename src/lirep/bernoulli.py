"""Exact-rational Bernoulli numbers and Bernoulli polynomials.

Convention: B_1 = -1/2 (the generating function t*e^{tx}/(e^t - 1)).
Numbers are kept as Fractions and projected to binary64 only on demand,
which keeps the polynomial coefficients exact for any index the cap allows.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceLimitError

#: Largest index bernoulli_numbers will compute. float(B_n) starts to
#: overflow binary64 a little above 256, so the cap doubles as an overflow guard.
BERNOULLI_CAP = 256


@dataclass(frozen=True)
class BernoulliTable:
    """Immutable table of exact Bernoulli numbers B_0..B_max_index."""

    values: tuple[Fraction, ...]

    @property
    def max_index(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def as_float(self, n: int) -> float:
        return float(self.values[n])


def bernoulli_numbers(n_max: int) -> BernoulliTable:
    """B_0..B_n_max as exact rationals via the binomial recurrence.

    The recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 (n >= 1) is solved for
    B_n term by term, entirely in Fraction arithmetic.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > BERNOULLI_CAP:
        raise ResourceLimitError(f"n_max={n_max} exceeds the Bernoulli cap {BERNOULLI_CAP}")
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * values[j]
        values.append(-acc / (n + 1))
    return BernoulliTable(tuple(values))


_lock = threading.Lock()
_shared: BernoulliTable = bernoulli_numbers(32)
_poly_coeffs: dict[int, tuple[float, ...]] = {}


def _table_upto(n: int) -> BernoulliTable:
    global _shared
    if n > _shared.max_index:
        with _lock:
            if n > _shared.max_index:
                _shared = bernoulli_numbers(max(n, min(2 * _shared.max_index, BERNOULLI_CAP)))
    return _shared


def bernoulli_number(n: int) -> Fraction:
    """B_n from a shared, lazily grown table."""
    return _table_upto(n)[n]


def _poly_coefficients(n: int) -> tuple[float, ...]:
    """Float coefficients of B_n(x) in descending powers of x."""
    coeffs = _poly_coeffs.get(n)
    if coeffs is None:
        table = _table_upto(n)
        coeffs = tuple(float(Fraction(math.comb(n, k)) * table[k]) for k in range(n + 1))
        _poly_coeffs[n] = coeffs
    return coeffs


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
