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

import numpy as np

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


def bernoulli_numbers(n_max: int, cap: int = BERNOULLI_CAP) -> BernoulliTable:
    """B_0..B_n_max as exact rationals via the binomial recurrence.

    The recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 (n >= 1) is solved for
    B_n term by term, entirely in Fraction arithmetic.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > cap:
        raise ResourceLimitError(f"n_max={n_max} exceeds the Bernoulli cap {cap}")
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * values[j]
        values.append(-acc / (n + 1))
    return BernoulliTable(tuple(values))


_lock = threading.Lock()
_shared: BernoulliTable = bernoulli_numbers(32)
_poly_coeffs: dict[int, np.ndarray] = {}


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


def _poly_coefficients(n: int) -> np.ndarray:
    """Float coefficients of B_n(x) in descending powers of x."""
    coeffs = _poly_coeffs.get(n)
    if coeffs is None:
        table = _table_upto(n)
        coeffs = np.array(
            [float(Fraction(math.comb(n, k)) * table[k]) for k in range(n + 1)]
        )
        _poly_coeffs[n] = coeffs
    return coeffs


def bernoulli_poly(n: int, x):
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^{n-k}.

    Horner evaluation on the exact coefficient expansion. Accepts scalars
    (real or complex) and numpy arrays.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = _poly_coefficients(n)
    out = np.polyval(coeffs, x)
    if isinstance(x, np.ndarray):
        return out
    return complex(out) if np.iscomplexobj(out) else float(out)
