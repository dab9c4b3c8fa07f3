"""Clausen-type trigonometric sums S_s(x) and C_s(x), three ways.

* direct truncated series with rigorous tail control,
* closed Bernoulli-polynomial forms at integer orders of matching parity,
* the Hurwitz-zeta reflection route.

The three routes are kept independent so they can cross-check each other.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bernoulli import bernoulli_poly
from .errors import DomainError, ExclusionError, ResourceLimitError
from .special import _is_real_integer, gamma_complex, hurwitz_zeta, riemann_zeta

TWO_PI = 2.0 * math.pi

#: Hard cap on series length for the direct route.
SERIES_CAP = 1 << 25

_CHUNK = 1 << 21


@dataclass(frozen=True)
class ClausenValue:
    """S_s(x) and C_s(x) evaluated at one (s, x) point."""

    sin_part: complex
    cos_part: complex
    s: complex
    x: float


def _planned_terms(s: complex, sin_half: float, tol: float) -> float:
    """Terms needed for the tail bound to clear tol/2 (may be inf).

    Two rigorous bounds are available: the integral bound
    K^{1-sigma}/(sigma-1) (any x, needs sigma > 1) and the
    summation-by-parts bound |s|/sigma * K^{-sigma} / |sin(x/2)|
    (needs x off the 2*pi lattice, works for sigma > 0). The latter is
    what makes sigma near 1..2 affordable away from the lattice.
    """
    sigma = s.real
    half = 0.5 * tol
    k_int = math.inf
    if sigma > 1.0:
        k_int = (1.0 / ((sigma - 1.0) * half)) ** (1.0 / (sigma - 1.0))
    k_dir = math.inf
    if sin_half > 0.0:
        k_dir = (abs(s) / (sigma * half * sin_half)) ** (1.0 / sigma)
    return min(k_int, k_dir)


def _truncation_index(s: complex, sin_half: float, tol: float) -> int:
    k = _planned_terms(s, sin_half, tol)
    if not math.isfinite(k) or k >= SERIES_CAP:
        raise ResourceLimitError(
            f"Clausen series needs K~{k:.2e} terms at s={s}, x too close to the lattice"
        )
    return int(k) + 1


def _inverse_powers(s: complex, k: np.ndarray) -> np.ndarray:
    """k^{-s} elementwise; real orders take the real power."""
    return k ** (-s.real) if s.imag == 0.0 else np.exp(-s * np.log(k))


#: Longest k^{-s} table kept in the memo; longer Clausen series compute
#: their coefficients chunk by chunk.
_POWER_CAP = 1 << 16
_POWER_MIN = 1 << 10
_POWER_SLOTS = 8


@functools.lru_cache(maxsize=_POWER_SLOTS)
def _power_table(s: complex, size: int) -> np.ndarray:
    """Read-only k^{-s} for k = size down to 1, shared by every node of an
    order; its last n entries are the first n coefficients, smallest first.

    Sizes are powers of two from _POWER_MIN to _POWER_CAP, so the slots hold
    all the sizes one order can ask for."""
    table = _inverse_powers(s, np.arange(size, 0, -1, dtype=float))
    table.flags.writeable = False
    return table


def _unit_phases(x: float, lo: int, n: int) -> np.ndarray:
    """e^{ikx} for k = lo+n-1 down to lo, by angle addition.

    The range splits into blocks of b ~ sqrt(n) terms; the outer product of
    e^{i(lo + jb)x} over the block starts and e^{imx}, m < b, within a block
    gives every term for one complex multiply instead of a sin and a cos.
    Each angle is rounded once as k*x would be, so the phase error per term
    stays that of the rounded k*x plus about 2 ulp."""
    b = math.isqrt(n - 1) + 1
    a = -(-n // b)
    inner = np.arange(b - 1, -1, -1, dtype=float)
    starts = np.arange(lo + (a - 1) * b, lo - 1, -b, dtype=float)
    angles = np.concatenate((inner, starts)) * x
    unit = np.empty(a + b, dtype=complex)
    np.cos(angles, out=unit.real)
    np.sin(angles, out=unit.imag)
    return np.multiply.outer(unit[b:], unit[:b]).ravel()[a * b - n :]


def _series_pair(s: complex, x: float, tol: float) -> tuple[complex, complex]:
    """(S_s(x), C_s(x)) by truncated summation.

    Each chunk of terms is one product of the coefficients, as real rows
    (re, im), with the waves as real columns (cos, sin). The terms run from
    the smallest up, which keeps the rounding of the running sum to a few
    ulp. Series within _POWER_CAP terms read their coefficients from the
    memo."""
    r = math.remainder(x, TWO_PI)
    if r == 0.0:
        return 0.0 + 0.0j, riemann_zeta(s)
    terms = _truncation_index(s, abs(math.sin(0.5 * r)), tol)
    cos_sum = sin_sum = 0j
    for lo in reversed(range(1, terms + 1, _CHUNK)):
        n = min(_CHUNK, terms + 1 - lo)
        if terms <= _POWER_CAP:
            coeff = _power_table(s, max(_POWER_MIN, 1 << (terms - 1).bit_length()))[-n:]
        else:
            coeff = _inverse_powers(s, np.arange(lo + n - 1, lo - 1, -1, dtype=float))
        waves = _unit_phases(x, lo, n).view(float).reshape(n, 2)
        cos_parts, sin_parts = np.dot(coeff.view(float).reshape(n, -1).T, waves).T.tolist()
        cos_sum += complex(*cos_parts)
        sin_sum += complex(*sin_parts)
    return sin_sum, cos_sum


_REFLECTION_THRESHOLD = 1 << 20


def _pair_cheapest(s: complex, x: float, tol: float) -> tuple[complex, complex]:
    """(S, C) by whichever route is affordable at this point.

    Short series are summed directly; once the truncation index grows
    past a work threshold (slow decay, or x drifting toward the 2*pi
    lattice where both tail bounds explode) the O(1) Hurwitz reflection
    takes over. The reflection is unavailable only within the exclusion
    window of integer orders; there the series is used up to its hard
    cap, beyond which the point is genuinely out of reach.
    """
    u = (x / TWO_PI) % 1.0
    sin_half = abs(math.sin(0.5 * math.remainder(x, TWO_PI)))
    if 0.0 < u < 1.0 and _planned_terms(s, sin_half, tol) > _REFLECTION_THRESHOLD:
        try:
            cv = clausen_via_hurwitz(s, u)
            return cv.sin_part, cv.cos_part
        except ExclusionError:
            pass
    return _series_pair(s, x, tol)


def _bernoulli_parity(s: complex) -> str | None:
    """'sin' / 'cos' when s is a real integer whose parity admits a closed form."""
    if not _is_real_integer(s) or s.real < 1.0:
        return None
    return "sin" if int(s.real) % 2 == 1 else "cos"


def _two_pi_power_over_factorial(m: int) -> float:
    """(2pi)^m / m! from the exact rational of TWO_PI, rounded once (int / int
    is correctly rounded): m! overflows binary64 from m = 171, the quotient
    stays finite up to the Bernoulli cap."""
    num, den = TWO_PI.as_integer_ratio()
    return num**m / (den**m * math.factorial(m))


def _bernoulli_scale(order: int) -> float:
    """(-1)^(order//2 + 1) (2pi)^order / (2 order!), the factor in front of
    B_order(x / 2pi) in the closed forms of clausen_bernoulli."""
    return (-1.0) ** (order // 2 + 1) * _two_pi_power_over_factorial(order) / 2.0


def _bernoulli_weight(order: int):
    """t -> S_order(2 pi t) for odd order, C_order(2 pi t) for even order."""
    scale = _bernoulli_scale(order)

    def weight(t):
        return scale * bernoulli_poly(order, t)

    return weight


def clausen_bernoulli(channel: str, order: int, x: float) -> float:
    """Closed form for S_order (channel 'sin', odd order) or C_order ('cos', even).

    S_{2n-1}(x) = (-1)^n   (2pi)^{2n-1} / (2 (2n-1)!) * B_{2n-1}(x / 2pi)
    C_{2n}(x)   = (-1)^{n-1} (2pi)^{2n} / (2 (2n)!)   * B_{2n}(x / 2pi)

    Valid on x in [0, 2pi]; order 1 additionally excludes the endpoints,
    where the underlying Fourier expansion fails.
    """
    if order < 1:
        raise DomainError("order must be >= 1")
    if not 0.0 <= x <= TWO_PI:
        raise DomainError(f"x={x:g} outside [0, 2*pi]")
    if channel == "sin":
        if order % 2 == 0:
            raise DomainError("sin channel has a Bernoulli form only for odd order")
        if order == 1 and (x == 0.0 or x == TWO_PI):
            raise DomainError("S_1 closed form requires 0 < x < 2*pi")
    elif channel == "cos":
        if order % 2 == 1:
            raise DomainError("cos channel has a Bernoulli form only for even order")
    else:
        raise ValueError(f"unknown channel {channel!r}")
    return _bernoulli_weight(order)(x / TWO_PI)


def clausen_direct(s, x: float, tol: float = 1e-12) -> ClausenValue:
    """S_s(x) and C_s(x) for Re s > 1 by direct summation, each part within tol."""
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError(f"clausen_direct requires Re s > 1, got {s}")
    sin_part, cos_part = _series_pair(s, x, tol)
    return ClausenValue(sin_part=sin_part, cos_part=cos_part, s=s, x=x)


_EXCLUSION_WINDOW = 1e-8


def clausen_via_hurwitz(s, t: float) -> ClausenValue:
    """S_s(2*pi*t) and C_s(2*pi*t) through the Hurwitz zeta reflection.

    S picks up csc(pi s/2) against zeta(1-s, t) - zeta(1-s, 1-t), C picks
    up sec(pi s/2) against the sum. Even integer s is excluded for the sin
    part and odd integer s for the cos part (the covering closed Bernoulli
    forms exist exactly there).
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError(f"clausen_via_hurwitz requires Re s > 1, got {s}")
    if not 0.0 < t < 1.0:
        raise DomainError("t must lie strictly inside (0, 1)")
    m = round(s.real)
    if m >= 2 and abs(s - m) < _EXCLUSION_WINDOW:
        channel, parity = ("sin", "even") if m % 2 == 0 else ("cos", "odd")
        raise ExclusionError(f"{channel} channel singular at s = {m} ({parity} integer order)")
    za = hurwitz_zeta(1.0 - s, t)
    zb = hurwitz_zeta(1.0 - s, 1.0 - t)
    pref = TWO_PI**s / (4.0 * gamma_complex(s))
    half_pi_s = 0.5 * math.pi * s
    sin_part = pref / cmath.sin(half_pi_s) * (za - zb)
    cos_part = pref / cmath.cos(half_pi_s) * (za + zb)
    return ClausenValue(sin_part=sin_part, cos_part=cos_part, s=s, x=TWO_PI * t)


def chebyshev_T(m: int, x: float) -> float:
    """Chebyshev polynomial of the first kind by three-term recurrence."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 1.0
    prev, cur = 1.0, x
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur
