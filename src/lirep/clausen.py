"""Clausen-type trigonometric sums S_s(x) and C_s(x), three ways.

* direct truncated series with rigorous tail control,
* closed Bernoulli-polynomial forms at integer orders of matching parity,
* the Hurwitz-zeta reflection route.

The three routes are kept independent so they can cross-check each other.
"""

from __future__ import annotations

import cmath
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
    """S_s(x) and C_s(x) at one (s, x) point, or elementwise at an array of x."""

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


def _sin_half(x: float) -> float:
    """|sin(x/2)|, with x first reduced exactly to [-pi, pi]: zero on the
    2*pi lattice, and the distance the tail bounds of the series feel."""
    return abs(math.sin(0.5 * math.remainder(x, TWO_PI)))


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


def _unit_phases(x: np.ndarray, lo: int, n: int) -> np.ndarray:
    """e^{ikx} for k = lo+n-1 down to lo (rows) at every node of x (columns).

    The range splits into blocks of b ~ sqrt(n) terms; the outer product of
    e^{i(lo + jb)x} over the block starts and e^{imx}, m < b, within a block
    gives every term for one complex multiply instead of a sin and a cos.
    Each angle is rounded once as k*x would be, so the phase error per term
    stays that of the rounded k*x plus about 2 ulp."""
    b = math.isqrt(n - 1) + 1
    a = -(-n // b)
    inner = np.arange(b - 1, -1, -1, dtype=float)
    starts = np.arange(lo + (a - 1) * b, lo - 1, -b, dtype=float)
    angles = np.multiply.outer(np.concatenate((inner, starts)), x)
    unit = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=unit.real)
    np.sin(angles, out=unit.imag)
    return (unit[b:, None] * unit[None, :b]).reshape(a * b, -1)[a * b - n :]


def _block_sums(coeff: np.ndarray, x: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """(sin, cos) sums of coeff_k e^{ikx} over k = lo+n-1 down to lo, n =
    len(coeff), at every node of x: one set of phases and one product of the
    coefficients, as real rows (re, im), with the waves as real columns
    (cos, sin) per node."""
    n = len(coeff)
    waves = _unit_phases(x, lo, n).view(float)
    parts = np.dot(coeff.view(float).reshape(n, -1).T, waves)
    sums = np.zeros(waves.shape[1], dtype=complex)
    sums.real = parts[0]
    if len(parts) == 2:
        sums.imag = parts[1]
    return sums[1::2], sums[0::2]


#: Nodes whose truncation indices have the same bit length share blocks of
#: at most _BLOCK node-terms, so that a block's phase temporaries stay within
#: 2^15 complex values (512 KiB); a node of 2^14 terms or more is a block of
#: its own.
_BLOCK = 1 << 15


def _series_pair(s: complex, x, tol: float):
    """(S_s(x), C_s(x)) by truncated summation, at a scalar x or at every
    node of an array.

    Every node sums at least its own truncation index of terms, from the
    smallest up, which keeps the rounding of the running sum to a few ulp.
    Nodes whose truncation indices have the same bit length share blocks of
    at most _BLOCK node-terms: each block is summed to its largest index
    (less than twice any member's own) with one set of phases and one BLAS
    product. The terms go in chunks of _CHUNK, each chunk's coefficients
    computed once for every block."""
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    sin_sums = np.zeros(flat.shape, dtype=complex)
    cos_sums = np.zeros(flat.shape, dtype=complex)
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, xi in enumerate(flat.tolist()):
        sin_half = _sin_half(xi)
        if sin_half == 0.0:
            cos_sums[i] = riemann_zeta(s)
        else:
            terms = _truncation_index(s, sin_half, tol)
            classes.setdefault(terms.bit_length(), []).append((i, terms))
    blocks = []
    for bits, members in classes.items():
        size = max(1, _BLOCK >> bits)
        for j in range(0, len(members), size):
            idx, terms = zip(*members[j : j + size])
            blocks.append((list(idx), max(terms)))
    top = max((terms for _, terms in blocks), default=0)
    for lo in reversed(range(1, top + 1, _CHUNK)):
        rows = min(_CHUNK, top + 1 - lo)
        coeff = _inverse_powers(s, np.arange(lo + rows - 1, lo - 1, -1, dtype=float))
        for idx, terms in blocks:
            if terms >= lo:
                n = min(_CHUNK, terms + 1 - lo)
                sin_part, cos_part = _block_sums(coeff[-n:], flat[idx], lo)
                sin_sums[idx] += sin_part
                cos_sums[idx] += cos_part
        del coeff  # before the next chunk's
    if xs.ndim == 0:
        return complex(sin_sums[0]), complex(cos_sums[0])
    return sin_sums.reshape(xs.shape), cos_sums.reshape(xs.shape)


_REFLECTION_THRESHOLD = 1 << 20


def _pair_cheapest(s: complex, x, tol: float):
    """(S, C) at a scalar x or at every node of an array, all by one route.

    The planned series length only grows toward the 2*pi lattice, so the
    node nearest it decides: once its truncation index passes a work
    threshold (slow decay, or x drifting toward the lattice where both tail
    bounds explode) every node takes the O(1) Hurwitz reflection, and
    otherwise every node is summed directly. A node on the lattice, where
    the reflection is undefined, or an order within the exclusion window
    of an integer, where it is singular, sends the whole call to the
    series, which goes up to its hard cap before a node is out of reach.
    """
    xs = np.asarray(x, dtype=float)
    u = (xs / TWO_PI) % 1.0
    if np.all((0.0 < u) & (u < 1.0)):
        nearest = min(map(_sin_half, xs.ravel().tolist()))
        if _planned_terms(s, nearest, tol) > _REFLECTION_THRESHOLD:
            try:
                cv = clausen_via_hurwitz(s, u)
                return cv.sin_part, cv.cos_part
            except ExclusionError:
                pass
    return _series_pair(s, xs, tol)


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


def clausen_via_hurwitz(s, t) -> ClausenValue:
    """S_s(2*pi*t) and C_s(2*pi*t) through the Hurwitz zeta reflection, at a
    scalar t or at every entry of an array.

    S picks up csc(pi s/2) against zeta(1-s, t) - zeta(1-s, 1-t), C picks
    up sec(pi s/2) against the sum. Even integer s is excluded for the sin
    part and odd integer s for the cos part (the covering closed Bernoulli
    forms exist exactly there). Gamma(s), (2 pi)^s and the trigonometric
    factors are taken once per call, and both zeta values of every entry
    in one hurwitz_zeta call.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError(f"clausen_via_hurwitz requires Re s > 1, got {s}")
    ts = np.asarray(t, dtype=float)
    if not np.all((0.0 < ts) & (ts < 1.0)):
        raise DomainError("t must lie strictly inside (0, 1)")
    m = round(s.real)
    if m >= 2 and abs(s - m) < _EXCLUSION_WINDOW:
        channel, parity = ("sin", "even") if m % 2 == 0 else ("cos", "odd")
        raise ExclusionError(f"{channel} channel singular at s = {m} ({parity} integer order)")
    za, zb = hurwitz_zeta(1.0 - s, np.stack((ts, 1.0 - ts)))
    pref = TWO_PI**s / (4.0 * gamma_complex(s))
    half_pi_s = 0.5 * math.pi * s
    sin_part = pref / cmath.sin(half_pi_s) * (za - zb)
    cos_part = pref / cmath.cos(half_pi_s) * (za + zb)
    x = TWO_PI * ts
    if ts.ndim == 0:
        sin_part, cos_part, x = complex(sin_part), complex(cos_part), float(x)
    return ClausenValue(sin_part=sin_part, cos_part=cos_part, s=s, x=x)


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
