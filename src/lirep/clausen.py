"""Clausen-type trigonometric sums S_s(x) and C_s(x), three ways.

* direct truncated series with rigorous tail control,
* closed Bernoulli-polynomial forms at integer orders of matching parity,
* the Hurwitz-zeta reflection route.

The three routes are kept independent so they can cross-check each other.
The kernel routes' weights take a fourth, _expansion_pair, the expansion of
Li_s(e^iy) about y = 0, wherever its own error bound allows, and one of
the series or the reflection elsewhere (_pair_cheapest).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .bernoulli import bernoulli_poly
from .errors import DomainError, ExclusionError, ResourceLimitError
from .quadrature import _EPS, gauss_kronrod_panel
from .special import (
    _is_real_integer,
    _sin_pi,
    _zeta_scaled,
    gamma_complex,
    hurwitz_zeta,
    riemann_zeta,
)

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


def _stated_ulps(w):
    """Relative accuracy, in units of eps, that the expansion's bound takes
    for riemann_zeta(w) and gamma_complex(w) at the w it uses them (s − k
    and 1 − s, Re s > 1), and for _sin_pi(w / 2): 32 + 8 |w|, since the
    powers and exponentials inside round in proportion to |w|.
    tests/test_clausen.py checks it against mpmath."""
    return 32.0 + 8.0 * abs(w)


class _ZetaTable:
    """The expansion's coefficients at one order s, one array of rows grown
    as calls ask: row j holds (−1)^j ζ(s−2j)/(2j)! of y^(2j) in C and
    (−1)^j ζ(s−2j−1)/(2j+1)! of |y|^(2j+1) in S as (re, im), a bound on the
    error of each in units of eps, and their moduli. A row always holds
    both entries, so no row depends on the lengths asked for before. And
    the pole pair Γ(1 − s) cos(πs/2), Γ(1 − s) sin(πs/2) of S and C, with
    the eps-multiples bounding the error of a pole term of size 1
    (`pole_ulps`, plus `pole_log_ulps` times |log |y||). And
    `pole_panel_error`, the estimate that the quadrature's panel rule
    (gauss_kronrod_panel) gives for x^(s−1) on [0, 1]: on [0, h] a pole
    term P x^(s−1) gets |P| h^(Re s) times it."""

    def __init__(self, s: complex):
        self.s = s
        gamma = gamma_complex(1.0 - s)
        self.pole = (gamma * _sin_pi(0.5 - 0.5 * s), gamma * _sin_pi(0.5 * s))
        size = abs(self.pole[0]) + abs(self.pole[1])
        # Γ(1 − s), sin or cos(πs/2), |y|^(σ−1) and the final products and
        # sums; the phase t log|y| of |y|^(s−1) carries |s − 1| |log |y|| eps
        self.pole_ulps = (_stated_ulps(1.0 - s) + _stated_ulps(s) + 4.0) * size
        self.pole_log_ulps = 2.0 * abs(s - 1.0) * size
        self.pole_panel_error = gauss_kronrod_panel(lambda x: x ** (s - 1.0), 0.0, 1.0)[1]
        self._rows = np.empty((0, 8))
        self._lock = threading.Lock()

    def _entry(self, k: int) -> tuple[complex, float]:
        """(−1)^(k//2) ζ(s − k)/k!, and a bound on its error in units of eps."""
        w = self.s - k
        zeta, scale = _zeta_scaled(w)
        # in the critical strip zeta has zeros, next to which its rounding
        # is relative to the alternating sum's terms, not to |zeta|
        ulps = _stated_ulps(w) * (scale if 0.0 < w.real < 1.0 else abs(zeta))
        if abs(w.real) > self.s.real:
            # w is s − k rounded, by up to eps |w| / 2. The functional
            # equation gives ζ'(w) = ζ(w) [log 2π − ψ(1−w) − ζ'/ζ(1−w)]
            # + (π/2) cos(πw/2) 2^w π^(w−1) Γ(1−w) ζ(1−w), the bracket
            # below 5 + log(1 + |w|) at Re(1 − w) > 2; the second
            # part keeps its size next to the trivial zeros of ζ.
            x = 1.0 - w.real
            free = 2.0 * TWO_PI ** (w.real - 1.0) * abs(gamma_complex(1.0 - w)) * x / (x - 1.0)
            slope = (5.0 + math.log1p(abs(w))) * abs(zeta) + 0.5 * math.pi * abs(_sin_pi(0.5 - 0.5 * w)) * free
            ulps += 0.5 * abs(w) * slope
        factorial = math.factorial(k)
        return (-zeta if k // 2 % 2 else zeta) / factorial, ulps / factorial

    def columns(self, n: int) -> np.ndarray:
        """The first ceil(n/2) rows, which hold the first n entries."""
        count = -(-n // 2)
        with self._lock:
            if len(self._rows) < count:
                entries = [self._entry(k) for k in range(2 * len(self._rows), 2 * count)]
                coeff, ulps = (np.array(part).reshape(-1, 2) for part in zip(*entries))
                new = np.column_stack((coeff.view(float), ulps, np.abs(coeff)))
                self._rows = np.concatenate((self._rows, new))
            return self._rows[:count]

    def terms(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The first n entries ζ(s − k)/k!, and their error bounds in units of eps."""
        rows = self.columns(n)
        sign = np.where(np.arange(len(rows)) % 2, -1.0, 1.0)[:, None]
        return (sign * rows[:, :4]).view(complex).ravel()[:n], rows[:, 4:6].ravel()[:n]


#: Orders whose tables are kept, least recently used evicted first; polylog
#: keeps panel memos for as many.
_TABLE_SLOTS = 16


@functools.lru_cache(maxsize=_TABLE_SLOTS)
def _zeta_table(s: complex) -> _ZetaTable:
    return _ZetaTable(s)


#: Most table entries one call may ask for. gamma_complex raises its
#: argument to about its own power, which leaves binary64 near Γ(141): the
#: cap keeps Γ(1 − s) and the Γ(k + 1 − s) inside ζ(s − k) below that at
#: moderate |Im s|, and an OverflowError past it declines the call.
_EXPANSION_CAP = 128


def _expansion_terms(s: complex, r: float, budget: float) -> int | None:
    """Table entries that leave a truncation tail of at most budget at
    |y| = 2 pi r, r <= 1/2; None past _EXPANSION_CAP.

    For k > Re s the functional equation bounds each omitted term,
    |ζ(s−k)| |y|^k/k! <= 2 (2π)^(σ−1) cosh(π|Im s|/2) ζ(x) Γ(x)/k! r^k,
    x = k + 1 − σ, with ζ(x) <= x/(x − 1). Each bound is (x^2 − 1)/(x (k+1))
    r, at most r, times the one before, so the tail from k on is at most
    the k-th bound over 1 − r."""
    if r == 0.0:
        return 1
    sigma, v = s.real, 0.5 * math.pi * abs(s.imag)
    log_r = math.log(r)
    k = math.floor(sigma) + 1
    x = k + 1.0 - sigma
    log_bound = (
        math.log(2.0 / budget)
        + (sigma - 1.0) * math.log(TWO_PI)
        + v + math.log1p(math.exp(-2.0 * v)) - math.log(2.0)  # log cosh v
        - math.log1p(-r)
        + math.log(x / (x - 1.0)) + math.lgamma(x) - math.lgamma(k + 1.0) + k * log_r
    )
    while log_bound > 0.0:
        if k >= _EXPANSION_CAP:
            return None
        log_bound += math.log((x * x - 1.0) / (x * (k + 1.0))) + log_r
        k += 1
        x += 1.0
    return k


def _expansion_pair(s: complex, x, tol: float):
    """(S_s(x), C_s(x)) at a scalar x or at every node of an array from the
    expansion Li_s(e^μ) = Γ(1−s)(−μ)^(s−1) + Σ_k ζ(s−k) μ^k/k! at μ = ±iy,
    or None where its bound exceeds tol/2.

    With y = x folded exactly into [-pi, pi],
      C = Γ(1−s) sin(πs/2) |y|^(s−1) + Σ_j (−1)^j ζ(s−2j) y^(2j)/(2j)!,
      S = sgn(y) [Γ(1−s) cos(πs/2) |y|^(s−1) + Σ_j (−1)^j ζ(s−2j−1) |y|^(2j+1)/(2j+1)!],
    the two sums one product of the powers of y^2 with the order's table.
    The bound has two halves of tol/4: the truncation tail at the largest
    |y| (_expansion_terms), and the rounding, eps times Σ|terms| at each
    node, the pole pair included, each term weighted by the bound on its
    error. Orders with Re s <= 1 and integer orders are declined outright;
    the bound declines orders near an integer, where the pole pair cancels
    the pole of one ζ(s − k), and large |Im s|, where the table grows long
    and its terms large. The pole pair is checked first, so that a
    declined near-integer order computes no table entries.
    """
    if s.real <= 1.0 or _is_real_integer(s):
        return None
    xs = np.asarray(x, dtype=float)
    y = np.array([math.remainder(v, TWO_PI) for v in xs.ravel().tolist()])
    ay = np.abs(y)
    n = _expansion_terms(s, float(ay.max()) / TWO_PI, 0.25 * tol)
    if n is None:
        return None
    log_y = np.log(np.where(ay > 0.0, ay, 1.0))
    mag = ay ** (s.real - 1.0)
    try:
        table = _zeta_table(s)
        rounding = _EPS * mag * (table.pole_ulps + table.pole_log_ulps * np.abs(log_y))
        if rounding.max() > 0.25 * tol:
            return None
        columns = table.columns(n)
    except OverflowError:  # Γ(1 − s) or a ζ(s − k) past binary64
        return None
    sums = np.dot(np.power.outer(ay * ay, np.arange(len(columns))), columns)
    # the entries' own errors, and the n + 4 ulp the powers and product add
    n = 2 * len(columns)
    rounding += _EPS * (sums[:, 4] + ay * sums[:, 5] + (n + 4) * (sums[:, 6] + ay * sums[:, 7]))
    if rounding.max() > 0.25 * tol:
        return None
    pole_sin, pole_cos = table.pole
    power = mag if s.imag == 0.0 else mag * np.exp(1j * s.imag * log_y)
    cos_part = pole_cos * power + (sums[:, 0] + 1j * sums[:, 1])
    sin_part = np.sign(y) * (pole_sin * power + ay * (sums[:, 2] + 1j * sums[:, 3]))
    if xs.ndim == 0:
        return complex(sin_part[0]), complex(cos_part[0])
    return sin_part.reshape(xs.shape), cos_part.reshape(xs.shape)


_REFLECTION_THRESHOLD = 1 << 20


def _pair_cheapest(s: complex, x, tol: float):
    """(S, C) at a scalar x or at every node of an array, all by one route.

    The expansion about the lattice comes first, wherever its own bound
    holds for the whole call (_expansion_pair). Otherwise the planned
    series length only grows toward the 2*pi lattice, so the
    node nearest it decides: once its truncation index passes a work
    threshold (slow decay, or x drifting toward the lattice where both tail
    bounds explode) every node takes the O(1) Hurwitz reflection, and
    otherwise every node is summed directly. A node on the lattice, where
    the reflection is undefined, or an order within the exclusion window
    of an integer, where it is singular, sends the whole call to the
    series, which goes up to its hard cap before a node is out of reach.
    """
    xs = np.asarray(x, dtype=float)
    pair = _expansion_pair(s, xs, tol)
    if pair is not None:
        return pair
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
    m = operator.index(m)  # a numpy integer would wrap num**m around in int64
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
