"""Gamma and zeta functions on the complex plane.

Binary64 work with published coefficient sets; no external
special-function dependency. hurwitz_zeta also takes an array of shifts.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .bernoulli import bernoulli_number
from .errors import DomainError, PoleError

# Lanczos approximation, Godfrey's 15-coefficient set with g = 607/128.
# Roughly 1e-15 relative accuracy on the real axis, ~1e-13 over the
# half-plane we use it on.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_real_integer(s: complex) -> bool:
    return s.imag == 0.0 and s.real == math.floor(s.real)


def _sin_pi(w: complex) -> complex:
    """sin(pi w), with Re w first reduced exactly to the nearest integer m:
    (-1)^m sin(pi (w - m)). Rounding pi w instead would cost the zeros of
    sin(pi w) their relative accuracy, |w| eps / |w - m| of it."""
    m = round(w.real)
    value = cmath.sin(math.pi * (w - m))
    return -value if m % 2 else value


def gamma_complex(s) -> complex:
    """Gamma function for complex argument (Lanczos, reflection for Re s < 0.5)."""
    s = complex(s)
    if _is_real_integer(s) and s.real <= 0.0:
        raise PoleError(f"gamma has a pole at s={s.real:g}")
    if s.real < 0.5:
        return math.pi / (_sin_pi(s) * gamma_complex(1.0 - s))
    z = s - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + k)
    w = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * w ** (z + 0.5) * cmath.exp(-w) * acc


def _cvz_weights(n: int) -> np.ndarray:
    """The weights c_k / d, k < n, of the Cohen-Rodriguez Villegas-Zagier
    (2000) accelerated alternating sum, each rounded once from its exact
    rational: d = T_n(3), a Chebyshev value, is an integer."""
    d, t = 1, 3  # T_j(3) and T_{j+1}(3), T_{j+2} = 6 T_{j+1} - T_j
    for _ in range(n):
        d, t = t, 6 * t - d
    b, c = Fraction(-1), Fraction(-d)
    weights = []
    for k in range(n):
        c = b - c
        weights.append(float(c / d))
        b = b * 2 * (k + n) * (k - n) / ((2 * k + 1) * (k + 1))
    return np.array(weights)


#: The error of the accelerated sum shrinks like (3 + sqrt 8)^-n, so 48
#: weights leave enormous headroom in binary64.
_ETA_WEIGHTS = _cvz_weights(48)
_ETA_BASES = np.arange(1.0, len(_ETA_WEIGHTS) + 1.0)


def _eta_cvz(s: complex) -> tuple[complex, float]:
    """Alternating zeta sum_{k>=1} (-1)^{k-1} k^{-s}, accelerated, and the
    sum of the moduli of its terms. The real and imaginary parts are each
    summed by fsum, so the terms' own rounding is all the sum carries."""
    terms = _ETA_WEIGHTS * _power(_ETA_BASES, -s)
    eta = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return eta, float(np.abs(terms).sum())


def _expm1(w: complex) -> complex:
    """e^w - 1 without the cancellation of forming e^w first."""
    if w.imag == 0.0:
        return complex(math.expm1(w.real))
    half = math.sin(0.5 * w.imag)
    return complex(
        math.expm1(w.real) * math.cos(w.imag) - 2.0 * half * half,
        math.exp(w.real) * math.sin(w.imag),
    )


#: Past this |Im s| the accelerated eta sum loses digits (1.7e-7 relative
#: at 0.5+50i, 6e-4 at 1.5+80i) and riemann_zeta takes hurwitz_zeta(s, 1).
_ETA_IMAG_MAX = 30.0

#: Cancellation sum |terms| / |eta| past which riemann_zeta looks for an eta zero.
_ETA_CANCELLATION = 64.0


def riemann_zeta(s) -> complex:
    """Riemann zeta: for Re s > 0 the accelerated alternating series over
    1 - 2^(1-s), or hurwitz_zeta(s, 1) where that quotient loses digits.

    Re s <= 0 is reached through the functional equation. s = 1 is a pole.
    """
    return _zeta_scaled(s)[0]


def _zeta_scaled(s) -> tuple[complex, float]:
    """riemann_zeta(s), and the size its rounding is relative to: on the
    alternating series' path the sum of the moduli of its terms over
    |1 - 2^(1-s)|, which stays put where zeta itself vanishes; on the
    other paths |zeta(s)|."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has a simple pole at s = 1")
    if s.real > 0.0:
        if abs(s.imag) <= _ETA_IMAG_MAX:
            eta, size = _eta_cvz(s)
            denom = -_expm1((1.0 - s) * math.log(2.0))  # 1 - 2^(1-s), also near s = 1
            # Next to an eta zero, s = 1 + 2 pi i j / log 2 (j != 0), the sum
            # cancels by more than the limit and zeta (size / |zeta|) by less
            # than half of it: the quotient would amplify rounding that
            # hurwitz_zeta lacks. Near s = 1 or a zero of zeta it is better.
            limit = _ETA_CANCELLATION * abs(eta)
            if size <= limit or 2.0 * size * abs(denom) > limit:
                return eta / denom, size / abs(denom)
        zeta = hurwitz_zeta(s, 1.0)
        return zeta, abs(zeta)
    if s == 0.0:
        return complex(-0.5), 0.5
    zeta = (
        2.0**s
        * math.pi ** (s - 1.0)
        * _sin_pi(0.5 * s)
        * gamma_complex(1.0 - s)
        * riemann_zeta(1.0 - s)
    )
    return zeta, abs(zeta)


#: Bernoulli corrections in the Euler-Maclaurin tail of hurwitz_zeta.
_HURWITZ_CORRECTIONS = 12
#: B_2j / (2j)! for j = 1.._HURWITZ_CORRECTIONS.
_HURWITZ_COEFFS = tuple(
    float(bernoulli_number(2 * j)) / math.factorial(2 * j)
    for j in range(1, _HURWITZ_CORRECTIONS + 1)
)
#: j = 1.._HURWITZ_CORRECTIONS as a column, one correction per row.
_CORRECTION_INDEX = np.arange(1.0, _HURWITZ_CORRECTIONS + 1.0)[:, None]


def _power(base: np.ndarray, p: complex) -> np.ndarray:
    """base**p elementwise, Re base > 0, with the modulus taken as a real
    power: exp(p log base) would carry the rounding of p log base,
    |p log base| eps relative, into every term."""
    if base.dtype.kind == "c":
        mod, arg = np.abs(base), np.angle(base)
        mag = mod**p.real * np.exp(-p.imag * arg)
        phase = p.imag * np.log(mod) + p.real * arg
    else:
        mag = base**p.real
        phase = p.imag * np.log(base)
    out = np.empty(base.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    out *= mag
    return out


def _sum2(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis as if in twice the working precision: the
    running sums in order, plus the exact rounding error of each addition
    by Knuth's TwoSum (Ogita, Rump and Oishi's Sum2)."""
    run = np.cumsum(rows, axis=0)
    prev, new = run[:-1], run[1:]
    back = new - prev
    err = (prev - (new - back)) + (rows[1:] - back)
    return run[-1] + err.sum(axis=0)


def hurwitz_zeta(s, a):
    """Hurwitz zeta sum_{k>=0} (k+a)^{-s}, continued past Re s <= 1, at a
    scalar a (returns a complex) or at every entry of an array.

    Euler-Maclaurin: partial sum to a shift N, then the integral term,
    the half term, and _HURWITZ_CORRECTIONS Bernoulli corrections, all
    summed by Sum2. Requires Re a > 0; accuracy on the supported region is
    ~1e-11 relative or better (the most cancellation-prone cases are
    Re s < 0 with small a). Each entry's value takes the same operations
    whatever the array around it.
    """
    s = complex(s)
    a = np.asarray(a)
    if a.dtype.kind == "c" and not a.imag.any():
        a = a.real
    a = a.astype(complex if a.dtype.kind == "c" else float)
    flat = a.ravel()
    bad = flat.real <= 0.0
    if bad.any():
        first = complex(flat[bad][0])
        if _is_real_integer(first):
            raise DomainError(f"hurwitz_zeta undefined at a={first.real:g}")
        raise DomainError("hurwitz_zeta requires Re a > 0")
    if s == 1.0:
        raise PoleError("hurwitz_zeta has a simple pole at s = 1")
    # Large shifts sharpen the corrections but feed cancellation when
    # Re s < 0 (the partial sum grows like N^{1-Re s}); keep N small there.
    if s.real >= 0.0:
        shift = max(10, math.ceil(abs(s)) + 10)
    else:
        shift = max(6, math.ceil(abs(s)) + 2)
    base = np.add.outer(np.arange(shift + 1.0), flat)  # k + a, k <= N; w = N + a last
    powers = _power(base, -s)
    w, w_pow = base[shift], powers[shift]
    rows = np.empty((shift + 2 + _HURWITZ_CORRECTIONS, flat.size), dtype=complex)
    rows[:shift] = powers[:shift]
    # divided as Python divides complex numbers: numpy multiplies by a rounded
    # reciprocal, one more rounding of the largest term
    rows[shift] = [v / (s - 1.0) for v in _power(w, 1.0 - s).tolist()]
    rows[shift + 1] = 0.5 * w_pow
    # correction j: B_2j/(2j)! s(s+1)...(s+2j-2) w^{-s-2j+1}
    rising = s
    coeffs = np.empty(_HURWITZ_CORRECTIONS, dtype=complex)
    for j, coeff in enumerate(_HURWITZ_COEFFS, start=1):
        coeffs[j - 1] = coeff * rising
        rising = rising * (s + (2 * j - 1)) * (s + 2 * j)
    rows[shift + 2 :] = coeffs[:, None] * w ** (1.0 - 2.0 * _CORRECTION_INDEX) * w_pow
    total = _sum2(rows.view(float)).view(complex)
    return complex(total[0]) if a.ndim == 0 else total.reshape(a.shape)
