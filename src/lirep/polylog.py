"""Polylogarithm routes: series, classical integrals, Poisson-kernel
representations, Bernoulli-weight specialisations, odd-zeta integrals,
the trigonometric-moment oracle, inversion, and the dispatcher.

Every route returns a PolylogResult tagged with the representation that
actually produced the value, so independent routes can be compared
against each other point by point.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bernoulli import _check_cap, _poly_magnitude, bernoulli_poly
from .clausen import (
    TWO_PI,
    _CHUNK,
    _TABLE_SLOTS,
    _bernoulli_parity,
    _bernoulli_scale,
    _bernoulli_weight,
    _inverse_powers,
    _pair_cheapest,
    _two_pi_power_over_factorial,
    _zeta_table,
)
from .errors import (
    DomainError,
    ResourceLimitError,
    UnsupportedCombinationError,
)
from .quadrature import (
    _EPS,
    _ROUND_SHARE,
    PANEL_SIZE,
    QuadratureResult,
    _check_tol,
    integrate_adaptive,
    integrand_with_limits,
)
from .special import _is_real_integer, gamma_complex

SERIES_TERM_CAP = 1 << 23


class KernelKind(Enum):
    SIN = "sin"
    COS = "cos"
    ALT = "alt"


class RepresentationTag(Enum):
    AUTO = "auto"
    SERIES = "series"
    CLASSICAL_EXP = "classical-exp"
    CLASSICAL_LOG = "classical-log"
    THEOREM_6A = "theorem6a"
    THEOREM_6B = "theorem6b"
    THEOREM_6C = "theorem6c"
    BERNOULLI_7A = "bernoulli7a"
    BERNOULLI_7B = "bernoulli7b"
    BERNOULLI_7C = "bernoulli7c"
    INVERSION_INT = "inversion-int"


@dataclass(frozen=True)
class PolylogRequest:
    s: complex
    z: complex
    representation: RepresentationTag = RepresentationTag.AUTO
    delta: float = 1.0
    tol: float = 1e-10

    def __post_init__(self):
        _check_finite(self.s, self.z)
        _check_delta(self.delta)
        _check_tol(self.tol)


@dataclass(frozen=True)
class PolylogResult:
    value: complex
    error_estimate: float
    route: RepresentationTag
    quadrature: QuadratureResult | None = None

    @property
    def converged(self) -> bool:
        return self.quadrature.converged if self.quadrature is not None else True


def _check_finite(s, z) -> None:
    if not (cmath.isfinite(complex(s)) and cmath.isfinite(complex(z))):
        raise DomainError(f"s and z must be finite, got s = {s}, z = {z}")


def _check_disc(z: complex) -> None:
    if not abs(z) < 1.0:  # NaN fails it too
        raise DomainError(f"this representation requires |z| < 1, got |z| = {abs(z):g}")


def _check_delta(delta: float) -> None:
    if delta not in (1.0, 0.5):
        raise DomainError("delta must be 1 or 1/2")


def kernel(kind: KernelKind, z, t):
    """Poisson-type weights against the common denominator
    D = 1 - 2 z cos(2 pi t) + z^2 (nonzero throughout |z| < 1).

    SIN: 2 z sin(2 pi t) / D; COS: (1 - z^2) / D; ALT: 2 z (cos(2 pi t) - z) / D.
    COS = 1 + ALT identically, and COS is computed that way: dividing
    (1 - z^2) and 2 z (cos - z) by D separately lets the rounding of D,
    which cancels near the unit circle, break the identity by ~10 ulp.
    """
    z = complex(z)
    _check_disc(z)
    ct = np.cos(TWO_PI * np.asarray(t, dtype=float))
    D = 1.0 - 2.0 * z * ct + z * z
    if kind is KernelKind.SIN:
        out = 2.0 * z * np.sin(TWO_PI * np.asarray(t, dtype=float)) / D
    else:
        out = 2.0 * z * (ct - z) / D
        if kind is KernelKind.COS:
            out = 1.0 + out
    if np.ndim(t) == 0:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# Clausen weights at quadrature nodes, memoised per (s, tol).

class _NodeCache:
    def __init__(self, s: complex, tol: float):
        self.s = s
        self.tol = tol
        self.pairs: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}

    def channel(self, t_arr: np.ndarray, idx: int) -> np.ndarray:
        """The weight of channel idx (0 sin, 1 cos) at the nodes of one panel.

        One entry per panel: a panel not yet seen goes to _pair_cheapest
        whole, as it is, in one call, so its values come from that
        computation alone and never from what other panels did. At most
        _PANEL_CAP panels are kept, the oldest evicted first; an evicted
        panel is computed again, to the same bits. An array of any other
        shape is one entry too; the theorem routes hand over one panel,
        a row of the quadrature's node array, per call."""
        key = tuple(t_arr.ravel().tolist())
        pair = self.pairs.get(key)
        if pair is None:
            pair = _pair_cheapest(self.s, TWO_PI * t_arr, self.tol)
            for part in pair:
                part.flags.writeable = False
            with _cache_lock:
                self.pairs[key] = pair
                while len(self.pairs) > _PANEL_CAP:
                    del self.pairs[next(iter(self.pairs))]
        return pair[idx]


_cache_lock = threading.Lock()
_caches: OrderedDict[tuple[complex, float], _NodeCache] = OrderedDict()
_CACHE_SLOTS = _TABLE_SLOTS  # orders kept, as for the expansion tables
_PANEL_CAP = 1 << 11


def _node_cache(s: complex, tol: float) -> _NodeCache:
    key = (s, tol)
    with _cache_lock:
        cache = _caches.get(key)
        if cache is None:
            cache = _NodeCache(s, tol)
            _caches[key] = cache
            while len(_caches) > _CACHE_SLOTS:
                _caches.popitem(last=False)
        else:
            _caches.move_to_end(key)
    return cache


#: The kernel integrals start from 2^_START_DEPTH equal panels of [0, delta].
#: Fewer leaves opening rounds that every request bisects in full; more
#: splits panels that would have settled whole (mean evaluations per
#: request at 1, 4, 8, 16 start panels: 343, 298, 276, 330 on the benchmark's
#: kernel sweep, 493, 451, 414, 443 on its cold kernel requests).
_START_DEPTH = 3
_START_PANELS = 1 << _START_DEPTH
#: The deepest graded cut is delta 2^-_MAX_DEPTH: 1 - 2^-52 is still exact.
_MAX_DEPTH = 52


def _kernel_breakpoints(z: complex, delta: float, depth: int = _START_DEPTH) -> tuple[float, ...]:
    """The start partition of the kernel integrals: the _START_PANELS equal
    panels of [0, delta], graded cuts delta 2^-j for j = _START_DEPTH + 1 ..
    depth toward t = 0 (and 1 - 2^-j toward t = 1 when delta = 1), and
    the kernel's spike cuts when |z| > 0.95.

    delta is 1 or 1/2 and every cut a dyadic fraction of it, so each is
    exact and is a midpoint that bisecting [0, delta] reaches: a start
    panel has the nodes, and so the node-cache key, of a bisected panel."""
    cuts = tuple(delta * j / _START_PANELS for j in range(1, _START_PANELS))
    graded = tuple(delta * 0.5**j for j in range(_START_DEPTH + 1, depth + 1))
    cuts += graded
    if delta == 1.0:
        cuts += tuple(1.0 - h for h in graded)
    # Close to the unit circle the kernels spike where |D| is minimal,
    # i.e. at t = +-arg(z)/2pi; bracket the spike with a panel boundary.
    if abs(z) <= 0.95:
        return cuts
    tstar = (cmath.phase(z) % TWO_PI) / TWO_PI
    return cuts + tuple(p for p in (tstar, 1.0 - tstar) if 0.0 < p < delta)


def _graded_depth(s: complex, kind: KernelKind, z: complex, delta: float, qtol: float) -> int:
    """The depth of _kernel_breakpoints' graded cuts for the Clausen weight
    against `kind`, quadrature tolerance qtol.

    Near t = 0, and t = 1 when delta = 1, the integrand carries the weight's
    pole term P (2 pi t)^(s-1) K(z, 0), P from the order's table; on
    [0, h] the panel rule estimates its error at c h^(Re s) with
    c = |P| (2 pi)^(Re s - 1) |K(z, 0)| pole_panel_error. The depth is the
    least j >= _START_DEPTH, at most _MAX_DEPTH, with c (delta 2^-j)^(Re s)
    within _ROUND_SHARE qtol, so bisection need not reach the end a round
    at a time. It is _START_DEPTH where c is zero or unknown: the SIN
    kernel, which vanishes at t = 0, integer orders, where Γ(1 - s) has a
    pole, and orders whose table overflows."""
    if kind is KernelKind.SIN or _is_real_integer(s):
        return _START_DEPTH
    try:
        table = _zeta_table(s)
    except OverflowError:  # Γ(1 − s) or sin(πs/2) past binary64
        return _START_DEPTH
    at_zero = (1.0 + z if kind is KernelKind.COS else 2.0 * z) / (1.0 - z)
    c = abs(table.pole[1]) * TWO_PI ** (s.real - 1.0) * abs(at_zero) * table.pole_panel_error
    depth, h = _START_DEPTH, delta * 0.5**_START_DEPTH
    while depth < _MAX_DEPTH and c * h**s.real > _ROUND_SHARE * qtol:
        depth, h = depth + 1, 0.5 * h
    return depth


def _kernel_l1_bound(kind: KernelKind, z: complex) -> float:
    """Bound on int_0^1 |kernel| dt.

    Cauchy-Schwarz against int 1/|1 - z e^{+-2 pi i t}|^2 dt, which equals
    1/(1-|z|^2) by Parseval, gives int 1/|D| <= 1/(1-|z|^2); multiply by
    the sup of the numerator.
    """
    inv = 1.0 / (1.0 - abs(z) ** 2)
    if kind is KernelKind.SIN:
        return 2.0 * abs(z) * inv
    if kind is KernelKind.COS:
        return abs(1.0 - z * z) * inv
    return abs(1.0 - z * z) * inv + 1.0


#: Kernel tag -> (kernel, whether its weight is the closed Bernoulli
#: polynomial of Theorem 7 rather than the Clausen sum of Theorem 6).
_KERNEL_ROUTES = {
    RepresentationTag.THEOREM_6A: (KernelKind.SIN, False),
    RepresentationTag.THEOREM_6B: (KernelKind.COS, False),
    RepresentationTag.THEOREM_6C: (KernelKind.ALT, False),
    RepresentationTag.BERNOULLI_7A: (KernelKind.SIN, True),
    RepresentationTag.BERNOULLI_7B: (KernelKind.COS, True),
    RepresentationTag.BERNOULLI_7C: (KernelKind.ALT, True),
}

#: The Clausen channel whose weight each kernel pairs with.
_KERNEL_CHANNEL = {KernelKind.SIN: "sin", KernelKind.COS: "cos", KernelKind.ALT: "cos"}


#: (variant, Bernoulli route) -> tag of the C_s routes, COS ('cos') or ALT ('alt') kernel.
_VARIANT_TAGS = {
    ("cos", False): RepresentationTag.THEOREM_6B,
    ("alt", False): RepresentationTag.THEOREM_6C,
    ("cos", True): RepresentationTag.BERNOULLI_7B,
    ("alt", True): RepresentationTag.BERNOULLI_7C,
}


def _variant_tag(variant: str, bernoulli: bool) -> RepresentationTag:
    try:
        return _VARIANT_TAGS[variant, bernoulli]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


def _theorem_route(s, z, delta: float, tol: float, tag: RepresentationTag) -> PolylogResult:
    """Li_s(z) = (1/delta) int_0^delta weight(2 pi t) * kernel(z, t) dt for
    the kernel tag `tag`, the weight a Clausen sum (Theorem 6) or a
    Bernoulli polynomial (Theorem 7). The quadrature starts from
    _kernel_breakpoints: the _START_PANELS dyadic panels of [0, delta],
    the spike cuts, and for the Clausen weight cuts graded toward its
    singular ends to _graded_depth; the Bernoulli polynomials are smooth.
    """
    _check_tol(tol)
    _check_finite(s, z)
    s = complex(s)
    z = complex(z)
    kind, closed_form = _KERNEL_ROUTES[tag]
    channel = _KERNEL_CHANNEL[kind]
    if closed_form and _bernoulli_parity(s) != channel:
        parity = "odd" if channel == "sin" else "even"
        raise UnsupportedCombinationError(f"this route needs {parity} integer order")
    if not closed_form and s.real <= 1.0:
        raise DomainError(f"{tag.value} requires Re s > 1, got s = {s}")
    _check_disc(z)
    _check_delta(delta)
    if z == 0.0:
        # SIN/ALT kernels vanish identically; the COS kernel reduces to 1,
        # whose weight integral vanishes by the mean-value property.
        return PolylogResult(0.0 + 0.0j, 0.0, tag)
    wtol = tol / 10.0
    qtol = 0.5 * tol * delta
    depth = _START_DEPTH
    if closed_form:
        weight = _bernoulli_weight(int(s.real))
        weight_err = 0.0
    else:
        depth = _graded_depth(s, kind, z, delta, qtol)
        cache = _node_cache(s, wtol)
        idx = 0 if channel == "sin" else 1

        def weight(t):
            # a panel per lookup, so that its weights come from it alone
            rows = [cache.channel(row, idx) for row in t.reshape(-1, PANEL_SIZE)]
            return np.concatenate(rows).reshape(t.shape)

        # node values carry up to wtol of error each; after the 1/delta
        # scaling that contributes at most wtol * int|kernel| / delta
        weight_err = wtol * _kernel_l1_bound(kind, z) / delta

    def integrand(t):
        return weight(t) * kernel(kind, z, t)

    q = integrate_adaptive(
        integrand,
        0.0,
        delta,
        tol=qtol,
        breakpoints=_kernel_breakpoints(z, delta, depth),
    )
    value = q.value / delta
    return PolylogResult(
        value=value,
        error_estimate=q.error_estimate / delta + weight_err,
        route=tag,
        quadrature=q,
    )


def li_theorem_sin(s, z, delta: float = 1.0, tol: float = 1e-10) -> PolylogResult:
    """Li_s(z) = (1/delta) int_0^delta S_s(2 pi t) * SIN kernel dt  (Re s > 1, |z| < 1).

    The S_s weight is the Clausen sum at every order; at odd integer s,
    li_bernoulli_odd takes its closed Bernoulli form instead.
    """
    return _theorem_route(s, z, delta, tol, RepresentationTag.THEOREM_6A)


def li_theorem_cos(s, z, delta: float = 1.0, variant: str = "cos", tol: float = 1e-10) -> PolylogResult:
    """Li_s(z) from the C_s weight against the COS kernel (variant 'cos')
    or the ALT kernel (variant 'alt'); the two differ by int C_s = 0."""
    return _theorem_route(s, z, delta, tol, _variant_tag(variant, False))


def li_bernoulli_odd(n: int, z, delta: float = 1.0, tol: float = 1e-10) -> PolylogResult:
    """Li_{2n-1}(z) with the exact B_{2n-1} weight against the SIN kernel."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _theorem_route(2 * n - 1, z, delta, tol, RepresentationTag.BERNOULLI_7A)


def li_bernoulli_even(n: int, z, delta: float = 1.0, variant: str = "cos", tol: float = 1e-10) -> PolylogResult:
    """Li_{2n}(z) with the exact B_{2n} weight against the COS or ALT kernel."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _theorem_route(2 * n, z, delta, tol, _variant_tag(variant, True))


# ---------------------------------------------------------------------------
# Series route.

def _series_truncation(s: complex, z: complex, tol: float) -> tuple[int, float]:
    sigma = s.real
    r = abs(z)
    gap_circle = abs(1.0 - z)
    K = 16
    while K <= SERIES_TERM_CAP:
        # the tail sum_{k>K} |t_k| is at most |t_{K+1}| / (1 - rho): every
        # later ratio |t_{k+1}/t_k| = r ((k+1)/k)^(-sigma) is at most rho,
        # which at sigma < 0, where |t_k| carries k^|sigma|, is its k = K+1 value
        rho = r * ((K + 2.0) / (K + 1.0)) ** max(0.0, -sigma)
        bound = r ** (K + 1) * (K + 1.0) ** (-sigma) / (1.0 - rho) if rho < 1.0 else math.inf
        if sigma > 0.0 and gap_circle > 0.0:
            abel = 2.0 * abs(s) / sigma * r ** (K + 1) * K ** (-sigma) / gap_circle
            bound = min(bound, abel)
        if bound <= tol:
            return K, bound
        K *= 2
    raise ResourceLimitError(
        f"series needs more than {SERIES_TERM_CAP} terms at z={z} (too close to 1)"
    )


#: From this many terms on, li_series reduces the angle of z^k exactly (see
#: _powers). Shorter series round k Im w as it stands, an angle error below
#: eps/2 K |Im w| < 1,700 eps, and charge it in their estimate: there the
#: reduction's fixed cost, six more array operations, would be most of the
#: work (z^k took 3x as long reduced at 16 terms, auto-mix's median series).
_REDUCE_FROM = 1 << 10


def _powers(k: np.ndarray, w: complex, reduce: bool) -> np.ndarray:
    """z^k = exp(k w) for w = log z; with `reduce`, the angle is reduced
    modulo 2 pi before it is rounded.

    Im w / 2 pi is split into hi + lo with hi of 26 bits (Dekker), so k hi
    is exact for k < 2^27 and its whole turns drop out exactly: the angle
    2 pi (frac(k hi) + k lo) keeps an absolute error of a few ulp at every k.
    The plain product k Im w carries up to eps/2 k |Im w| per term, which
    near |z| = 1 dwarfs every other rounding in the series.
    """
    if not reduce:
        out = np.multiply(k, w)
        return np.exp(out, out=out)
    turns = w.imag / TWO_PI
    split = 134217729.0 * turns  # 2^27 + 1
    hi = split - (split - turns)
    # built in place, with the real part as scratch: no temporary arrays
    out = np.empty(k.shape, dtype=complex)
    re, im = out.real, out.imag
    np.multiply(k, hi, out=im)
    im -= np.rint(im, out=re)
    im *= TWO_PI
    im += np.multiply(k, TWO_PI * (turns - hi), out=re)
    np.multiply(k, w.real, out=re)
    return np.exp(out, out=out)


def li_series(s, z, tol: float = 1e-10) -> PolylogResult:
    """Defining series sum_{k>=1} z^k / k^s, truncated under a rigorous
    tail bound (|z| < 1 strictly, any complex s).

    z^k is exp(k w) with w = log z taken once (see _powers). The estimate
    adds rounding to the tail bound: eps (4 + |s| ln K) sum |t_k| for the
    terms t_k (k^{-s} is exp(-s ln k)) and their sum, eps |w| |sum k t_k|
    for the one rounding of w, which every exp(k w) carries coherently,
    and below _REDUCE_FROM terms eps/2 |Im w| sum k |t_k| for the rounded
    angles.
    """
    _check_tol(tol)
    _check_finite(s, z)
    s = complex(s)
    z = complex(z)
    _check_disc(z)
    if z == 0.0:
        return PolylogResult(0.0 + 0.0j, 0.0, RepresentationTag.SERIES)
    K, bound = _series_truncation(s, z, tol)
    w = cmath.log(z)
    reduce = K >= _REDUCE_FROM
    value = 0j
    moment = 0j
    magnitude = 0.0
    angles = 0.0
    for lo in range(1, K + 1, _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, K + 1), dtype=float)
        # k^{-s} first, so that its temporaries are gone before z^k is built
        coeffs = _inverse_powers(s, k)
        terms = _powers(k, w, reduce)
        terms *= coeffs
        del coeffs
        value += terms.sum()
        moment += terms.dot(k)
        sizes = np.abs(terms)
        magnitude += sizes.sum()
        if not reduce:
            angles += 0.5 * abs(w.imag) * sizes.dot(k)
        del terms, sizes  # before the next chunk's arrays
    rounding = _EPS * ((4.0 + abs(s) * math.log(K)) * magnitude + abs(w) * abs(moment) + angles)
    return PolylogResult(complex(value), float(bound + rounding), RepresentationTag.SERIES)


# ---------------------------------------------------------------------------
# Classical integral representations.

def _exp_cutoff(sigma: float, az: float, target: float) -> float:
    T = max(15.0, 2.0 * sigma + 5.0, math.log(max(az, 1.0)) + 10.0)
    while T <= 400.0:
        damp = 1.0 - az * math.exp(-T)
        if damp > 0.0:
            bound = 2.0 * max(T, 1.0) ** (sigma - 1.0) * math.exp(-T) / damp
            if bound <= target:
                return T
        T += 5.0
    raise ResourceLimitError("no finite cutoff reaches the requested tolerance")


def li_integral_classical(s, z, tol: float = 1e-10, form: str = "exp") -> PolylogResult:
    """Classical integral representations (Re s > 0).

    form='exp':  z/Gamma(s) * int_0^inf t^{s-1}/(e^t - z) dt, truncated at a
    cutoff with an analytic tail bound; valid for any z off the real ray
    (1, inf) (z = 1 additionally needs Re s > 1).

    form='log':  z/Gamma(s) * int_0^1 log(1/u)^{s-1}/(1 - z u) du, used on
    the open unit disc. Both ends can be singular, so it is split at
    u = 1/2, and the upper half is integrated in v = 1 - u with -log1p(-v),
    where floats are dense: log(1/u) does not round to 0 near u = 1
    (0^{s-1} is NaN at Re s < 1).
    """
    _check_tol(tol)
    _check_finite(s, z)
    s = complex(s)
    z = complex(z)
    if s.real <= 0.0:
        raise DomainError(f"classical representations require Re s > 0, got {s}")
    if z == 0.0:
        tag = RepresentationTag.CLASSICAL_EXP if form == "exp" else RepresentationTag.CLASSICAL_LOG
        return PolylogResult(0.0 + 0.0j, 0.0, tag)
    scale = z / gamma_complex(s)
    if form == "exp":
        if z.imag == 0.0 and z.real > 1.0:
            raise DomainError("exp form is undefined on the cut (1, inf)")
        if z == 1.0 and s.real <= 1.0:
            raise DomainError("z = 1 requires Re s > 1")
        target = 0.5 * tol / abs(scale)
        cutoff = _exp_cutoff(s.real, abs(z), target)

        def integrand(t):
            return t ** (s - 1.0) / (np.exp(t) - z)

        q = integrate_adaptive(integrand, 0.0, cutoff, tol=target)
        tail = target
        return PolylogResult(
            value=scale * q.value,
            error_estimate=abs(scale) * (q.error_estimate + tail),
            route=RepresentationTag.CLASSICAL_EXP,
            quadrature=q,
        )
    if form == "log":
        _check_disc(z)
        target = 0.25 * tol / abs(scale)  # per half

        def lower(u):
            return np.log(1.0 / u) ** (s - 1.0) / (1.0 - z * u)

        def upper(v):
            return (-np.log1p(-v)) ** (s - 1.0) / (1.0 - z * (1.0 - v))

        # Breakpoints one unit apart in log(1/u), past the peak of the mass
        # at log(1/u) = Re s - 1: at large Re s it sits at u ~ e^{1-Re s},
        # out of sight of the nodes of [0, 1/2].
        cuts = np.exp(-np.arange(1.0, 2.0 * s.real + 30.0))
        lo = integrate_adaptive(lower, 0.0, 0.5, tol=target, breakpoints=cuts)
        hi = integrate_adaptive(upper, 0.0, 0.5, tol=target)
        q = QuadratureResult(lo.value + hi.value, lo.error_estimate + hi.error_estimate,
                             lo.evaluations + hi.evaluations, lo.converged and hi.converged)
        return PolylogResult(
            value=scale * q.value,
            error_estimate=abs(scale) * q.error_estimate,
            route=RepresentationTag.CLASSICAL_LOG,
            quadrature=q,
        )
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# Odd zeta values from the z -> +-1 kernel limits.

def _zeta_odd(kind: str, n: int, delta: float, tol: float) -> tuple[float, QuadratureResult]:
    if n < 1:
        raise DomainError("n must be >= 1")
    _check_delta(delta)
    _check_tol(tol)  # before it is scaled, so that a message names the caller's tol
    pref = _bernoulli_scale(2 * n + 1) / delta
    if kind == "tan":
        pref *= 4.0**n / (4.0**n - 1.0)
    f = integrand_with_limits(kind, n)
    q = integrate_adaptive(f, 0.0, delta, tol=tol / abs(pref))
    return pref * q.value.real, q


def zeta_odd_cot(n: int, delta: float = 1.0, tol: float = 1e-10) -> float:
    """zeta(2n+1) from the B_{2n+1}(t) cot(pi t) integral (patched endpoints)."""
    value, _ = _zeta_odd("cot", n, delta, tol)
    return value


def zeta_odd_tan(n: int, delta: float = 1.0, tol: float = 1e-10) -> float:
    """zeta(2n+1) from the B_{2n+1}(t) tan(pi t) integral (patched midpoint)."""
    value, _ = _zeta_odd("tan", n, delta, tol)
    return value


# ---------------------------------------------------------------------------
# Trigonometric-moment oracle for the kernels.

def _check_moment(channel: str, kind: KernelKind, n: int) -> None:
    if kind not in (KernelKind.SIN, KernelKind.COS):
        raise DomainError("the moment identities cover the SIN and COS kernels")
    if channel not in ("cos", "sin"):
        raise ValueError(f"unknown channel {channel!r}")
    if n < 1:
        raise DomainError("n must be >= 1")


def lemma_integral(
    channel: str,
    kind: KernelKind,
    n: int,
    z,
    delta: float = 1.0,
    tol: float = 1e-11,
) -> complex:
    """int_0^delta {cos | sin}(2 pi n t) * kernel(z, t) dt by quadrature,
    from the start panels of the theorem routes (_kernel_breakpoints),
    without graded cuts: the integrand is smooth at both ends."""
    _check_moment(channel, kind, n)
    z = complex(z)
    _check_disc(z)
    _check_delta(delta)
    trig = np.cos if channel == "cos" else np.sin

    def integrand(t):
        return trig(TWO_PI * n * t) * kernel(kind, z, t)

    q = integrate_adaptive(
        integrand, 0.0, delta, tol=tol, breakpoints=_kernel_breakpoints(z, delta)
    )
    return q.value


def lemma_expected(channel: str, kind: KernelKind, n: int, z, delta: float = 1.0) -> complex:
    """Exact value of the corresponding moment integral.

    Both kernels give delta * z^n on their matched channel for either delta.
    The mismatched ("zero") channels vanish over the full period only; over
    the half period the sin/cos cross terms survive, and the value follows
    from the kernels' generating expansions:

      int_0^{1/2} cos(2 pi n t) SIN kernel dt = (2/pi) sum_{m+n odd} z^m m/(m^2-n^2)
      int_0^{1/2} sin(2 pi n t) COS kernel dt = [n odd]/(pi n)
                                        + (2n/pi) sum_{m+n odd} z^m/(n^2-m^2)

    The sums run to where |z|^m falls below 1e-14 (1 - |z|); past
    SERIES_TERM_CAP terms they raise ResourceLimitError.
    """
    _check_moment(channel, kind, n)
    z = complex(z)
    _check_disc(z)
    _check_delta(delta)
    if channel == _KERNEL_CHANNEL[kind]:
        return delta * z**n
    if delta == 1.0:
        return 0.0 + 0.0j
    # half period, mismatched channel: sum the surviving cross terms, the
    # m of parity opposite to n, a chunk at a time
    acc = 0.0 + 0.0j
    if abs(z) != 0.0:
        terms = max(64, int(math.log(1e-14 * (1.0 - abs(z))) / math.log(abs(z))) + 1)
        if terms > SERIES_TERM_CAP:
            raise ResourceLimitError(
                f"moment sum needs more than {SERIES_TERM_CAP} terms at z={z} "
                "(too close to the unit circle)"
            )
        for lo in range(1 + n % 2, terms + 1, 2 * _CHUNK):
            m = np.arange(lo, min(lo + 2 * _CHUNK, terms + 1), 2, dtype=float)
            zm = np.power(z, m)
            if kind is KernelKind.SIN:
                acc += complex(np.dot(zm, m / (m * m - n * n)))
            else:
                acc += complex(np.dot(zm, 1.0 / (n * n - m * m)))
        acc *= 2.0 / math.pi if kind is KernelKind.SIN else 2.0 * n / math.pi
    if kind is KernelKind.COS and n % 2 == 1:
        acc += 1.0 / (math.pi * n)
    return acc


# ---------------------------------------------------------------------------
# Inversion to |z| > 1 at integer order.

def li_inversion_integer(n: int, z, tol: float = 1e-10) -> PolylogResult:
    """Li_n(z) for |z| > 1 from Li_n(1/z) plus a Bernoulli-polynomial term.

    The polynomial argument is written as 1/2 + log(-z)/(2 pi i) with the
    principal logarithm: this equals log(z)/(2 pi i) whenever the branch of
    log z is taken continuous from above (Im log z in (0, 2 pi]), and stays
    correct in the lower half plane where the naive principal log z would
    land on the wrong Bernoulli-polynomial period.

    Integer orders past BERNOULLI_CAP raise the cap's ResourceLimitError
    before any other work: (2 pi)^n / n! in exact integers never finishes at
    n = 2^70, and complex() overflows past 1e308.
    """
    _check_tol(tol)
    if isinstance(n, (int, np.integer)):  # numpy integers as Python ints
        n = operator.index(n)
        _check_cap(n)
    _check_finite(n, z)
    if n < 0:
        raise DomainError("order must be a nonnegative integer")
    z = complex(z)
    if abs(z) <= 1.0:
        raise DomainError("inversion route requires |z| > 1")
    if z.imag == 0.0 and z.real > 0.0:
        raise DomainError("inversion route is undefined on the cut [1, inf)")
    inner = li_series(n, 1.0 / z, tol=0.5 * tol)
    shifted = 0.5 + cmath.log(-z) / (2.0j * math.pi)
    scale = _two_pi_power_over_factorial(n)
    poly_term = 1j ** (n % 4) * scale * bernoulli_poly(n, shifted)
    value = (-1.0) ** (n - 1) * inner.value - poly_term
    # B_n's own rounding is bounded through sum |c_k| |x|^{n-k}, which
    # cancellation can make far larger than |poly_term|
    horner = (2 * n + 1) * scale * _poly_magnitude(n, abs(shifted))
    rounding = _EPS * (8.0 * abs(poly_term) + horner)
    return PolylogResult(
        value=value,
        error_estimate=inner.error_estimate + rounding,
        route=RepresentationTag.INVERSION_INT,
    )


# ---------------------------------------------------------------------------
# Dispatcher.

def _is_nonneg_integer(s: complex) -> bool:
    return _is_real_integer(s) and s.real >= 0.0


def _auto_route(s: complex, z: complex) -> RepresentationTag:
    az = abs(z)
    if az <= 0.5:
        return RepresentationTag.SERIES
    if az < 1.0:
        if s.real > 0.0:
            return RepresentationTag.CLASSICAL_EXP
        return RepresentationTag.SERIES
    if az > 1.0:
        if _is_nonneg_integer(s):
            return RepresentationTag.INVERSION_INT
        raise UnsupportedCombinationError(
            f"no route for order s={s} outside the unit disc (needs a nonnegative integer order)"
        )
    raise UnsupportedCombinationError("evaluation on |z| = 1 is not supported")


def li_eval(req: PolylogRequest) -> PolylogResult:
    """Evaluate Li_s(z) by the requested representation, or pick one:
    series inside |z| <= 0.5, the classical integral on 0.5 < |z| < 1,
    and integer-order inversion (order 0 included) outside the disc.

    A forced route keeps its own hypothesis: Re s > 1 for the theorem
    routes, which sum the Clausen weight at every order, and a positive
    integer order of matching parity for the Bernoulli routes."""
    s = complex(req.s)
    z = complex(req.z)
    tag = req.representation
    if tag is RepresentationTag.AUTO:
        tag = _auto_route(s, z)
    if tag is RepresentationTag.SERIES:
        return li_series(s, z, req.tol)
    if tag is RepresentationTag.CLASSICAL_EXP:
        return li_integral_classical(s, z, req.tol, form="exp")
    if tag is RepresentationTag.CLASSICAL_LOG:
        return li_integral_classical(s, z, req.tol, form="log")
    if tag in _KERNEL_ROUTES:
        return _theorem_route(s, z, req.delta, req.tol, tag)
    if tag is RepresentationTag.INVERSION_INT:
        if not _is_nonneg_integer(s):
            raise UnsupportedCombinationError("inversion requires integer order")
        return li_inversion_integer(int(s.real), z, req.tol)
    raise UnsupportedCombinationError(f"unhandled representation {tag}")
