"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

The base rule is the 15-point Kronrod extension of 7-point Gauss
(constants from QUADPACK's dqk15). Panels are bisected worst-first, a
round at a time: each round bisects the panels of largest error, as many
as it takes to leave at most tol/8 in the rest over their error floors,
with one integrand call for all their halves. This goes on until the
summed error estimate clears the tolerance or the evaluation budget runs
out; running out is reported through the `converged` flag, never an
exception. Real and imaginary parts share panels. Integrands take an
array of nodes of any shape, (m, 15) from `integrate_adaptive`, and
work elementwise.

`PatchedIntegrand` wraps an integrand that is only formally singular:
within a tiny switch window around each registered point the known limit
value is returned instead of evaluating the base function, which keeps
cot/tan-type cancellation out of the quadrature.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bernoulli import bernoulli_number, bernoulli_poly
from .errors import DomainError

_EPS = float(np.finfo(float).eps)
#: The least error estimate a panel gets, as a share of its resabs.
_FLOOR = 50.0 * _EPS

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights.
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

#: All 15 nodes in ascending order on [-1, 1].
NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])

PANEL_SIZE = 15
#: The nodes as fractions of a panel, from its lower end.
_UNIT_NODES = 0.5 + 0.5 * NODES
#: Half the Kronrod and half the Gauss weights: the rows that give the
#: means of f over a panel.
_HALF_WEIGHTS = 0.5 * np.stack((_WEIGHTS_K, _WEIGHTS_G))

#: Default switch window, as a fraction of each patch radius.
SWITCH_SCALE = 1e-7


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class Patch:
    """A removable singularity: the limit of the integrand at `point`."""

    point: float
    limit: complex
    radius: float = 0.1


@dataclass(frozen=True)
class PatchedIntegrand:
    """Integrand with limit values substituted near registered points.

    `base` must map a float ndarray to a complex ndarray; it is never
    called at points inside a switch window, so it may divide by zero
    there with abandon.
    """

    base: Callable[[np.ndarray], np.ndarray]
    patches: tuple[Patch, ...] = ()
    switch_scale: float = SWITCH_SCALE

    def __post_init__(self):
        spans = sorted((p.point - p.radius, p.point + p.radius) for p in self.patches)
        for (_, hi), (lo, _) in zip(spans[:-1], spans[1:]):
            if lo < hi:
                raise ValueError("patch neighbourhoods overlap")

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape, dtype=complex)
        patched = np.zeros(t.shape, dtype=bool)
        for p in self.patches:
            mask = np.abs(t - p.point) < p.radius * self.switch_scale
            out[mask] = p.limit
            patched |= mask
        free = ~patched
        if free.any():
            out[free] = self.base(t[free])
        return out


def _estimate(width: float, mean_k: complex, mean_g: complex, abs_mean: float, dev_mean: float):
    # One panel's (integral, error estimate, resabs) from the means over it
    # of f, |f| and |f - mean| under the Kronrod weights and of f under
    # Gauss's: the sums over the width, which can underflow toward a
    # singular endpoint, are never divided by it.
    aw = abs(width)
    err = aw * abs(mean_k - mean_g)
    resabs = aw * abs_mean
    resasc = aw * dev_mean
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, 200.0 * err / resasc) ** 1.5
    return width * mean_k, max(err, _FLOOR * resabs), resabs


def gauss_kronrod_panel(f, a, b):
    """15-point panels on [a, b]: (integral, error estimate, resabs).

    With float ends this is one panel. With arrays of m ends it is m
    panels in one call of f, on an (m, 15) array of nodes, one panel a
    row, and the result is the list of their m triples; each panel's
    nodes and triple are those of its own call, to the bit.

    The error estimate follows QUADPACK: the Kronrod/Gauss difference,
    damped through the scaled deviation resasc, floored at 50 eps resabs.
    """
    a = np.asarray(a, dtype=float)
    width = np.asarray(b, dtype=float) - a
    x = width[..., None] * _UNIT_NODES
    x += a[..., None]
    y = np.asarray(f(x), dtype=complex)
    # Weighted sums as products reduced along each row, not as matrix
    # products: a row then sums in the same order whatever the rows around it.
    means = np.add.reduce(y[..., None, :] * _HALF_WEIGHTS, axis=-1)
    dev = np.abs(np.concatenate((y, y - means[..., :1]), axis=-1))
    spread = np.add.reduce(dev.reshape(*dev.shape[:-1], 2, PANEL_SIZE) * _HALF_WEIGHTS[0], axis=-1)
    panels = [
        _estimate(w, mean_k, mean_g, abs_mean, dev_mean)
        for w, (mean_k, mean_g), (abs_mean, dev_mean) in zip(
            width.reshape(-1).tolist(), means.reshape(-1, 2).tolist(), spread.reshape(-1, 2).tolist()
        )
    ]
    return panels if width.ndim else panels[0]


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")


#: A round bisects panels worst-first until the error left in the others,
#: less their floors, is at most this share of the tolerance (the rule of
#: SciPy's quad_vec).
_ROUND_SHARE = 0.125


class _Total:
    """A running sum of one number per panel, with a bound on how far its
    roundings can have taken it from the exact sum. A test against a bound
    re-sums the panels (through `resum`) only where the bound lies within
    that distance, widened by the re-sum's own rounding, so every decision
    is the one the re-sum would make."""

    __slots__ = ("value", "slack", "_resum")

    def __init__(self, resum: Callable[[], float]):
        self.value = self.slack = 0.0
        self._resum = resum

    def add(self, x: float) -> None:
        self.value += x
        self.slack += _EPS * abs(self.value)

    def at_most(self, bound: float) -> bool:
        if abs(self.value - bound) <= self.slack + 4.0 * _EPS * bound:
            self.value = self._resum()
            self.slack = 4.0 * _EPS * self.value
        return self.value <= bound


def integrate_adaptive(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_evals: int = 100_000,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate a complex-valued f over [a, b] to absolute tolerance `tol`.

    Worst-first bisection on the 15(7) pair, a round at a time: a round
    takes panels in order of error until the error left in the rest, less
    their floors (50 eps resabs each), is at most tol/8, and as many as
    the evaluation budget can still pay for, and bisects them all in one
    call of f. The initial partition is one call too.

    f must work elementwise on a float array of any shape: it is called
    on an (m, 15) array of nodes, one panel a row, and must return an
    array of the same shape (complex or real).

    `breakpoints` force initial panel boundaries (useful when the caller
    knows where a peak sits).
    Exhausting `max_evals` integrand evaluations is reported by
    converged=False on the result; the best value so far is still returned,
    with panel contributions summed in ascending position order.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    _check_tol(tol)
    if tol < 1e-14:
        raise DomainError("tolerances below 1e-14 are not resolvable in binary64")
    cuts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    # A panel is (-error, serial number, lo, hi, value, error less its floor).
    heap: list[tuple[float, int, float, float, complex, float]] = []
    frozen: list[tuple[float, int, float, float, complex, float]] = []
    evals = 0

    def total_error() -> float:
        return -math.fsum(item[0] for item in heap) - math.fsum(
            item[0] for item in frozen
        )

    def total_excess() -> float:
        return math.fsum(item[5] for item in heap) + math.fsum(item[5] for item in frozen)

    # The stop test reads the total error against tol; the test that ends a
    # round reads the total excess of the errors over their floors against
    # tol/8. The floors sum to about 50 eps times the integral of |f| however
    # the panels are cut, so a round that waited for them to fall under tol/8
    # would bisect ever more panels for nothing.
    error = _Total(total_error)
    excess = _Total(total_excess)

    def add_panels(los: list[float], his: list[float]) -> None:
        nonlocal evals
        panels = gauss_kronrod_panel(f, *np.array((los, his)))
        for lo, hi, (v, e, resabs) in zip(los, his, panels):
            x = e - _FLOOR * resabs
            # the count of panels made so far breaks ties between errors
            heapq.heappush(heap, (-e, evals // PANEL_SIZE, lo, hi, v, x))
            evals += PANEL_SIZE
            error.add(e)
            excess.add(x)

    add_panels(cuts[:-1], cuts[1:])
    converged = False
    while True:
        if error.at_most(tol):
            converged = True
            break
        los: list[float] = []
        his: list[float] = []
        while heap and evals + PANEL_SIZE * (len(los) + 2) <= max_evals:
            if los and excess.at_most(_ROUND_SHARE * tol):
                break
            item = heapq.heappop(heap)
            _, _, lo, hi, _, x = item
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                # Not splittable in binary64; its error stays but stops competing.
                frozen.append(item)
                continue
            error.add(item[0])
            excess.add(-x)
            los += (lo, mid)
            his += (mid, hi)
        if not los:
            break
        add_panels(los, his)
    panels = sorted(heap + frozen, key=lambda item: item[2])
    value = complex(
        math.fsum(p[4].real for p in panels), math.fsum(p[4].imag for p in panels)
    )
    return QuadratureResult(
        value=value,
        error_estimate=total_error(),
        evaluations=evals,
        converged=converged,
    )


def _cot_limit(n: int) -> float:
    # B_{2n+1}(t) ~ (2n+1) B_{2n} t near 0 and cot(pi t) ~ 1/(pi t); the
    # same expansion holds at t=1 since B_{2n+1}(1) = 0 for n >= 1.
    return (2 * n + 1) * float(bernoulli_number(2 * n)) / math.pi


def tan_patch_value(n: int) -> float:
    """Limit of B_{2n+1}(t) tan(pi t) at t = 1/2, from the L'Hopital step."""
    return (1.0 - 2.0 ** (1 - 2 * n)) * (2 * n + 1) * float(bernoulli_number(2 * n)) / math.pi


def integrand_with_limits(kind: str, n: int, switch_scale: float = SWITCH_SCALE) -> PatchedIntegrand:
    """B_{2n+1}(t) * cot(pi t) or * tan(pi t) on [0, 1], with limit patches.

    kind 'cot' patches t = 0 and t = 1; kind 'tan' patches t = 1/2.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if kind == "cot":

        def base(t):
            return bernoulli_poly(2 * n + 1, t) / np.tan(math.pi * t)

        lim = _cot_limit(n)
        patches = (Patch(0.0, lim), Patch(1.0, lim))
    elif kind == "tan":

        def base(t):
            return bernoulli_poly(2 * n + 1, t) * np.tan(math.pi * t)

        patches = (Patch(0.5, tan_patch_value(n)),)
    else:
        raise ValueError(f"unknown singularity kind {kind!r}")
    return PatchedIntegrand(base=base, patches=patches, switch_scale=switch_scale)
