"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

The base rule is the 15-point Kronrod extension of 7-point Gauss
(constants from QUADPACK's dqk15). Panels are bisected worst-first until
the summed error estimate clears the tolerance or the evaluation budget
runs out; running out is reported through the `converged` flag, never an
exception. Real and imaginary parts share panels.

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


def gauss_kronrod_panel(f, a: float, b: float) -> tuple[complex, float, float]:
    """One 15-point panel on [a, b]: (integral, error estimate, resabs).

    The error estimate follows QUADPACK: the Kronrod/Gauss difference,
    damped through the scaled deviation resasc, floored at 50 eps resabs.
    """
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * NODES
    y = np.asarray(f(x), dtype=complex)
    sum_k = np.dot(_WEIGHTS_K, y)
    resk = h * sum_k
    resg = h * np.dot(_WEIGHTS_G, y)
    resabs = abs(h) * float(np.dot(_WEIGHTS_K, np.abs(y)))
    # the mean of f over the panel, resk / (b - a), without dividing by a
    # width that can underflow toward a singular endpoint
    mean = 0.5 * sum_k
    resasc = abs(h) * float(np.dot(_WEIGHTS_K, np.abs(y - mean)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return complex(resk), err, resabs


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")


def integrate_adaptive(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_evals: int = 100_000,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate a complex-valued f over [a, b] to absolute tolerance `tol`.

    Worst-panel bisection on the 15(7) pair. `breakpoints` force initial
    panel boundaries (useful when the caller knows where a peak sits).
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
    heap: list[tuple[float, int, float, float, complex]] = []
    frozen: list[tuple[float, int, float, float, complex]] = []
    counter = 0
    evals = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, e, _ = gauss_kronrod_panel(f, lo, hi)
        evals += PANEL_SIZE
        heapq.heappush(heap, (-e, counter, lo, hi, v))
        counter += 1

    def total_error() -> float:
        return -math.fsum(item[0] for item in heap) - math.fsum(
            item[0] for item in frozen
        )

    # The stop test compares total_error() with tol. A running total of the
    # panel errors stands in for it, with a bound on how far its roundings
    # can have taken it from the exact sum; only where tol lies within that
    # bound (widened by total_error's own rounding) is the heap re-summed,
    # so every decision is the one total_error() would make.
    running = total_error()
    slack = 4.0 * _EPS * running
    converged = False
    while True:
        if abs(running - tol) <= slack + 4.0 * _EPS * tol:
            running = total_error()
            slack = 4.0 * _EPS * running
        if running <= tol:
            converged = True
            break
        if not heap or evals + 2 * PANEL_SIZE > max_evals:
            break
        item = heapq.heappop(heap)
        _, _, lo, hi, _ = item
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Not splittable in binary64; its error stays but stops competing.
            frozen.append(item)
            continue
        running += item[0]
        slack += _EPS * abs(running)
        for lo2, hi2 in ((lo, mid), (mid, hi)):
            v, e, _ = gauss_kronrod_panel(f, lo2, hi2)
            evals += PANEL_SIZE
            heapq.heappush(heap, (-e, counter, lo2, hi2, v))
            counter += 1
            running += e
            slack += _EPS * abs(running)
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
