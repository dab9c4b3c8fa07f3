"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s) carrying the worst observed deviation, then asserts it.
"""

import cmath
import math
import time

import numpy as np

from lirep import (
    KernelKind,
    bernoulli_numbers,
    chebyshev_T,
    clausen_bernoulli,
    clausen_direct,
    clausen_via_hurwitz,
    integrate_adaptive,
    integrand_with_limits,
    kernel,
    lemma_integral,
    li_bernoulli_even,
    li_bernoulli_odd,
    li_integral_classical,
    li_inversion_integer,
    li_series,
    li_theorem_cos,
    li_theorem_sin,
    tan_patch_value,
    zeta_odd_cot,
    zeta_odd_tan,
)

from oracles import clausen_s1, lemma_half_interval_mixed, zeta_direct

TWO_PI = 2.0 * math.pi


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_lemma_oracle_suite():
    # 8 orders x 9 z x 2 deltas x 2 kernels x 2 channels = 576 integrals,
    # each within 1e-9 absolute of the verified exact value. The matched
    # channels give delta z^n for both deltas; the mismatched channels are
    # zero over the full period but keep their odd cross terms over the
    # half period (expected values from the independent orthogonality
    # series, not from the quadrature path under test).
    t0 = time.monotonic()
    zs = [
        r * cmath.exp(1j * phase)
        for r in (0.1, 0.5, 0.9)
        for phase in (0.0, math.pi / 3.0, math.pi / 2.0)
    ]
    worst = 0.0
    count = 0
    for n in range(1, 9):
        for z in zs:
            for delta in (1.0, 0.5):
                for kind in (KernelKind.SIN, KernelKind.COS):
                    for channel in ("cos", "sin"):
                        matched = "sin" if kind is KernelKind.SIN else "cos"
                        if channel == matched:
                            expected = delta * z**n
                        elif delta == 1.0:
                            expected = 0.0 + 0.0j
                        else:
                            expected = lemma_half_interval_mixed(
                                channel, kind.value, n, z
                            )
                        got = lemma_integral(channel, kind, n, z, delta, tol=1e-11)
                        worst = max(worst, abs(got - expected))
                        count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "trig-moment oracle", ok, f"{count} integrals, worst |dev| {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_representation_agreement():
    t0 = time.monotonic()
    orders = (2.0, 2.5, 3.0, 4.0, 2.2 + 0.9j)
    zs = [
        r * cmath.exp(1j * phase)
        for r in (0.3, 0.6, 0.9)
        for phase in (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)
    ]
    worst = 0.0
    for s in orders:
        for z in zs:
            ref = li_series(s, z, tol=1e-12).value
            routes = (
                li_theorem_sin(s, z, tol=1e-8).value,
                li_theorem_cos(s, z, variant="cos", tol=1e-8).value,
                li_theorem_cos(s, z, variant="alt", tol=1e-8).value,
                li_integral_classical(s, z, tol=1e-9).value,
            )
            for v in routes:
                worst = max(worst, abs(v - ref) / abs(ref))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and elapsed < 60.0
    _report(2, "representation agreement", ok, f"worst rel dev {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-7
    assert elapsed < 60.0


def test_criterion_3_bernoulli_weights_equal_theorem():
    zs = (0.5, -0.6, 0.3 + 0.4j, -0.2 - 0.55j, 0.7j, -0.85)
    worst = 0.0
    for n in (1, 2, 3):
        s_odd = 2 * n - 1
        s_even = 2 * n
        for z in zs:
            odd = li_bernoulli_odd(n, z, tol=1e-9).value
            if n == 1:
                # the series weight does not exist at order 1; the exact
                # closed form -log(1-z) takes the theorem side's place
                ref = -cmath.log(1.0 - z)
            else:
                ref = li_theorem_sin(s_odd, z, tol=1e-9).value
            worst = max(worst, abs(odd - ref))
            for variant in ("cos", "alt"):
                even = li_bernoulli_even(n, z, variant=variant, tol=1e-9).value
                ref = li_theorem_cos(s_even, z, variant=variant, tol=1e-9).value
                worst = max(worst, abs(even - ref))
    ok = worst <= 1e-8
    _report(3, "integer-order specialisation", ok, f"worst |dev| {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_4_odd_zeta_routes():
    worst = 0.0
    for n in (1, 2, 3):
        reference = zeta_direct(2 * n + 1).real
        for delta in (1.0, 0.5):
            worst = max(worst, abs(zeta_odd_cot(n, delta, tol=1e-10) - reference))
            worst = max(worst, abs(zeta_odd_tan(n, delta, tol=1e-10) - reference))
    ok = worst <= 1e-9
    _report(4, "odd zeta integrals", ok, f"12 evaluations, worst |dev| {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_5_kernel_identity_and_limits():
    worst_ulp = 0.0
    rs = np.linspace(0.05, 0.9, 10)
    ts = np.linspace(0.0, 1.0, 10)
    for i, r in enumerate(rs):
        z = r * cmath.exp(2j * math.pi * (i / 10.0))
        c = kernel(KernelKind.COS, z, ts)
        a = kernel(KernelKind.ALT, z, ts)
        scale = np.maximum(1.0, np.maximum(np.abs(c), np.abs(a)))
        worst_ulp = max(worst_ulp, float(np.max(np.abs(c - a - 1.0) / (2.3e-16 * scale))))
    worst_lim = 0.0
    for t in (0.1, 0.25, 0.4):
        v_plus = kernel(KernelKind.SIN, 1.0 - 1e-8, t)
        worst_lim = max(worst_lim, abs(v_plus - 1.0 / math.tan(math.pi * t)))
        # toward z = -1 the SIN kernel tends to -tan(pi t); at z = -1 exactly
        # it reads -2 sin(2 pi t)/(2 + 2 cos(2 pi t)) = -tan(pi t)
        v_minus = kernel(KernelKind.SIN, -1.0 + 1e-8, t)
        worst_lim = max(worst_lim, abs(v_minus - (-math.tan(math.pi * t))))
    ok = worst_ulp <= 4.0 and worst_lim <= 1e-5
    _report(5, "kernel identity and limits", ok, f"worst {worst_ulp:.2f} ulp, limit dev {worst_lim:.2e}")
    assert worst_ulp <= 4.0
    assert worst_lim <= 1e-5


def test_criterion_6_clausen_consistency():
    xs = [TWO_PI * u for u in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)]
    worst_bern = 0.0
    for order in range(1, 7):
        channel = "sin" if order % 2 else "cos"
        for x in xs:
            closed = clausen_bernoulli(channel, order, x)
            if order == 1:
                ref = clausen_s1(x, tail_terms=400_000)
            else:
                v = clausen_direct(float(order), x, tol=1e-11)
                ref = v.sin_part.real if channel == "sin" else v.cos_part.real
            worst_bern = max(worst_bern, abs(closed - ref))
    worst_hz = 0.0
    for s in (2.5, 3.5, 2 + 0.7j):
        for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            h = clausen_via_hurwitz(s, t)
            d = clausen_direct(s, TWO_PI * t, tol=1e-11)
            worst_hz = max(worst_hz, abs(h.sin_part - d.sin_part))
            worst_hz = max(worst_hz, abs(h.cos_part - d.cos_part))
    ok = worst_bern <= 1e-9 and worst_hz <= 1e-8
    _report(6, "Clausen route consistency", ok, f"closed-form dev {worst_bern:.2e}, reflection dev {worst_hz:.2e}")
    assert worst_bern <= 1e-9
    assert worst_hz <= 1e-8


def test_criterion_7_inversion_vs_classical():
    worst = 0.0
    for n in (2, 3):
        for z in (-3.0, -5.0, 2 + 3j, -1.5j):
            inv = li_inversion_integer(n, z, tol=1e-10).value
            ref = li_integral_classical(n, z, tol=1e-10).value
            worst = max(worst, abs(inv - ref))
    ok = worst <= 1e-7
    _report(7, "inversion agreement", ok, f"worst |dev| {worst:.2e}")
    assert worst <= 1e-7


def test_criterion_8_removable_singularity_patches():
    table = bernoulli_numbers(8)
    exact_ok = True
    for n in (1, 2, 3):
        expected = (
            (1.0 - 2.0 ** (1 - 2 * n))
            * (2 * n + 1)
            * float(table[2 * n])
            / math.pi
        )
        exact_ok = exact_ok and tan_patch_value(n) == expected
    worst = 0.0
    for kind, n, upper in (("tan", 1, 0.5), ("tan", 2, 1.0), ("cot", 1, 1.0)):
        loose = integrate_adaptive(
            integrand_with_limits(kind, n, switch_scale=1e-7), 0.0, upper, tol=1e-12
        )
        tight = integrate_adaptive(
            integrand_with_limits(kind, n, switch_scale=1e-8), 0.0, upper, tol=1e-12
        )
        worst = max(worst, abs(loose.value - tight.value))
    ok = exact_ok and worst <= 1e-10
    _report(8, "singularity patches", ok, f"exact={exact_ok}, switch-window dev {worst:.2e}")
    assert exact_ok
    assert worst <= 1e-10


def test_criterion_9_chebyshev_generating_function():
    M = 60
    worst_excess = -1.0
    ok = True
    for theta in np.linspace(0.1, math.pi - 0.1, 7):
        x = math.cos(theta)
        tvals = [chebyshev_T(m, x) for m in range(M + 1)]
        for z in (0.9, -0.9, 0.5, 0.45 + 0.45j, 0.89j, 0.3 - 0.6j):
            acc = 1.0 + 0.0j
            zm = 1.0 + 0.0j
            for m in range(1, M + 1):
                zm *= z
                acc += 2.0 * tvals[m] * zm
            closed = (1.0 - z * z) / (1.0 - 2.0 * z * x + z * z)
            bound = 2.0 * abs(z) ** (M + 1) / (1.0 - abs(z))
            excess = abs(acc - closed) - bound
            worst_excess = max(worst_excess, excess)
            ok = ok and excess <= 1e-12
    _report(9, "Chebyshev generating bound", ok, f"worst bound excess {worst_excess:.2e}")
    assert ok
