import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lirep import (
    DomainError,
    Patch,
    PatchedIntegrand,
    gauss_kronrod_panel,
    integrand_with_limits,
    integrate_adaptive,
    tan_patch_value,
)
from lirep.bernoulli import bernoulli_number


class TestBasics:
    def test_constant(self):
        r = integrate_adaptive(lambda t: np.ones_like(t), 0.0, 1.0, tol=1e-10)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-14)
        assert r.evaluations > 0

    def test_full_period_sine(self):
        r = integrate_adaptive(lambda t: np.sin(2.0 * math.pi * t), 0.0, 1.0, tol=1e-12)
        assert abs(r.value) < 1e-12

    def test_log_two(self):
        r = integrate_adaptive(lambda t: 1.0 / (1.0 + t), 0.0, 1.0, tol=1e-10)
        assert r.value.real == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda t: t, 1.0, 0.0)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda t: t, 0.0, 1.0, tol=1e-15)

    @pytest.mark.parametrize("tol", [math.nan, -1e-10, 0.0])
    def test_tolerance_not_positive(self, tol):
        # nan < 1e-14 is False: a NaN tol must not slip past the floor and
        # burn the whole evaluation budget
        with pytest.raises(DomainError, match="tol must be positive"):
            integrate_adaptive(lambda t: t, 0.0, 1.0, tol=tol)

    def test_budget_exhaustion_flagged_not_raised(self):
        # a needle the budget cannot resolve
        def needle(t):
            return 1.0 / (1e-14 + (t - 0.123456) ** 2)

        r = integrate_adaptive(needle, 0.0, 1.0, tol=1e-12, max_evals=600)
        assert not r.converged
        assert r.evaluations <= 600

    def test_panels_toward_a_singular_endpoint(self):
        # t^-0.99 exhausts the budget bisecting toward t = 0, down to panels
        # whose width underflows; capped at e^700 so that the integrand stays
        # finite at every positive node, subnormal ones included. The panel
        # estimate must stay finite, with no overflow warning on the way.
        def f(t):
            return np.exp(np.minimum(-0.99 * np.log(t), 700.0))

        r = integrate_adaptive(f, 0.0, 1.0, tol=1e-12)
        assert not r.converged
        assert math.isfinite(r.error_estimate)

    def test_breakpoints_respected(self):
        calls = []

        def f(t):
            calls.append(t)
            return np.ones_like(t)

        integrate_adaptive(f, 0.0, 1.0, tol=1e-10, breakpoints=(0.25,))
        seen = np.concatenate(calls)
        assert seen.min() < 0.25 < seen.max()


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(degree=st.integers(min_value=0, max_value=22), seed=st.integers(0, 2**31))
    def test_polynomials_to_kronrod_degree(self, degree, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(-8, 9, size=degree + 1)
        exact = sum(
            Fraction(int(c), degree + 1 - i) for i, c in enumerate(coeffs)
        )  # integral over [0,1] of sum c_i x^{degree-i}

        def f(t):
            return np.polyval(coeffs.astype(float), t)

        got, _, _ = gauss_kronrod_panel(f, 0.0, 1.0)
        scale = max(1.0, float(sum(abs(Fraction(int(c), degree + 1 - i)) for i, c in enumerate(coeffs))))
        assert got.real == pytest.approx(float(exact), abs=2 * 2.3e-16 * scale)


# twenty closed-form integrals for the error-estimate honesty check
HONESTY_SUITE = [
    (lambda t: t**3 - 2.0 * t, 0.0, 2.0, 0.0),
    (lambda t: np.exp(t), 0.0, 1.0, math.e - 1.0),
    (lambda t: np.sin(t), 0.0, math.pi, 2.0),
    (lambda t: np.cos(10.0 * t), 0.0, 1.0, math.sin(10.0) / 10.0),
    (lambda t: 1.0 / (1.0 + t), 0.0, 1.0, math.log(2.0)),
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
    (lambda t: np.sqrt(t), 0.0, 1.0, 2.0 / 3.0),
    (lambda t: t ** 2.5, 0.0, 1.0, 2.0 / 7.0),
    (lambda t: np.log(1.0 + t), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
    (lambda t: t * np.exp(-t), 0.0, 10.0, 1.0 - 11.0 * math.exp(-10.0)),
    (lambda t: np.exp(-t * t), 0.0, 5.0, math.sqrt(math.pi) / 2.0 * math.erf(5.0)),
    (lambda t: np.cosh(t), 0.0, 1.0, math.sinh(1.0)),
    (lambda t: 1.0 / (2.0 + np.cos(t)), 0.0, 2.0 * math.pi, 2.0 * math.pi / math.sqrt(3.0)),
    (lambda t: t * np.sin(t), 0.0, 2.0 * math.pi, -2.0 * math.pi),
    (lambda t: np.exp(2j * math.pi * t), 0.0, 1.0, 0.0),
    (lambda t: (2.0 + 1j) * t * t, 0.0, 1.0, (2.0 + 1j) / 3.0),
    (lambda t: np.exp(1j * t), 0.0, math.pi / 2.0, 1.0 + 1j * 1.0 - 0.0 - 1j * 0.0),
    (lambda t: 1.0 / np.sqrt(4.0 - t * t), 0.0, 1.0, math.asin(0.5)),
    (lambda t: np.tan(t), 0.0, 1.0, -math.log(math.cos(1.0))),
    (lambda t: t ** 7 - t, -1.0, 1.0, 0.0),
]


class TestErrorHonesty:
    @pytest.mark.parametrize("case", range(len(HONESTY_SUITE)))
    def test_true_error_within_ten_estimates(self, case):
        f, a, b, exact = HONESTY_SUITE[case]
        r = integrate_adaptive(f, a, b, tol=1e-10)
        assert r.converged
        true_err = abs(r.value - exact)
        assert true_err <= 10.0 * max(r.error_estimate, 1e-16)
        assert true_err <= 1e-9


def _resumming_reference(f, a, b, tol, max_evals=100_000, breakpoints=()):
    """The adaptive integrator with the exact fsum of every panel's error
    before each stop test: the reference the running total must agree with
    bit for bit."""
    cuts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    heap, frozen, counter, evals = [], [], 0, 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v, e, _ = gauss_kronrod_panel(f, lo, hi)
        evals += 15
        heapq.heappush(heap, (-e, counter, lo, hi, v))
        counter += 1

    def total_error():
        return -math.fsum(i[0] for i in heap) - math.fsum(i[0] for i in frozen)

    converged = False
    while True:
        if total_error() <= tol:
            converged = True
            break
        if not heap or evals + 30 > max_evals:
            break
        item = heapq.heappop(heap)
        _, _, lo, hi, _ = item
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            frozen.append(item)
            continue
        for lo2, hi2 in ((lo, mid), (mid, hi)):
            v, e, _ = gauss_kronrod_panel(f, lo2, hi2)
            evals += 15
            heapq.heappush(heap, (-e, counter, lo2, hi2, v))
            counter += 1
    panels = sorted(heap + frozen, key=lambda item: item[2])
    value = complex(math.fsum(p[4].real for p in panels), math.fsum(p[4].imag for p in panels))
    return value, total_error(), evals, converged


def _singular_endpoint(t):
    return np.exp(np.minimum(-0.99 * np.log(t), 700.0))


class TestRunningTotal:
    """The integrator's running error total makes the stop decisions the full
    re-sum made: same values, estimates, evaluation counts and flags."""

    @pytest.mark.parametrize(
        "f,a,b,tol,kwargs",
        [(f, a, b, tol, {}) for f, a, b, _ in HONESTY_SUITE for tol in (1e-10, 1e-13)]
        + [
            (_singular_endpoint, 0.0, 1.0, 1e-12, {}),
            (_singular_endpoint, 0.0, 1.0, 1e-6, {"max_evals": 20_000}),
            (lambda t: 1.0 / (1e-14 + (t - 0.123456) ** 2), 0.0, 1.0, 1e-12, {"max_evals": 600}),
            (lambda t: np.exp((1j - 1.0) * t), 0.0, 40.0, 1e-12, {}),
            (lambda t: np.ones_like(t), 0.0, 1.0, 1e-10, {"breakpoints": (0.25,)}),
            (integrand_with_limits("tan", 3), 0.0, 0.5, 1e-12, {}),
            (integrand_with_limits("cot", 2), 0.0, 1.0, 1e-12, {}),
        ],
    )
    def test_same_as_full_resum(self, f, a, b, tol, kwargs):
        r = integrate_adaptive(f, a, b, tol=tol, **kwargs)
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == _resumming_reference(
            f, a, b, tol, **kwargs
        )

    @pytest.mark.parametrize("f", [_singular_endpoint, lambda t: 1.0 / np.sqrt(t), lambda t: np.abs(t - 0.3) ** 0.1])
    @pytest.mark.parametrize("evals", [315, 1515, 3015])
    def test_tol_equal_to_a_total_on_the_way(self, f, evals):
        # tol is the exact total some bisections in, where the running
        # total may sit an ulp off: the decision must go to the re-sum
        tol = integrate_adaptive(f, 0.0, 1.0, tol=1e-14, max_evals=evals).error_estimate
        r = integrate_adaptive(f, 0.0, 1.0, tol=tol)
        assert r.converged
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == _resumming_reference(f, 0.0, 1.0, tol)


class TestPatches:
    def test_exp_integral_cutoff_complex(self):
        # e^{it} e^{-t} over [0, 40]: closed form (1 - e^{(i-1)40})/(1 - i)/..
        def f(t):
            return np.exp((1j - 1.0) * t)

        r = integrate_adaptive(f, 0.0, 40.0, tol=1e-12)
        exact = (1.0 - np.exp((1j - 1.0) * 40.0)) / (1.0 - 1j)
        assert r.value == pytest.approx(complex(exact), abs=1e-11)

    def test_patch_overlap_rejected(self):
        with pytest.raises(ValueError):
            PatchedIntegrand(
                base=lambda t: t, patches=(Patch(0.0, 0.0, 0.3), Patch(0.5, 0.0, 0.3))
            )

    def test_patch_window_returns_limit(self):
        p = PatchedIntegrand(
            base=lambda t: np.sin(t) / t, patches=(Patch(0.0, 1.0, radius=0.1),)
        )
        vals = p(np.array([0.0, 1e-9, 0.5]))
        assert vals[0] == 1.0
        assert vals[1] == 1.0
        assert vals[2] == pytest.approx(math.sin(0.5) / 0.5, rel=1e-15)

    def test_tan_patch_value_n1(self):
        assert tan_patch_value(1) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)

    def test_tan_patch_value_matches_table(self):
        for n in (1, 2, 3, 4):
            expected = (
                (1.0 - 2.0 ** (1 - 2 * n))
                * (2 * n + 1)
                * float(bernoulli_number(2 * n))
                / math.pi
            )
            assert tan_patch_value(n) == expected

    def test_cot_patch_values_n1(self):
        f = integrand_with_limits("cot", 1)
        assert f.patches[0].limit == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert f.patches[1].limit == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    @pytest.mark.parametrize("kind,n", [("cot", 1), ("cot", 2), ("tan", 1), ("tan", 3)])
    def test_patch_continuity(self, kind, n):
        # limit value vs the nearest unpatched evaluation
        f = integrand_with_limits(kind, n)
        for p in f.patches:
            eps = 2.0 * p.radius * f.switch_scale
            probes = [p.point + eps, p.point - eps]
            probes = [q for q in probes if 0.0 <= q <= 1.0]
            for q in probes:
                val = f(np.array([q]))[0]
                assert abs(val - p.limit) <= 1e-6

    def test_limit_series_expansion_oracle(self):
        # B_3(t) cot(pi t) near t=0: (t^3 - 1.5 t^2 + 0.5 t) * (1/(pi t) - t pi/3 - ...)
        # leading term 0.5/pi; compare against a numerically evaluated approach
        f = integrand_with_limits("cot", 1)
        ts = np.array([1e-5, 1e-6, 1e-7])
        vals = f(ts)
        assert vals == pytest.approx(np.full(3, 0.5 / math.pi), abs=1e-5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tight_switch_window_changes_nothing(self, n):
        loose = integrand_with_limits("tan", n, switch_scale=1e-7)
        tight = integrand_with_limits("tan", n, switch_scale=1e-8)
        r1 = integrate_adaptive(loose, 0.0, 0.5, tol=1e-12)
        r2 = integrate_adaptive(tight, 0.0, 0.5, tol=1e-12)
        assert r1.converged and r2.converged
        assert abs(r1.value - r2.value) <= 1e-10
