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
    """The adaptive integrator with an exact fsum over the panels before
    each test against a bound: of their errors for the stop test at tol, of
    their errors less their floors (50 eps resabs) for the test at tol/8
    that closes a round. This is the reference the running totals must
    agree with bit for bit. Each round's halves go to gauss_kronrod_panel
    in one call, in the order the integrator makes them."""
    cuts = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    heap, frozen, evals = [], [], 0

    def add_panels(los, his):
        nonlocal evals
        for lo, hi, (v, e, resabs) in zip(los, his, gauss_kronrod_panel(f, np.array(los), np.array(his))):
            heapq.heappush(heap, (-e, evals // 15, lo, hi, v, e - 50.0 * 2.0**-52 * resabs))
            evals += 15

    def total_error():
        return -math.fsum(i[0] for i in heap) - math.fsum(i[0] for i in frozen)

    def total_excess():
        return math.fsum(i[5] for i in heap) + math.fsum(i[5] for i in frozen)

    add_panels(cuts[:-1], cuts[1:])
    converged = False
    while True:
        if total_error() <= tol:
            converged = True
            break
        split = []
        while heap and evals + 30 * (len(split) + 1) <= max_evals:
            if split and total_excess() <= tol / 8:
                break
            item = heapq.heappop(heap)
            _, _, lo, hi, _, _ = item
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                frozen.append(item)
                continue
            split.append((lo, mid, hi))
        if not split:
            break
        add_panels([x for lo, mid, hi in split for x in (lo, mid)], [x for lo, mid, hi in split for x in (mid, hi)])
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
        # total may sit an ulp off: the decision must go to the re-sum. The
        # rounds depend on tol, so tol is taken where the total a run at tol
        # ends with (at its budget or at its stop) is tol itself.
        tol = 1e-14
        for _ in range(20):
            total = integrate_adaptive(f, 0.0, 1.0, tol=tol, max_evals=evals).error_estimate
            if total == tol:
                break
            tol = total
        assert total == tol
        r = integrate_adaptive(f, 0.0, 1.0, tol=tol)
        assert r.converged
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == _resumming_reference(f, 0.0, 1.0, tol)


#: Evaluation counts (None where the budget ran out first) of HONESTY_SUITE
#: at tight tolerances, as counted when the quadrature bisected one panel
#: at a time.
_SERIAL_COUNTS = {
    1e-13: [15, 15, 15, 105, 45, 45, 795, 225, 15, 105, 165, 15, 195, None, 45, 15, 15, 15, 45, 15],
    1e-12: [15, 15, 15, 105, 15, 45, 705, 195, 15, 75, 105, 15, 165, 45, 45, 15, 15, 15, 45, 15],
}


class TestTightTolerances:
    """Where 50 eps times the integral of |f|, which the panels' error
    floors sum to however they are cut, lies between tol/8 and tol, a round
    must still end once the error above the floors is small: bisecting the
    floors away cannot work, and would only burn the budget."""

    @pytest.mark.parametrize("scale,tol", [(3.0, 1e-13), (30.0, 1e-12)])
    def test_sqrt_endpoint_in_the_floor_band(self, scale, tol):
        # the integral of |f| is 2 scale / 3: its floors come to between
        # tol/8 and tol; serial bisection converged in 825 evaluations
        r = integrate_adaptive(lambda t: scale * np.sqrt(t), 0.0, 1.0, tol=tol)
        assert r.converged
        assert r.evaluations <= 1.10 * 825
        assert abs(r.value - 2.0 * scale / 3.0) <= r.error_estimate

    @pytest.mark.parametrize("tol", sorted(_SERIAL_COUNTS))
    def test_suite_counts_near_serial_bisection(self, tol):
        # A round may bisect a panel or two that serial bisection stopped
        # short of; per case that is at most one bisection (30 evaluations)
        # over a tenth more, over the suite at most a tenth more.
        counts = []
        for (f, a, b, _), serial in zip(HONESTY_SUITE, _SERIAL_COUNTS[tol]):
            r = integrate_adaptive(f, a, b, tol=tol)
            assert r.converged == (serial is not None)
            if serial is not None:
                assert r.evaluations <= 1.10 * serial + 30
                counts.append((r.evaluations, serial))
        assert sum(n for n, _ in counts) <= 1.10 * sum(serial for _, serial in counts)


class TestBudget:
    def test_a_round_stops_at_the_budget(self):
        # 700 evaluations, not 15 plus a multiple of 30, pay for the first
        # seven calls (41 panels, 615 evaluations) and two bisections of
        # the eighth round, which bisects twelve panels when the budget
        # allows
        def needle(t):
            return 1.0 / (1e-14 + (t - 0.123456) ** 2)

        rows = []

        def f(t):
            rows.append(len(t))
            return needle(t)

        r = integrate_adaptive(f, 0.0, 1.0, tol=1e-12, max_evals=700)
        cut = list(rows)
        rows.clear()
        integrate_adaptive(f, 0.0, 1.0, tol=1e-12, max_evals=100_000)
        assert not r.converged
        assert 700 - 30 < r.evaluations <= 700
        assert cut[:-1] == rows[: len(cut) - 1]
        assert cut[-1] < rows[len(cut) - 1]
        assert (r.value, r.error_estimate, r.evaluations, r.converged) == _resumming_reference(
            needle, 0.0, 1.0, 1e-12, max_evals=700
        )


class TestPanelBatches:
    """An array of panels goes to f in one call, one panel a row, and each
    row's result is that of the panel's own call."""

    @pytest.mark.parametrize(
        "f",
        [
            lambda t: np.exp(t),
            lambda t: np.exp(14j * math.pi * t),
            lambda t: np.sin(40.0 * t) * (1.0 + 1j * t),
            lambda t: np.abs(t - 0.3) ** 0.1,
            _singular_endpoint,
        ],
    )
    def test_rows_agree_with_single_panels(self, f):
        rng = np.random.default_rng(7)
        lo = np.sort(rng.random(12))
        lo[0] = 0.0
        hi = lo + rng.random(12) * 0.3
        hi[0] = 1e-300  # a panel at a singular endpoint
        shapes = []

        def spy(t):
            shapes.append(t.shape)
            return f(t)

        rows = gauss_kronrod_panel(spy, lo, hi)
        assert shapes == [(12, 15)]
        for (value, err, _), a, b in zip(rows, lo.tolist(), hi.tolist()):
            one, one_err, _ = gauss_kronrod_panel(f, a, b)
            assert abs(value - one) <= 2 * np.spacing(abs(one))
            assert abs(err - one_err) <= 2 * np.spacing(one_err)


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
