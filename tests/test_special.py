import cmath
import math

import numpy as np
import pytest

from lirep import DomainError, PoleError, gamma_complex, hurwitz_zeta, riemann_zeta
from lirep.clausen import _stated_ulps

from oracles import zeta_direct, zeta_odd_lattice


class TestGamma:
    def test_gamma_one(self):
        assert gamma_complex(1) == pytest.approx(1.0, rel=1e-14)

    def test_factorial(self):
        assert gamma_complex(5) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        # cross-check via the reflection identity Gamma(s)Gamma(1-s) = pi/sin(pi s)
        g = gamma_complex(0.5)
        assert g * g == pytest.approx(math.pi, rel=1e-13)
        assert g.real == pytest.approx(1.7724538509055160, rel=1e-13)

    def test_recurrence_complex(self):
        for s in (2.3 + 1.1j, 0.7 - 2.0j, -1.3 + 0.4j, 5.5):
            lhs = gamma_complex(s + 1)
            rhs = s * gamma_complex(s)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_reflection_region(self):
        for s in (-0.5, -2.5, -0.5 + 1.0j):
            lhs = gamma_complex(s) * gamma_complex(1 - s)
            import cmath

            rhs = math.pi / cmath.sin(math.pi * s)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_poles(self):
        for s in (0, -1, -2, -7):
            with pytest.raises(PoleError):
                gamma_complex(s)


class TestRiemannZeta:
    def test_at_two(self):
        ref = zeta_direct(2)
        assert ref.real == pytest.approx(1.6449340668482264, abs=1e-13)
        assert riemann_zeta(2) == pytest.approx(ref, rel=1e-13)

    def test_at_three(self):
        ref = zeta_direct(3)
        assert ref.real == pytest.approx(1.2020569031595943, abs=1e-14)
        assert riemann_zeta(3) == pytest.approx(ref, rel=1e-13)

    def test_pole(self):
        with pytest.raises(PoleError):
            riemann_zeta(1)

    def test_complex_argument(self):
        s = 2.2 + 0.9j
        assert riemann_zeta(s) == pytest.approx(zeta_direct(s), rel=1e-12)

    def test_odd_lattice_form(self):
        # zeta(s) = 1/(1 - 2^-s) * sum over odd integers, at s = 3
        lhs = riemann_zeta(3).real
        rhs = zeta_odd_lattice(3.0) / (1.0 - 2.0 ** (-3.0))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize(
        "s,ref",
        [
            # mpmath 1.3.0, mpmath.zeta at 30 digits; past |Im s| ~ 35 the
            # accelerated eta sum alone is off by 6e-8 to 6e-4 here
            (0.5 + 50j, -0.08171210832097997 + 0.3307921940386613j),
            (1.5 + 80j, 1.1252349641525001 + 0.550466884723874j),
            (-2.5 + 60j, 546.2686900583683 + 581.4690944522927j),
        ],
    )
    def test_large_imaginary_part(self, s, ref):
        assert riemann_zeta(s) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize(
        "s",
        [10.9, 10.9 - 3j, 11.5, 11.5 + 2j, 20.0, 20.0 + 3j, 60.0 - 1.5j, 127.0, 127.0 + 3j,
         1e-4, 0.3, 3.7, 0.5 + 29j, 10.9 + 3j],
    )
    def test_direct_sum_region(self, s):
        # one weighted sum of the 48 terms k^-s serves all of Re s > 0 up
        # to |Im s| = 30: from next to 0, where the sum cancels most, to
        # Re s of 127, where its first term alone is zeta to binary64
        mpmath = pytest.importorskip("mpmath")
        s = complex(s)
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        assert abs(riemann_zeta(s) - ref) <= _stated_ulps(s) * abs(ref) * np.finfo(float).eps

    @pytest.mark.parametrize("distance", [1.1e-3, 5e-3, 2e-2])
    @pytest.mark.parametrize("j", [1, -1, 2, -2])
    def test_next_to_the_eta_zeros(self, j, distance):
        # At s = 1 + 2 pi i j / log 2 both the eta sum and 1 - 2^(1-s)
        # vanish, and their quotient amplifies the sum's rounding; the
        # points lie where |1 - 2^(1-s)| = distance, on four sides
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        for side in (1, 1j, -1, -1j):
            s = 1.0 + 2j * math.pi * j / math.log(2.0) - cmath.log(1.0 - distance * side) / math.log(2.0)
            with mpmath.workdps(30):
                ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
            assert abs(riemann_zeta(s) - ref) <= _stated_ulps(s) * abs(ref) * eps, s

    def test_negative_axis_continuation(self):
        # zeta(-1) = -1/12, zeta(0) = -1/2, trivial zeros at -2, -4
        assert riemann_zeta(-1).real == pytest.approx(-1.0 / 12.0, rel=1e-12)
        assert riemann_zeta(0).real == pytest.approx(-0.5, rel=1e-13)
        assert abs(riemann_zeta(-2)) < 1e-15
        assert abs(riemann_zeta(-4)) < 1e-15


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        assert hurwitz_zeta(2.5, 1) == pytest.approx(riemann_zeta(2.5), rel=1e-12)

    def test_half_shift(self):
        # zeta(2, 1/2) = pi^2/2, from 4 * sum over odd integers of n^-2
        ref = 4.0 * zeta_odd_lattice(2.0)
        assert ref == pytest.approx(math.pi * math.pi / 2.0, abs=1e-9)
        assert hurwitz_zeta(2, 0.5).real == pytest.approx(math.pi * math.pi / 2.0, rel=1e-12)

    def test_direct_series_region(self):
        for (s, a) in ((2.5, 0.3), (3.0, 1.7), (2 + 0.7j, 0.4)):
            K = 40_000
            k_sum = sum((k + a) ** (-complex(s)) for k in range(K))
            k_sum += (K + complex(a) - 0.5) ** (1.0 - complex(s)) / (complex(s) - 1.0)
            assert hurwitz_zeta(s, a) == pytest.approx(k_sum, rel=1e-10)

    def test_shift_identity(self):
        # zeta(s, a) = a^-s + zeta(s, a+1), valid in the continued region too
        for (s, a) in ((-1.5, 0.3), (-2.5, 0.6), (2.5, 0.2), (1 - (2 + 0.7j), 0.25)):
            lhs = hurwitz_zeta(s, a)
            rhs = complex(a) ** (-complex(s)) + hurwitz_zeta(s, complex(a) + 1)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_negative_s_closed_forms(self):
        # zeta(-n, a) = -B_{n+1}(a)/(n+1)
        from lirep import bernoulli_poly

        # strongly negative s runs into the documented cancellation floor
        # (partial sum mass ~ N^{1+|s|} eps), hence the absolute allowance
        for n in (1, 2, 3, 5):
            for a in (0.2, 0.5, 0.9):
                lhs = hurwitz_zeta(-float(n), a).real
                rhs = -bernoulli_poly(n + 1, a) / (n + 1)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=2e-11)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1, 0.5)
        with pytest.raises(DomainError):
            hurwitz_zeta(3, -1)
        with pytest.raises(DomainError):
            hurwitz_zeta(3, 0)


class TestHurwitzZetaArrays:
    """hurwitz_zeta at an array of shifts: the reflection route's call."""

    @pytest.mark.parametrize("s", [-0.6, -0.6 - 0.3j, -3.5 + 0.9j, 2.5, 0.4 + 2j])
    def test_matches_scalar_calls(self, s):
        a = np.array([[1e-3, 0.2, 0.5], [0.77, 0.999, 1.7]])
        batch = hurwitz_zeta(s, a)
        assert batch.shape == a.shape
        for idx in np.ndindex(a.shape):
            one = hurwitz_zeta(s, float(a[idx]))
            assert isinstance(one, complex)
            assert abs(batch[idx] - one) <= 1e-13 * abs(one)

    def test_accuracy_against_mpmath(self):
        # The reflection's arguments: 1 - s for 1 < Re s <= 5, 0 < a < 1.
        # Error against max(1, |zeta|) on these 200 points: 6.9e-13 worst and
        # 4.6e-14 mean (the scalar Python-complex version this replaced:
        # 6.9e-13 and 4.2e-14); with (k+a)^-s as exp(-s log(k+a)) instead
        # of a real power for the modulus, 5.9e-12 and 2.2e-13.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        errors = []
        for _ in range(50):
            s = 1.0 - complex(rng.uniform(1.05, 5.0), rng.choice([0.0, rng.uniform(-1.5, 1.5)]))
            a = rng.uniform(0.0, 1.0, 4)
            with mpmath.workdps(30):
                refs = [complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), mpmath.mpf(v))) for v in a]
            for got, ref in zip(hurwitz_zeta(s, a), refs):
                errors.append(abs(got - ref) / max(1.0, abs(ref)))
        assert max(errors) <= 1.5e-12
        assert sum(errors) / len(errors) <= 6e-14

    def test_complex_shifts(self):
        # a off the real axis takes the modulus and the argument apart
        for s in (2.5, -1.5 + 0.5j):
            a = np.array([0.3 + 0.4j, 1.2 - 0.7j])
            batch = hurwitz_zeta(s, a)
            for v, got in zip(a, batch):
                rhs = v ** (-complex(s)) + hurwitz_zeta(s, v + 1.0)
                assert got == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_domain_with_arrays(self):
        with pytest.raises(DomainError, match="undefined at a=-1"):
            hurwitz_zeta(3, np.array([0.5, -1.0]))
        with pytest.raises(DomainError, match="Re a > 0"):
            hurwitz_zeta(3, np.array([0.5, -0.5 + 1j]))


class TestNearSingularities:
    """Γ next to its poles and ζ next to its trivial zeros take sin(π w)
    with Re w first reduced exactly to the nearest integer; ζ next to s = 1
    takes 1 − 2^(1−s) as an expm1. Rounding π w, or 2^(1−s), cost these
    points up to 6e-11 and 3e-14 of relative accuracy."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("j", range(1, 9))
    def test_gamma_and_zeta_at_negative_integers(self, n, j):
        mpmath = pytest.importorskip("mpmath")
        for s in (-n + 10.0**-j, -n - 10.0**-j):
            with mpmath.workdps(30):
                g, z = complex(mpmath.gamma(s)), complex(mpmath.zeta(s))
            assert abs(gamma_complex(s) - g) <= 1e-14 * abs(g)
            assert abs(riemann_zeta(s) - z) <= 1e-14 * abs(z)

    @pytest.mark.parametrize("s", [1.1, 1.01, 1.002, 1.0015, 1.002 + 0.001j, 1.01 - 0.3j])
    def test_zeta_next_to_its_pole(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(complex(s).real, complex(s).imag)))
        assert abs(riemann_zeta(s) - ref) <= 4e-15 * abs(ref)
