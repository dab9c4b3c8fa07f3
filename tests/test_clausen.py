import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lirep import (
    DomainError,
    ExclusionError,
    chebyshev_T,
    clausen_bernoulli,
    clausen_direct,
    clausen_via_hurwitz,
    riemann_zeta,
)
import lirep.clausen as cl
from lirep.clausen import (
    _CHUNK,
    _REFLECTION_THRESHOLD,
    _expansion_pair,
    _pair_cheapest,
    _planned_terms,
    _series_pair,
    _stated_ulps,
    _truncation_index,
)
from lirep.quadrature import NODES
from lirep.special import _sin_pi, gamma_complex

from oracles import alternating_odd_cubes, clausen_c_brute, clausen_s1, clausen_s_brute

TWO_PI = 2.0 * math.pi


class TestClausenDirect:
    def test_sin_vanishes_at_zero(self):
        assert clausen_direct(2.5, 0.0).sin_part == 0

    def test_cos_at_zero_is_zeta(self):
        v = clausen_direct(2.0, 0.0)
        assert v.cos_part == pytest.approx(riemann_zeta(2), rel=1e-12)

    def test_s3_quarter_period(self):
        # S_3(pi/2) reduces to the alternating odd-cube series = pi^3/32
        ref = alternating_odd_cubes()
        assert ref == pytest.approx(math.pi**3 / 32.0, abs=1e-12)
        v = clausen_direct(3.0, math.pi / 2.0)
        assert v.sin_part.real == pytest.approx(ref, abs=1e-11)

    def test_raw_series_matches_brute_force(self):
        v = clausen_direct(2.5, 1.9, tol=1e-11)
        assert v.sin_part.real == pytest.approx(clausen_s_brute(2.5, 1.9), abs=1e-9)
        assert v.cos_part.real == pytest.approx(clausen_c_brute(2.5, 1.9), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            clausen_direct(1.0, 0.5)
        with pytest.raises(DomainError):
            clausen_direct(0.5 + 2.0j, 0.5)

    def test_periodicity_and_parity(self):
        a = clausen_direct(2.5, 1.1)
        b = clausen_direct(2.5, 1.1 + TWO_PI)
        assert a.sin_part == pytest.approx(b.sin_part, abs=1e-10)
        assert a.cos_part == pytest.approx(b.cos_part, abs=1e-10)
        c = clausen_direct(2.5, -1.1)
        assert c.sin_part == pytest.approx(-a.sin_part, abs=1e-10)
        assert c.cos_part == pytest.approx(a.cos_part, abs=1e-10)

    def test_real_for_real_order(self):
        v = clausen_direct(3.3, 2.2)
        assert v.sin_part.imag == 0.0
        assert v.cos_part.imag == 0.0

    def test_series_where_reflection_excluded(self):
        # past the reflection threshold, but within the exclusion window of
        # order 2: the weight falls back to the series, with no exception
        for s in (2 + 1e-9 + 0j, 2 + 1e-9j):
            assert _planned_terms(s, math.sin(0.015), 1e-10) > _REFLECTION_THRESHOLD
            assert _pair_cheapest(s, 0.03, 1e-10) == _series_pair(s, 0.03, 1e-10)

    def test_direct_is_the_series_past_the_reflection_threshold(self):
        # 1.74e6 planned terms, where the node cache takes the reflection:
        # clausen_direct still sums the series, so the two stay independent
        s, x, tol = 2.5 + 0j, 1e-3, 1e-12
        assert _planned_terms(s, math.sin(0.5 * x), tol) > _REFLECTION_THRESHOLD
        v = clausen_direct(s, x, tol)
        assert (v.sin_part, v.cos_part) == _series_pair(s, x, tol)
        h = clausen_via_hurwitz(s, x / TWO_PI)
        assert abs(v.sin_part - h.sin_part) <= 1e-11
        assert abs(v.cos_part - h.cos_part) <= 1e-11


def _plain_series(s: complex, x: float, terms: int) -> tuple[complex, complex]:
    """sum_{k <= terms} k^-s (sin kx, cos kx) with one sin and one cos per
    term, in chunks of 2^20 terms."""
    sin_sum = cos_sum = 0j
    for lo in range(1, terms + 1, 1 << 20):
        k = np.arange(lo, min(lo + (1 << 20), terms + 1), dtype=float)
        coeff = np.exp(-s * np.log(k))
        sin_sum += coeff.dot(np.sin(k * x))
        cos_sum += coeff.dot(np.cos(k * x))
    return sin_sum, cos_sum


def _check_against_plain_series(s: complex, x: float, tol: float) -> int:
    # both sum the same terms, so they agree to rounding (the plain sum's
    # own reaches 2e-14 over 2.8M terms); a misplaced term shows far above
    terms = _truncation_index(s, abs(math.sin(0.5 * math.remainder(x, TWO_PI))), tol)
    got = _series_pair(s, x, tol)
    ref = _plain_series(s, x, terms)
    assert abs(got[0] - ref[0]) <= 1e-12
    assert abs(got[1] - ref[1]) <= 1e-12
    return terms


class TestSeriesKernel:
    """The block angle-addition series against plain sin/cos summation of
    the same terms."""

    @pytest.mark.parametrize("x", [1e-3, 0.9, math.pi, TWO_PI - 1e-3, -1.1, 7.5])
    @pytest.mark.parametrize("s", [3.3, 3.5 + 0.6j, 4.4 - 0.9j, 3.00001])
    def test_matches_plain_summation(self, s, x):
        _check_against_plain_series(complex(s), x, 1e-11)

    def test_past_the_power_memo(self):
        # over 2^16 terms, all their coefficients in one chunk of k^-s
        assert _check_against_plain_series(2.5 + 0j, 0.01, 1e-11) > 1 << 16

    @pytest.mark.parametrize("s", [2 + 1e-9, 2 + 1e-9j])
    def test_two_chunks(self, s):
        # the second chunk starts at k = _CHUNK + 1; a wrong block offset
        # shows only there
        assert _check_against_plain_series(complex(s), 0.005, 1e-10) > _CHUNK


def _mp_pair(s: complex, x: float, dps: int = 30) -> tuple[complex, complex]:
    """(S_s(x), C_s(x)) from mpmath's polylog at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        sm = mpmath.mpc(s.real, s.imag)
        plus = mpmath.polylog(sm, mpmath.expj(x))
        minus = mpmath.polylog(sm, mpmath.expj(-x))
        return complex((plus - minus) / 2j), complex((plus + minus) / 2)


def _route(s: complex, x: float, tol: float) -> str:
    """R (reflection), A (2^14 terms or more, alone in its block) or S (in
    a block it may share): what _pair_cheapest does with this node when the
    expansion declines the call and the node is the one nearest the 2*pi
    lattice; every node of the call takes R or the series with it."""
    sin_half = abs(math.sin(0.5 * math.remainder(x, TWO_PI)))
    if _planned_terms(s, sin_half, tol) > _REFLECTION_THRESHOLD:
        return "R"
    return "A" if _truncation_index(s, sin_half, tol) >= 1 << 14 else "S"


class TestBatchedWeights:
    """One route for a whole panel of nodes, in one call: the expansion
    where its bound holds, otherwise picked at the node nearest the 2*pi
    lattice."""

    @pytest.mark.parametrize(
        "s,tol,xs,routes",
        [
            # every series class in one array, and nodes next to both
            # lattice points, which send the whole call to the reflection
            (1.5 + 0.3j, 1e-4, [2e-5, 6e-4, 0.02, 1.0, 2.0, 3.0, 4.0, TWO_PI - 2e-5], "RASSSSSR"),
            (3.4, 1e-10, list(TWO_PI * (0.375 + 0.125 * NODES)), "S" * 15),
            (3.4 + 0.5j, 1e-10, list(TWO_PI * (0.03125 + 0.03125 * NODES)), "S" * 15),
            (4.2, 1e-11, list(TWO_PI * (0.03125 + 0.03125 * NODES)), "S" * 15),
            (1.6, 1e-10, list(TWO_PI * (0.9375 + 0.0625 * NODES)), "R" * 15),
        ],
    )
    def test_panel_against_mpmath(self, s, tol, xs, routes):
        s = complex(s)
        assert "".join(_route(s, x, tol) for x in xs) == routes
        refs = [_mp_pair(s, x) for x in xs]
        for x, ref, sin_part, cos_part in zip(xs, refs, *_pair_cheapest(s, np.array(xs), tol)):
            assert abs(sin_part - ref[0]) <= tol
            assert abs(cos_part - ref[1]) <= tol
        series = [i for i, r in enumerate(routes) if r != "R"]
        got = _series_pair(s, np.array(xs)[series], tol)
        for i, sin_part, cos_part in zip(series, *got):
            assert abs(sin_part - refs[i][0]) <= tol
            assert abs(cos_part - refs[i][1]) <= tol

    def test_blocks_of_two_to_eight_nodes(self):
        # 2^11 to 2^14 terms: three bit lengths, so blocks of 8, 4 and 2
        # nodes, each node summed to its block's largest index
        s, tol = 3.2 + 0.6j, 1e-11
        xs = TWO_PI * (0.12625 + 0.12375 * NODES)
        terms = [_truncation_index(s, abs(math.sin(0.5 * x)), tol) for x in xs]
        assert {k.bit_length() for k in terms} == {12, 13, 14}
        got = _series_pair(s, xs, tol)
        for x, sin_part, cos_part in zip(xs, *got):
            ref = _mp_pair(s, x)
            assert abs(sin_part - ref[0]) <= tol
            assert abs(cos_part - ref[1]) <= tol

    def test_nodes_on_the_lattice(self):
        # x = 0 (mod 2 pi) sums to S = 0, C = zeta(s) wherever it sits in the array
        s, tol = 2.5 + 0.4j, 1e-11
        xs = np.array([[0.0, 1.0], [TWO_PI, -TWO_PI]])
        zeta = riemann_zeta(s)
        for sin_part, cos_part in (_series_pair(s, xs, tol), _pair_cheapest(s, xs, tol)):
            assert sin_part.shape == cos_part.shape == (2, 2)
            on = [(0, 0), (1, 0), (1, 1)]
            assert all(sin_part[i] == 0.0 and cos_part[i] == zeta for i in on)
            ref = _mp_pair(s, 1.0)
            assert abs(sin_part[0, 1] - ref[0]) <= tol
            assert abs(cos_part[0, 1] - ref[1]) <= tol
        assert abs(zeta - _mp_pair(s, 0.0)[1]) <= 1e-13

    def test_mixed_call_is_reflected_whole(self):
        # one node past the threshold takes every node to the reflection,
        # also those whose own series is short; at |Im s| = 80 the
        # expansion's table would be too long for the node at x = 3
        s, tol = 1.5 + 80j, 1e-4
        xs = np.array([2e-5, 6e-4, 0.02, 1.0, 2.0, 3.0, 4.0])
        assert _expansion_pair(s, xs, tol) is None
        assert "".join(_route(s, x, tol) for x in xs) == "RRAASSS"
        got = _pair_cheapest(s, xs, tol)
        want = clausen_via_hurwitz(s, xs / TWO_PI)
        assert np.array_equal(got[0], want.sin_part) and np.array_equal(got[1], want.cos_part)
        for x, sin_part, cos_part in zip(xs, *got):
            ref = _mp_pair(s, x)
            assert abs(sin_part - ref[0]) <= tol
            assert abs(cos_part - ref[1]) <= tol

    def test_lattice_node_sends_a_far_node_to_the_series(self):
        # the reflection is undefined on the lattice, so a node there takes
        # its neighbour, which alone would be reflected, to the series; a
        # millionth from order 2 the expansion's pole pair cancels too much
        s, tol = 2.000001 + 0j, 1e-8
        xs = np.array([0.0, 2e-5, 1.0])
        assert _expansion_pair(s, xs, tol) is None
        assert _route(s, 2e-5, tol) == "R"
        got = _pair_cheapest(s, xs, tol)
        want = _series_pair(s, xs, tol)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for x, sin_part, cos_part in zip(xs[1:], got[0][1:], got[1][1:]):
            ref = _mp_pair(s, x)
            assert abs(sin_part - ref[0]) <= tol
            assert abs(cos_part - ref[1]) <= tol

    @pytest.mark.parametrize("s", [2 + 1e-9 + 0j, 2 + 1e-9j])
    def test_exclusion_window_takes_the_series_for_the_whole_call(self, s):
        xs = np.array([0.03, 0.05, 1.0])
        tol = 1e-10
        assert _route(s, 0.03, tol) == "R"
        got = _pair_cheapest(s, xs, tol)
        want = _series_pair(s, xs, tol)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for x, sin_part, cos_part in zip(xs, *got):
            ref = _mp_pair(s, x)
            assert abs(sin_part - ref[0]) <= tol
            assert abs(cos_part - ref[1]) <= tol

    def test_reflection_array_matches_scalar_calls(self):
        for s in (1.6, 2.5 + 0.7j, 4.4 - 0.9j):
            t = np.array([1e-3, 0.2, 0.5, 0.77, 0.999])
            batch = clausen_via_hurwitz(s, t)
            assert batch.x.shape == t.shape
            for i, ti in enumerate(t):
                one = clausen_via_hurwitz(s, float(ti))
                assert abs(batch.sin_part[i] - one.sin_part) <= 1e-13 * abs(one.sin_part)
                assert abs(batch.cos_part[i] - one.cos_part) <= 1e-13 * abs(one.cos_part)
                ref = _mp_pair(complex(s), TWO_PI * ti)
                assert abs(batch.sin_part[i] - ref[0]) <= 1e-10
                assert abs(batch.cos_part[i] - ref[1]) <= 1e-10
        with pytest.raises(DomainError):
            clausen_via_hurwitz(2.5, np.array([0.3, 1.0]))

    def test_long_series_share_coefficients(self, monkeypatch):
        # every node of 2^14 terms or more sums its own terms, as alone, and
        # one chunk of coefficients is computed once for all of them: also
        # for a node of under 2^16 terms, which takes the chunk's last ones
        s, tol = 2.5 + 0j, 1e-11
        xs = np.array([0.01, 0.011, 0.02, math.pi])
        assert {_route(s, x, tol) for x in xs} == {"A"}
        assert _truncation_index(s, 1.0, tol) < 1 << 16
        alone = [_series_pair(s, x, tol) for x in xs]
        powers = cl._inverse_powers
        calls = []

        def spy(s, k):
            calls.append(len(k))
            return powers(s, k)

        monkeypatch.setattr(cl, "_inverse_powers", spy)
        sin_part, cos_part = _series_pair(s, xs, tol)
        assert len(calls) == 1
        assert list(zip(sin_part.tolist(), cos_part.tolist())) == alone


#: Orders for the expansion's grid: the expansion at ordinary, large-Re
#: and large-|Im| orders, and n ± 10^-j, where its pole pair cancels and the
#: bound hands more and more nodes to the series or the reflection.
EXPANSION_ORDERS = [1.05, 1.5 + 0.3j, 2.5, 3.2 + 0.6j, 4.4 - 0.9j, 12.5, 2.5 + 20j] + [
    n + sign * 10.0**-j for n in range(2, 6) for j in range(1, 7) for sign in (1, -1)
]
EXPANSION_NODES = [0.0, 1e-8, math.pi, TWO_PI - 1e-3, -1.1, TWO_PI + 1.1]


def _reference_pair(s: complex, x: float, tol: float):
    """(S_s(x), C_s(x)) from mpmath at 20 digits, or without mpmath from the
    series (clausen_direct) at tol/10 where it takes at most 2^22 terms;
    None where neither reaches."""
    try:
        import mpmath  # noqa: F401
    except ImportError:
        sin_half = abs(math.sin(0.5 * math.remainder(x, TWO_PI)))
        if sin_half and _planned_terms(s, sin_half, 0.1 * tol) > 1 << 22:
            return None
        v = clausen_direct(s, x, 0.1 * tol)
        return v.sin_part, v.cos_part
    return _mp_pair(s, x, dps=20)


class TestExpansion:
    """The expansion of Li_s(e^iy) about y = 0 and the bound that decides
    where it runs."""

    @pytest.mark.parametrize("s", EXPANSION_ORDERS)
    def test_grid_within_tol_whichever_branch(self, s):
        # each node is a call of its own, so each takes the branch its own
        # bound picks. At tol 1e-9 that is the expansion or the series; at
        # 1e-10 the bound hands x = 2 pi - 1e-3 at 2 ± 1e-6 to the
        # reflection, which misses there by 1.2e-8 next to an even order
        s, tol = complex(s), 1e-9
        checked = 0
        for x in EXPANSION_NODES:
            ref = _reference_pair(s, x, tol)
            if ref is None:
                continue
            sin_part, cos_part = _pair_cheapest(s, x, tol)
            assert abs(sin_part - ref[0]) <= tol, (x, _expansion_pair(s, x, tol) is not None)
            assert abs(cos_part - ref[1]) <= tol, (x, _expansion_pair(s, x, tol) is not None)
            checked += 1
        if not checked:
            pytest.skip("no reference within reach without mpmath")

    def test_branch_taken_where_expected(self):
        tol = 1e-10
        for s in (2.5, 3.2 + 0.6j, 12.5, 1.05):
            assert _expansion_pair(complex(s), math.pi, tol) is not None
        # integer orders and Re s <= 1 outright; near-integer orders and
        # large |Im s| by the bound, at large |y|
        for s, x in ((3.0, 1.0), (1.0 + 0.5j, 1.0), (3.0001, math.pi), (2.5 + 20j, math.pi)):
            assert _expansion_pair(complex(s), x, tol) is None
        # near the lattice the near-integer order's pole pair is small
        assert _expansion_pair(3.0001 + 0j, 1e-3, tol) is not None

    def test_panel_and_scalar_calls_agree(self):
        s, tol = 3.2 + 0.6j, 1e-11
        xs = TWO_PI * (0.25 + 0.25 * NODES)
        sin_part, cos_part = _expansion_pair(s, xs, tol)
        assert sin_part.shape == cos_part.shape == xs.shape
        for x, a, b in zip(xs, sin_part, cos_part):
            ref = _mp_pair(s, x, dps=20)
            assert abs(a - ref[0]) <= tol and abs(b - ref[1]) <= tol

    @pytest.mark.parametrize(
        "s",
        [1.05, 1.5 + 0.3j, 3.2 + 0.6j, 4.4 - 0.9j, 12.5, 2.5 + 20j, 3.0001, 1.999999, 2.001 + 0.001j,
         4.002 - 18.13j],
    )
    def test_stated_accuracy_and_table_errors(self, s):
        # riemann_zeta and gamma_complex within _stated_ulps at the (rounded)
        # arguments the table takes, and every table entry within its own
        # bound of ζ(s − k)/k! at the exact s − k; at 4.002 − 18.13i the
        # entry k = 3 lies next to the eta zero 1 − 2πi·2/log 2
        mpmath = pytest.importorskip("mpmath")
        s = complex(s)
        eps = np.finfo(float).eps
        terms, ulps = cl._ZetaTable(s).terms(96)

        def close(got, ref, ulps):
            return abs(got - complex(ref)) <= ulps * eps

        with mpmath.workdps(30):
            mp_s = mpmath.mpc(s.real, s.imag)
            g = mpmath.gamma(1 - mp_s)
            assert close(gamma_complex(1.0 - s), g, _stated_ulps(1.0 - s) * abs(g))
            for got, ref in ((_sin_pi(0.5 * s), mpmath.sinpi(mp_s / 2)), (_sin_pi(0.5 - 0.5 * s), mpmath.cospi(mp_s / 2))):
                assert close(got, ref, _stated_ulps(s) * abs(ref))
            for k in range(96):
                w = s - k
                ref = mpmath.zeta(mpmath.mpc(w.real, w.imag))
                assert close(riemann_zeta(w), ref, _stated_ulps(w) * abs(ref)), k
                assert close(terms[k], mpmath.zeta(mp_s - k) / mpmath.factorial(k), ulps[k]), k

    def test_table_rows_whatever_the_order_of_requests(self, monkeypatch):
        # a table asked for 9, then 41, then 17 entries computes each entry
        # once, in order, and its first 9 rows are those of a fresh table
        # asked for 17 first, bit for bit: the last row always holds both
        # of its entries
        zeta, calls = cl._zeta_scaled, []

        def spy(w):
            calls.append(w)
            return zeta(w)

        monkeypatch.setattr(cl, "_zeta_scaled", spy)
        s = 3.7 + 0.4j
        table = cl._ZetaTable(s)
        for n in (9, 41, 17):
            rows = table.columns(n)
            assert len(rows) == (n + 1) // 2
        assert calls == [s - k for k in range(42)]
        assert np.array_equal(rows, cl._ZetaTable(s).columns(17))
        # the entries unsigned, as the rows were built from them
        terms, _ = table.terms(17)
        assert terms.tolist() == [riemann_zeta(s - k) / math.factorial(k) for k in range(17)]

    def test_entries_next_to_trivial_zeros(self):
        # s − k for k > 2 Re s is rounded; next to a trivial zero of ζ that
        # moves the entry far beyond its relative accuracy, and the entry's
        # bound must hold all the same
        mpmath = pytest.importorskip("mpmath")
        s = 2.0 - 1e-8
        terms, ulps = cl._ZetaTable(complex(s)).terms(40)
        with mpmath.workdps(40):
            exact = [mpmath.zeta(mpmath.mpf(s) - k) / mpmath.factorial(k) for k in range(40)]
        rel = abs(terms[10] - complex(exact[10])) / abs(complex(exact[10]))
        assert rel > 1e-9
        for k in range(40):
            assert abs(terms[k] - complex(exact[k])) <= ulps[k] * np.finfo(float).eps, k


    @pytest.mark.parametrize("s", [2.5 + 21.022039639j, 2.75, 3.25 + 0.75j, 3.00001, 3.7 + 0.2j])
    def test_entries_in_the_critical_strip(self, s):
        # an entry with 0 < Re(s − k) < 1 can sit next to a nontrivial zero
        # of ζ: at 2.5 + 21.022039639i the entry k = 2 is off by 8.0e-16,
        # which a bound relative to |ζ(s − k)| put at 5.8e-24
        mpmath = pytest.importorskip("mpmath")
        s = complex(s)
        n = math.floor(s.real) + 1
        terms, ulps = cl._ZetaTable(s).terms(n)
        with mpmath.workdps(40):
            mp_s = mpmath.mpc(s.real, s.imag)
            exact = [complex(mpmath.zeta(mp_s - k) / mpmath.factorial(k)) for k in range(n)]
        for k in range(n):
            assert abs(terms[k] - exact[k]) <= ulps[k] * np.finfo(float).eps, k


class TestClausenBernoulli:
    def test_s1_quarter(self):
        ref = clausen_s1(math.pi / 2.0)
        assert ref == pytest.approx(math.pi / 4.0, abs=1e-9)
        assert clausen_bernoulli("sin", 1, math.pi / 2.0) == pytest.approx(ref, abs=1e-9)

    def test_c2_zero(self):
        assert clausen_bernoulli("cos", 2, 0.0) == pytest.approx(
            math.pi**2 / 6.0, rel=1e-14
        )

    def test_s3_half_period(self):
        assert clausen_bernoulli("sin", 3, math.pi) == pytest.approx(0.0, abs=1e-16)

    def test_endpoint_exclusion_for_order_one(self):
        with pytest.raises(DomainError):
            clausen_bernoulli("sin", 1, 0.0)
        with pytest.raises(DomainError):
            clausen_bernoulli("sin", 1, TWO_PI)

    def test_parity_mismatch(self):
        with pytest.raises(DomainError):
            clausen_bernoulli("sin", 2, 1.0)
        with pytest.raises(DomainError):
            clausen_bernoulli("cos", 3, 1.0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_against_series(self, order):
        channel = "sin" if order % 2 else "cos"
        for t in (0.1, 0.3, 0.45, 0.7, 0.9):
            x = TWO_PI * t
            closed = clausen_bernoulli(channel, order, x)
            # a numpy integer order is the Python int's, bit for bit
            assert clausen_bernoulli(channel, np.int64(order), x) == closed
            if order == 1:
                ref = clausen_s1(x)
                assert closed == pytest.approx(ref, abs=2e-9)
            else:
                v = clausen_direct(float(order), x, tol=1e-10)
                ref = v.sin_part.real if channel == "sin" else v.cos_part.real
                assert closed == pytest.approx(ref, abs=1e-9)


class TestClausenViaHurwitz:
    def test_agrees_with_direct(self):
        for s in (2.5, 3.5, 2 + 0.7j):
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                h = clausen_via_hurwitz(s, t)
                d = clausen_direct(s, TWO_PI * t, tol=1e-11)
                assert h.sin_part == pytest.approx(d.sin_part, abs=1e-9)
                assert h.cos_part == pytest.approx(d.cos_part, abs=1e-9)

    def test_even_order_excluded(self):
        with pytest.raises(ExclusionError, match="sin"):
            clausen_via_hurwitz(2, 0.3)

    def test_odd_order_excluded(self):
        with pytest.raises(ExclusionError, match="cos"):
            clausen_via_hurwitz(3, 0.3)

    def test_near_integer_rejected(self):
        with pytest.raises(ExclusionError):
            clausen_via_hurwitz(4.0 + 1e-9, 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            clausen_via_hurwitz(2.5, 0.0)
        with pytest.raises(DomainError):
            clausen_via_hurwitz(2.5, 1.0)


class TestChebyshev:
    def test_t0(self):
        assert chebyshev_T(0, 0.3) == 1.0

    def test_t1(self):
        assert chebyshev_T(1, 0.7) == 0.7

    def test_t3_at_half(self):
        # T_3(cos(pi/3)) = cos(pi) = -1
        assert chebyshev_T(3, 0.5) == pytest.approx(-1.0, abs=1e-15)

    @settings(max_examples=200)
    @given(
        m=st.integers(min_value=0, max_value=40),
        theta=st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_defining_identity(self, m, theta):
        assert chebyshev_T(m, math.cos(theta)) == pytest.approx(
            math.cos(m * theta), abs=1e-10
        )

    def test_generating_function_partial_sums(self):
        # |1 + 2 sum T_m(cos t) z^m - (1-z^2)/(1-2z cos t + z^2)| <= 2|z|^{M+1}/(1-|z|)
        M = 60
        for t in (0.3, 1.0, 2.0, 3.0):
            x = math.cos(t)
            for z in (0.9, -0.9, 0.5, 0.6j, 0.63 + 0.63j):
                acc = 1.0 + 0.0j
                zm = 1.0 + 0.0j
                for m in range(1, M + 1):
                    zm *= z
                    acc += 2.0 * chebyshev_T(m, x) * zm
                closed = (1.0 - z * z) / (1.0 - 2.0 * z * x + z * z)
                bound = 2.0 * abs(z) ** (M + 1) / (1.0 - abs(z))
                assert abs(acc - closed) <= bound + 1e-12
