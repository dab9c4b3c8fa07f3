import cmath
import math

import numpy as np
import pytest

from lirep import (
    DomainError,
    PolylogRequest,
    RepresentationTag,
    ResourceLimitError,
    li_bernoulli_even,
    li_bernoulli_odd,
    li_eval,
    li_integral_classical,
    li_series,
    li_theorem_cos,
    li_theorem_sin,
    riemann_zeta,
)
import lirep.clausen as cl
import lirep.polylog as pl
import lirep.quadrature as qd
from lirep.polylog import _node_cache
from lirep.quadrature import gauss_kronrod_panel, integrate_adaptive

from oracles import li_brute, zeta_direct

EPS = 2.0**-52

LI2_HALF = 0.5822405264650125  # pi^2/12 - log(2)^2/2
LI2_MINUS_HALF = -0.4484142069236462


def _li_reference(s, z):
    """Li_s(z) and a bound on the reference's own error: mpmath at 30
    digits, or without mpmath oracles.li_brute, charged with its tail and,
    per term, the eps (4 + |s| ln k + k |log z|) rounding of np.power."""
    try:
        import mpmath
    except ImportError:
        terms = 1 << 17
        value, tail = li_brute(s, z, terms)
        k = np.arange(1, terms + 1, dtype=float)
        per_term = 4.0 + abs(s) * np.log(k) + k * abs(cmath.log(z))
        return value, tail + EPS * float(per_term.dot(abs(z) ** k * k ** -complex(s).real))
    with mpmath.workdps(30):
        return complex(mpmath.polylog(s, z)), 0.0


class TestSeries:
    def test_zero_argument(self):
        r = li_series(3.7 - 1.0j, 0.0)
        assert r.value == 0.0
        assert r.route is RepresentationTag.SERIES

    def test_li1_is_log(self):
        r = li_series(1, 0.5, tol=1e-12)
        assert r.value.real == pytest.approx(math.log(2.0), abs=1e-12)

    def test_li2_half(self):
        brute, bound = li_brute(2, 0.5, 200)
        assert bound < 1e-12
        assert brute.real == pytest.approx(LI2_HALF, abs=1e-12)
        r = li_series(2, 0.5, tol=1e-12)
        assert r.value.real == pytest.approx(LI2_HALF, abs=1e-12)

    def test_reported_bound_is_honest(self):
        for (s, z) in ((2, 0.5), (2.5, -0.8), (1.5, 0.9j), (3, 0.95), (0.5, 0.6j)):
            r = li_series(s, z, tol=1e-10)
            brute, bbound = li_brute(s, z, 4_000_000 // 100)
            assert abs(r.value - brute) <= r.error_estimate + bbound + 1e-15

    @pytest.mark.parametrize("s", [-2.5, -0.58, 0.3, 1.5, 3 + 2j])
    def test_estimate_counts_rounding(self, s):
        # Near |z| = 1 rounding, not the tail, sets the error. An estimate of
        # the tail alone gave 1.7e-21 at s = -0.5791, z = -0.31687+0.94654i,
        # where the error was 9.4e-12.
        for r in (0.3, 0.9, 0.99, 0.998):
            for arg in (0.7, 1.9, -2.9):
                z = cmath.rect(r, arg)
                res = li_series(s, z)
                ref, ref_err = _li_reference(s, z)
                allowed = res.error_estimate + ref_err + 8 * EPS * max(1.0, abs(ref))
                assert abs(res.value - ref) <= allowed, (s, z)

    @pytest.mark.parametrize(
        "s,z",
        [
            (-1.258, 0.5999 - 0.0133j),
            (-1.87 - 2.42j, 0.599 + 0.031j),
        ],
    )
    def test_tail_bound_holds_for_growing_terms(self, s, z):
        # at Re s < 0 |t_k| = r^k k^|Re s| shrinks slower than r^k: a tail
        # bound with ratio r fell 2-3% short of the error at these points
        res = li_series(s, z)
        ref, ref_err = _li_reference(s, z)
        allowed = res.error_estimate + ref_err + 8 * EPS * max(1.0, abs(ref))
        assert abs(res.value - ref) <= allowed

    def test_angle_reduced_before_rounding(self):
        # Rounding k Im(log z) costs eps k |Im log z| per term: over the
        # 65,536 terms taken here that summed to an error of 1.6e-10, past
        # an estimate of 1.1e-11, before the angle was reduced modulo 2 pi
        s, z = -0.2942658690687274, -0.4823830112950634 + 0.8748186271530269j
        res = li_series(s, z)
        ref, ref_err = _li_reference(s, z)
        assert abs(res.value - ref) <= min(res.error_estimate, 1e-12) + ref_err

    def test_near_boundary_alternating(self):
        # negative real z close to the circle stays affordable through the
        # boundary-distance bound
        r = li_series(3, -0.9999999, tol=1e-9)
        assert r.error_estimate <= 1e-9

    def test_domain_and_resources(self):
        with pytest.raises(DomainError):
            li_series(2, 1.0)
        with pytest.raises(DomainError):
            li_series(2, -1.2)
        with pytest.raises(ResourceLimitError):
            li_series(0.5, 0.99999999, tol=1e-12)


class TestClassical:
    def test_zero_argument(self):
        assert li_integral_classical(2, 0.0).value == 0.0

    def test_matches_series_inside_disc(self):
        # at z = 0.999995 the series sums 2^22 terms: two chunks
        for (s, z) in ((2, 0.5), (1.5, 0.999995)):
            ref = li_series(s, z, tol=1e-12)
            r = li_integral_classical(s, z, tol=1e-10)
            assert r.converged
            assert r.value == pytest.approx(ref.value, abs=1e-9)

    def test_alternating_unit_value(self):
        # Li_2(-1) = (2^{-1} - 1) zeta(2) = -pi^2/12
        ref = (2.0 ** (1 - 2) - 1.0) * riemann_zeta(2).real
        r = li_integral_classical(2, -1.0, tol=1e-10)
        assert r.value.real == pytest.approx(ref, abs=1e-9)
        assert r.value.real == pytest.approx(-(math.pi**2) / 12.0, abs=1e-9)

    def test_log_form_matches_series(self):
        for (s, z) in ((2, 0.5), (2.5, -0.7), (3, 0.25j)):
            ref = li_series(s, z, tol=1e-12)
            r = li_integral_classical(s, z, tol=1e-9, form="log")
            assert r.value == pytest.approx(ref.value, abs=5e-9)
        # 0 < Re s < 1: log(1/u)^(s-1) is singular at u = 1; at large Re s
        # the mass sits at log(1/u) ~ Re s - 1, i.e. u ~ 1e-17 for s = 40
        for (s, z) in ((0.5, 0.3), (0.2, 0.6 + 0.2j), (20, -0.7), (40, 0.5)):
            ref = li_series(s, z, tol=1e-12)
            r = li_integral_classical(s, z, form="log")
            assert r.converged
            assert abs(r.value - ref.value) <= 1e-10

    def test_outside_disc(self):
        # valid anywhere off the real ray (1, inf)
        r = li_integral_classical(2, -3.0, tol=1e-10)
        assert r.converged
        assert r.value.imag == pytest.approx(0.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            li_integral_classical(2, 1.5)
        with pytest.raises(DomainError):
            li_integral_classical(-0.5, 0.5)
        with pytest.raises(DomainError):
            li_integral_classical(2, 1.2, form="log")


class TestTheoremRoutes:
    @pytest.mark.parametrize("s", [2.5, 3.0, 2.2 + 0.9j])
    def test_sin_route_vs_series(self, s):
        ref = li_series(s, 0.4, tol=1e-12)
        r = li_theorem_sin(s, 0.4, tol=1e-8)
        assert r.converged
        assert r.value == pytest.approx(ref.value, abs=1e-8)

    def test_sin_route_zero(self):
        assert li_theorem_sin(2.5, 0.0).value == 0.0

    def test_cos_route_vs_series_complex_everything(self):
        s = 2.2 + 0.9j
        z = 0.3 * complex(math.cos(math.pi / 5), math.sin(math.pi / 5))
        ref = li_series(s, z, tol=1e-12)
        for variant in ("cos", "alt"):
            r = li_theorem_cos(s, z, variant=variant, tol=1e-8)
            assert r.value == pytest.approx(ref.value, abs=1e-7)

    def test_delta_invariance(self):
        s, z = 3.0, 0.5j
        a = li_theorem_sin(s, z, delta=1.0, tol=1e-9)
        b = li_theorem_sin(s, z, delta=0.5, tol=1e-9)
        assert a.value == pytest.approx(b.value, abs=2e-9)

    def test_variants_agree(self):
        a = li_theorem_cos(3.0, -0.6, variant="cos", tol=1e-9)
        b = li_theorem_cos(3.0, -0.6, variant="alt", tol=1e-9)
        assert a.value == pytest.approx(b.value, abs=2e-9)
        assert a.route is RepresentationTag.THEOREM_6B
        assert b.route is RepresentationTag.THEOREM_6C

    @pytest.mark.parametrize("variant", ["cos", "alt"])
    def test_delta_invariance_cos_routes(self, variant):
        a = li_theorem_cos(2.5, -0.35 + 0.2j, delta=1.0, variant=variant, tol=1e-9)
        b = li_theorem_cos(2.5, -0.35 + 0.2j, delta=0.5, variant=variant, tol=1e-9)
        assert a.value == pytest.approx(b.value, abs=2e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            li_theorem_sin(2.5, 1.1)
        with pytest.raises(DomainError):
            li_theorem_sin(0.5, 0.3)
        with pytest.raises(DomainError):
            li_theorem_cos(1.0, 0.3)
        with pytest.raises(DomainError, match="Re s > 1"):
            li_theorem_sin(1.0, 0.3)

    def test_s_equal_one_closed_form_weight(self):
        # the sin-channel weight at s=1 is exactly pi(1/2 - t); the route
        # must then reproduce -log(1-z)
        for z in (0.5, -0.7, 0.3 + 0.4j):
            r = li_bernoulli_odd(1, z, tol=1e-9)
            import cmath

            assert r.value == pytest.approx(-cmath.log(1.0 - z), abs=1e-9)

    def test_integer_order_independent_of_bernoulli_route(self):
        # at odd integer order the theorem route still sums the Clausen
        # weight, so it checks the closed B_3 weight rather than repeating it
        ref = li_series(3, 0.4, tol=1e-12).value
        a = li_theorem_sin(3, 0.4)
        b = li_bernoulli_odd(2, 0.4)
        assert abs(a.value - ref) <= 1e-9
        assert abs(b.value - ref) <= 1e-9
        assert a.value != b.value

    @pytest.mark.parametrize(
        "tag,s,z",
        [
            ("theorem6a", 2.00001, -0.6 + 0.2j),
            ("theorem6b", 3 - 1e-7, 0.9),
            ("theorem6c", 3 - 1e-7, 0.9),
            ("theorem6b", 3 + 3e-8, 0.3 + 0.4j),
        ],
    )
    def test_near_integer_order_weights(self, tag, s, z):
        # next to an integer order the Hurwitz reflection loses digits as
        # 1/|sin(pi s/2)| or 1/|cos(pi s/2)|: the weight chooser must keep
        # the series for nodes it can still afford there
        ref = li_series(s, z, tol=1e-14).value
        r = li_eval(PolylogRequest(s=s, z=z, representation=RepresentationTag(tag), tol=1e-10))
        assert r.converged
        assert abs(r.value - ref) <= min(r.error_estimate, 1e-10)

    def test_near_circle_peak_split(self):
        s, z = 2.5, 0.97
        ref = li_series(s, z, tol=1e-12)
        r = li_theorem_sin(s, z, tol=1e-7)
        assert r.converged
        assert r.value == pytest.approx(ref.value, abs=1e-6)

    @pytest.mark.parametrize(
        "s,z",
        [
            (1.2 - 0.97j, 0.415 + 0.163j),
            (1.35 - 0.54j, 0.241 + 0.114j),
        ],
    )
    def test_slow_decay_band(self, s, z):
        # sigma below ~1.8 makes the series weight unaffordable at the
        # deep endpoint nodes; those must reroute through the reflection
        ref = li_series(s, z, tol=1e-11)
        a = li_theorem_sin(s, z, tol=1e-7)
        b = li_theorem_cos(s, z, variant="alt", tol=1e-7)
        assert a.converged and b.converged
        assert a.value == pytest.approx(ref.value, abs=1e-7)
        assert b.value == pytest.approx(ref.value, abs=1e-7)

    def test_slow_decay_band_real_order(self):
        ref = li_series(1.5, 0.5, tol=1e-11)
        r = li_theorem_sin(1.5, 0.5, tol=1e-6)
        assert r.converged
        assert r.value == pytest.approx(ref.value, abs=1e-5)


class TestBernoulliRoutes:
    def test_order_one_is_log(self):
        r = li_bernoulli_odd(1, 0.5, tol=1e-10)
        assert r.value.real == pytest.approx(math.log(2.0), abs=1e-9)
        assert r.route is RepresentationTag.BERNOULLI_7A

    def test_order_three_vs_series(self):
        ref = li_series(3, 0.7, tol=1e-12)
        r = li_bernoulli_odd(2, 0.7, delta=0.5, tol=1e-9)
        assert r.value == pytest.approx(ref.value, abs=1e-8)

    def test_even_route_li2(self):
        r = li_bernoulli_even(1, -0.5, tol=1e-9)
        assert r.value.real == pytest.approx(LI2_MINUS_HALF, abs=1e-8)
        assert r.route is RepresentationTag.BERNOULLI_7B

    def test_even_variants_agree(self):
        a = li_bernoulli_even(1, 0.3, variant="cos", tol=1e-9)
        b = li_bernoulli_even(1, 0.3, variant="alt", tol=1e-9)
        assert a.value == pytest.approx(b.value, abs=2e-9)

    def test_even_delta_invariance(self):
        a = li_bernoulli_even(2, 0.55j, delta=1.0, tol=1e-9)
        b = li_bernoulli_even(2, 0.55j, delta=0.5, tol=1e-9)
        assert a.value == pytest.approx(b.value, abs=2e-9)

    def test_zero_argument(self):
        assert li_bernoulli_odd(2, 0.0).value == 0.0
        assert li_bernoulli_even(2, 0.0).value == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            li_bernoulli_odd(0, 0.5)
        with pytest.raises(DomainError):
            li_bernoulli_even(1, 1.0)


class TestMeanValueProperty:
    @pytest.mark.parametrize("s", [2.0, 2.5, 3.0])
    def test_cos_weight_integrates_to_zero(self, s):
        cache = _node_cache(complex(s), 1e-11)

        def f(t):
            return cache.channel(t, 1)

        r = integrate_adaptive(f, 0.0, 1.0, tol=1e-10)
        assert r.converged
        assert abs(r.value) <= 1e-10


class TestNodeCache:
    def test_missing_nodes_computed_once(self, monkeypatch):
        pair = pl._pair_cheapest
        calls = []

        def spy(s, x, tol):
            calls.append(np.array(x))
            return pair(s, x, tol)

        monkeypatch.setattr(pl, "_pair_cheapest", spy)
        cache = pl._NodeCache(3.3 + 0.2j, 1e-10)
        t = np.array([0.1, 0.2, 0.1, 0.3])
        first = cache.channel(t, 0)
        assert len(calls) == 1
        assert first[0] == first[2]
        # all hit: the cache alone, the same values
        assert np.array_equal(cache.channel(t, 0), first)
        assert len(calls) == 1
        cos = cache.channel(t, 1)
        assert len(calls) == 1
        # a new panel sharing node 0.3: computed whole and stored under its
        # own key, so the first panel's entry is untouched
        panel = np.array([0.3, 0.4, 0.4])
        cache.channel(panel, 1)
        assert len(calls) == 2
        assert np.array_equal(cache.pairs[(0.1, 0.2, 0.1, 0.3)][0], first)
        assert np.array_equal(cache.pairs[(0.1, 0.2, 0.1, 0.3)][1], cos)

    def test_cold_request_takes_one_table(self, monkeypatch):
        # a cold theorem6a request at s = 2.5 builds one ζ(s − k) table and
        # neither sums a Dirichlet series nor takes the reflection
        tables = []

        class Spy(cl._ZetaTable):
            def __init__(self, s):
                tables.append(s)
                super().__init__(s)

        def forbidden(*args):
            raise AssertionError("series or reflection on the weight path")

        monkeypatch.setattr(cl, "_ZetaTable", Spy)
        monkeypatch.setattr(cl, "_series_pair", forbidden)
        monkeypatch.setattr(cl, "clausen_via_hurwitz", forbidden)
        cl._zeta_table.cache_clear()
        with pl._cache_lock:
            pl._caches.clear()
        try:
            r = li_theorem_sin(2.5, 0.5)
        finally:
            cl._zeta_table.cache_clear()
        assert tables == [2.5]
        ref, _ = _li_reference(2.5, 0.5)
        assert r.converged
        assert abs(r.value - ref) <= r.error_estimate

    def test_panels_bounded_oldest_evicted_first(self):
        cap = pl._PANEL_CAP
        cache = pl._NodeCache(5.5 + 0.1j, 1e-8)
        panels = [0.05 + 0.9 * (k + np.array([0.0, 0.3, 0.6])) / (cap + 10) for k in range(cap + 10)]
        first = [cache.channel(panels[0], idx).copy() for idx in (0, 1)]
        for t in panels[1:]:
            cache.channel(t, 0)
        # the 10 oldest went
        assert list(cache.pairs) == [tuple(t.tolist()) for t in panels[10:]]
        # an evicted panel is computed again, to the same bits
        assert all(np.array_equal(cache.channel(panels[0], idx), first[idx]) for idx in (0, 1))
        assert len(cache.pairs) == cap

    @pytest.mark.parametrize("tag", ["theorem6a", "theorem6b", "theorem6c"])
    @pytest.mark.parametrize(
        "s,delta",
        [
            pytest.param(3.4 + 0.5j, 1.0, id="(3.4+0.5j)"),
            pytest.param(1.6, 1.0, id="1.6"),
            pytest.param(3.4 + 0.5j, 0.5, id="(3.4+0.5j)-half-period"),
            pytest.param(1.6, 0.5, id="1.6-half-period"),
        ],
    )
    def test_cold_and_warm_values_bit_identical(self, tag, s, delta):
        # a node's weight depends on its panel only, so a request computed
        # after another z has filled the same (s, tol) cache matches its
        # cold value bit for bit
        def eval_at(z):
            req = PolylogRequest(
                s=s, z=z, representation=RepresentationTag(tag), delta=delta, tol=1e-9
            )
            r = li_eval(req)
            return r.value, r.error_estimate

        def clear():
            with pl._cache_lock:
                pl._caches.clear()

        clear()
        cold = eval_at(0.5 + 0.3j)
        for warm_z in (-0.7j, 0.97):
            clear()
            eval_at(warm_z)
            assert eval_at(0.5 + 0.3j) == cold

    def test_panel_unmoved_by_a_panel_sharing_a_node(self):
        # the centre 0.5 of [0.25, 0.75] is also the centre of [0, 1]; the
        # later panel, summed in its own blocks, must not replace what the
        # first one gives (keyed by node, the cos weight moved by 7.9e-12)
        def nodes(lo, hi):
            seen = []
            gauss_kronrod_panel(lambda t: seen.append(t.copy()) or np.zeros(t.shape, complex), lo, hi)
            return seen[0]

        whole, inner = nodes(0.0, 1.0), nodes(0.25, 0.75)
        assert 0.5 in whole and 0.5 in inner
        cache = pl._NodeCache(3.3 + 0.2j, 1e-10)
        first = [cache.channel(whole, idx).copy() for idx in (0, 1)]
        cache.channel(inner, 1)
        assert all(np.array_equal(cache.channel(whole, idx), first[idx]) for idx in (0, 1))

    @pytest.mark.parametrize("tag", ["theorem6a", "theorem6b", "theorem6c"])
    def test_value_unmoved_by_a_request_sharing_nodes(self, tag):
        # the same through li_eval: |z| > 0.95 adds the breakpoints t* and
        # 1 - t*, here 0.25 and 0.75, so 0.97j's panel [0.25, 0.75] shares
        # its centre with the panel [0, 1] of z = 0.5; the second 0.5 reads
        # the warm cache and must match the first to the bit
        def eval_at(z):
            req = PolylogRequest(s=3.3 + 0.2j, z=z, representation=RepresentationTag(tag), tol=1e-9)
            r = li_eval(req)
            return r.value, r.error_estimate

        with pl._cache_lock:
            pl._caches.clear()
        first = eval_at(0.5)
        eval_at(0.97j)
        assert eval_at(0.5) == first


#: (tag, s, z, evaluations) of fixed requests at tol 1e-10. The theorem
#: rows are counted with the kernel integrals starting from their eight
#: dyadic panels, graded toward the Clausen weight's singular ends for the
#: COS and ALT kernels; the classical rows as counted when the quadrature still
#: bisected one panel at a time, which a round at a time may exceed by a
#: few panels. More than 10% over a pin would be a regression.
_PINNED_EVALUATIONS = [
    ("theorem6a", 2.75, 0.3, 240),
    ("theorem6a", 2.75, 0.8, 540),
    ("theorem6a", 2.75, 0.97, 930),
    ("theorem6a", 3.25 + 0.75j, 0.3, 180),
    ("theorem6a", 3.25 + 0.75j, 0.8, 540),
    ("theorem6a", 3.25 + 0.75j, 0.97, 870),
    ("theorem6b", 2.75, 0.3, 330),
    ("theorem6b", 2.75, 0.8, 630),
    ("theorem6b", 2.75, 0.97, 960),
    ("theorem6b", 3.25 + 0.75j, 0.3, 270),
    ("theorem6b", 3.25 + 0.75j, 0.8, 570),
    ("theorem6b", 3.25 + 0.75j, 0.97, 900),
    ("theorem6c", 2.75, 0.3, 330),
    ("theorem6c", 2.75, 0.8, 630),
    ("theorem6c", 2.75, 0.97, 960),
    ("theorem6c", 3.25 + 0.75j, 0.3, 270),
    ("theorem6c", 3.25 + 0.75j, 0.8, 570),
    ("theorem6c", 3.25 + 0.75j, 0.97, 900),
    ("classical-exp", 2.5, 0.8, 465),
    ("classical-exp", 0.4, 0.9j, 2715),
]


class TestEvaluationCounts:
    @pytest.mark.parametrize("tag,s,r,pinned", _PINNED_EVALUATIONS)
    def test_within_a_tenth_of_the_pinned_count(self, tag, s, r, pinned):
        # theorem routes at z = r e^{2i}; classical-exp at z = r as given
        z = cmath.rect(r, 2.0) if tag.startswith("theorem") else r
        res = li_eval(PolylogRequest(s=s, z=z, representation=RepresentationTag(tag), tol=1e-10))
        assert res.converged
        assert res.quadrature.evaluations <= 1.10 * pinned
        ref, ref_err = _li_reference(s, z)
        assert abs(res.value - ref) <= res.error_estimate + ref_err + 8 * EPS * max(1.0, abs(ref))

    def test_start_partition_alone_converges(self, monkeypatch):
        # B_3 against the SIN kernel at small |z| settles on the eight start
        # panels: one panel call, and ends that bisecting [0, 1] three
        # times would reach, to the bit
        calls = []
        panel = qd.gauss_kronrod_panel

        def spy(f, a, b):
            calls.append((np.array(a, dtype=float), np.array(b, dtype=float)))
            return panel(f, a, b)

        monkeypatch.setattr(qd, "gauss_kronrod_panel", spy)
        req = PolylogRequest(s=3, z=0.05, representation=RepresentationTag.BERNOULLI_7A, tol=1e-10)
        res = li_eval(req)
        assert res.converged
        assert res.quadrature.evaluations == 120
        assert len(calls) == 1
        cuts = [0.0, 1.0]
        for _ in range(3):
            mids = [0.5 * (lo + hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
            cuts = sorted(cuts + mids)
        assert calls[0][0].tolist() == cuts[:-1]
        assert calls[0][1].tolist() == cuts[1:]
        ref, ref_err = _li_reference(3, 0.05)
        assert abs(res.value - ref) <= res.error_estimate + ref_err + 8 * EPS

    def test_zeta_odd_cot(self):
        value, q = pl._zeta_odd("cot", 2, 1.0, 1e-10)
        assert q.converged
        assert q.evaluations <= 1.10 * 45
        try:
            import mpmath
        except ImportError:
            ref = zeta_direct(5).real
        else:
            ref = float(mpmath.zeta(5))
        scale = abs(value / q.value.real)  # the prefactor of the integral
        assert abs(value - ref) <= scale * q.error_estimate + 8 * EPS


class TestGradedStart:
    """The Clausen-weight integrals against the COS and ALT kernels start
    from cuts graded toward the weight's singular ends."""

    @staticmethod
    def _depths(monkeypatch):
        # the depth each theorem route or lemma_integral hands _kernel_breakpoints
        seen, breakpoints = [], pl._kernel_breakpoints

        def spy(z, delta, depth=pl._START_DEPTH):
            seen.append(depth)
            return breakpoints(z, delta, depth)

        monkeypatch.setattr(pl, "_kernel_breakpoints", spy)
        return seen

    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_graded_cuts_are_bisection_midpoints(self, delta):
        # each graded cut is exact, and bisecting [0, delta] toward it, as
        # integrate_adaptive bisects, lands on it as a midpoint
        start = set(pl._kernel_breakpoints(0.5, delta))
        graded = sorted(set(pl._kernel_breakpoints(0.5, delta, pl._MAX_DEPTH)) - start)
        ends = 2 if delta == 1.0 else 1
        assert len(graded) == ends * (pl._MAX_DEPTH - pl._START_DEPTH)
        assert graded[-1] == (1.0 - 2.0**-52 if delta == 1.0 else delta / 16)
        for cut in graded:
            lo, hi = 0.0, delta
            for _ in range(pl._MAX_DEPTH):
                mid = 0.5 * (lo + hi)
                if mid == cut:
                    break
                lo, hi = (lo, mid) if cut < mid else (mid, hi)
            else:
                pytest.fail(f"bisection never reaches {cut!r}")

    @pytest.mark.parametrize("s,depth", [(2.75, 9), (3.00001, 6)])
    def test_depth(self, monkeypatch, s, depth):
        # near an integer order the pole coefficient grows like 1/|s - n|
        # and the rule's estimate for x^(s-1) shrinks like |s - n|
        seen = self._depths(monkeypatch)
        li_eval(PolylogRequest(s=s, z=0.5, representation=RepresentationTag.THEOREM_6B, tol=1e-9))
        assert seen == [depth]

    def test_no_cuts_without_a_pole_term(self, monkeypatch):
        # the SIN kernel vanishes at t = 0, the Bernoulli weights are
        # polynomials, Γ(1 - s) has a pole at integer s, and the moment
        # integrands are smooth
        seen = self._depths(monkeypatch)
        for tag, s in (("theorem6a", 2.75), ("theorem6a", 1.05), ("bernoulli7a", 3),
                       ("bernoulli7b", 4), ("bernoulli7c", 4), ("theorem6b", 3), ("theorem6c", 3)):
            li_eval(PolylogRequest(s=s, z=0.5, representation=RepresentationTag(tag), tol=1e-9))
        pl.lemma_integral("cos", pl.KernelKind.COS, 2, 0.5)
        assert seen == [pl._START_DEPTH] * 8
        # an order whose Γ(1 - s) sin(πs/2) is past binary64
        assert pl._graded_depth(2.5 + 500j, pl.KernelKind.COS, 0.5, 1.0, 5e-10) == pl._START_DEPTH

    def test_one_call_settles_the_graded_start(self, monkeypatch):
        # theorem6c at s = 2.75, z = 0.5 starts from 20 panels (the eight
        # dyadic ones, cut at 2^-4 ... 2^-9 from each end) and settles on
        # them in one integrand call, where eight panels took 6 calls and 420
        # evaluations; the order's model panel for x^(s-1), one panel of
        # scalar ends, is no kernel call
        calls = []
        panel = qd.gauss_kronrod_panel

        def spy(f, a, b):
            calls.append(np.shape(a))
            return panel(f, a, b)

        monkeypatch.setattr(qd, "gauss_kronrod_panel", spy)
        res = li_eval(PolylogRequest(s=2.75, z=0.5, representation=RepresentationTag.THEOREM_6C, tol=1e-9))
        assert res.converged
        assert res.quadrature.evaluations == 300
        assert [shape for shape in calls if shape] == [(20,)]
        ref, ref_err = _li_reference(2.75, 0.5)
        assert abs(res.value - ref) <= res.error_estimate + ref_err

    @pytest.mark.parametrize("tag", ["theorem6b", "theorem6c"])
    @pytest.mark.parametrize("s", [1.05, 1.5, 1.7 + 0.5j, 2.5 + 20j])
    def test_graded_routes_within_their_estimates(self, tag, s):
        for z in (0.5, -0.9, 0.97):
            ref, ref_err = _li_reference(s, z)
            for delta in (1.0, 0.5):
                req = PolylogRequest(s=s, z=z, representation=RepresentationTag(tag), delta=delta, tol=1e-9)
                res = li_eval(req)
                assert res.converged, (z, delta)
                assert abs(res.value - ref) <= res.error_estimate + ref_err, (z, delta)
