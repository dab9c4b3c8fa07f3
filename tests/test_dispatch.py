import re

import pytest

from lirep import (
    DomainError,
    PolylogRequest,
    RepresentationTag,
    UnsupportedCombinationError,
    li_bernoulli_even,
    li_bernoulli_odd,
    li_eval,
    li_integral_classical,
    li_inversion_integer,
    li_series,
    li_theorem_cos,
    li_theorem_sin,
)


def test_auto_small_z_uses_series():
    res = li_eval(PolylogRequest(s=2, z=0.3))
    assert res.route is RepresentationTag.SERIES


def test_auto_middle_ring_uses_classical():
    res = li_eval(PolylogRequest(s=2, z=0.7))
    assert res.route is RepresentationTag.CLASSICAL_EXP
    ref = li_series(2, 0.7, tol=1e-12)
    assert res.value == pytest.approx(ref.value, abs=1e-9)


def test_auto_outside_disc_integer_order():
    res = li_eval(PolylogRequest(s=3, z=-4.0))
    assert res.route is RepresentationTag.INVERSION_INT
    # order 0: Li_0(z) = z / (1 - z)
    res = li_eval(PolylogRequest(s=0, z=-4.0))
    assert res.route is RepresentationTag.INVERSION_INT
    assert res.value == pytest.approx(-0.8, abs=1e-12)


def test_auto_outside_disc_noninteger_rejected():
    with pytest.raises(UnsupportedCombinationError):
        li_eval(PolylogRequest(s=2.5, z=1.5))


def test_auto_unit_circle_rejected():
    with pytest.raises(UnsupportedCombinationError):
        li_eval(PolylogRequest(s=2.5, z=1j))


def test_forced_route_tag_is_reported():
    res = li_eval(PolylogRequest(s=3, z=0.7, representation=RepresentationTag.THEOREM_6A))
    assert res.route is RepresentationTag.THEOREM_6A
    ref = li_series(3, 0.7, tol=1e-12)
    assert res.value == pytest.approx(ref.value, abs=1e-8)


def test_forced_route_preconditions_propagate():
    with pytest.raises(DomainError):
        li_eval(PolylogRequest(s=0.5, z=0.3, representation=RepresentationTag.THEOREM_6B))
    # every theorem route needs Re s > 1, also at s = 1, where only the
    # closed B_1 weight of bernoulli7a exists
    with pytest.raises(DomainError, match=r"Re s > 1"):
        li_eval(PolylogRequest(s=1, z=0.3, representation=RepresentationTag.THEOREM_6A))


def test_bernoulli_routes_parity_checked():
    with pytest.raises(UnsupportedCombinationError):
        li_eval(PolylogRequest(s=2, z=0.3, representation=RepresentationTag.BERNOULLI_7A))
    with pytest.raises(UnsupportedCombinationError):
        li_eval(PolylogRequest(s=3, z=0.3, representation=RepresentationTag.BERNOULLI_7B))
    with pytest.raises(UnsupportedCombinationError):
        li_eval(PolylogRequest(s=3, z=0.3, representation=RepresentationTag.BERNOULLI_7C))
    res = li_eval(PolylogRequest(s=3, z=0.3, representation=RepresentationTag.BERNOULLI_7A))
    assert res.route is RepresentationTag.BERNOULLI_7A


@pytest.mark.parametrize(
    "tag, s, entry",
    [
        pytest.param(tag, s, entry, id=tag.value)
        for tag, s, entry in (
            (RepresentationTag.THEOREM_6A, 2.5, lambda z: li_theorem_sin(2.5, z)),
            (RepresentationTag.THEOREM_6B, 2.5, lambda z: li_theorem_cos(2.5, z, variant="cos")),
            (RepresentationTag.THEOREM_6C, 2.5, lambda z: li_theorem_cos(2.5, z, variant="alt")),
            (RepresentationTag.BERNOULLI_7A, 3, lambda z: li_bernoulli_odd(2, z)),
            (RepresentationTag.BERNOULLI_7B, 2, lambda z: li_bernoulli_even(1, z, variant="cos")),
            (RepresentationTag.BERNOULLI_7C, 2, lambda z: li_bernoulli_even(1, z, variant="alt")),
        )
    ],
)
def test_kernel_tags_reach_their_route(tag, s, entry):
    res = li_eval(PolylogRequest(s=s, z=0.4, representation=tag))
    assert res.route is tag
    assert res.value == entry(0.4).value


def test_request_validation():
    with pytest.raises(DomainError):
        PolylogRequest(s=2, z=0.3, delta=0.7)
    with pytest.raises(DomainError):
        PolylogRequest(s=2, z=0.3, tol=0.0)
    nan, inf = float("nan"), float("inf")
    with pytest.raises(DomainError, match="got nan"):
        PolylogRequest(s=2, z=0.3, tol=nan)
    for s, z in ((2, complex(0.3, inf)), (2, nan), (nan, 0.3), (complex(2, inf), 0.3)):
        with pytest.raises(DomainError, match="finite"):
            PolylogRequest(s=s, z=z)


def test_delta_passed_through():
    a = li_eval(PolylogRequest(s=2.5, z=0.4, representation=RepresentationTag.THEOREM_6A, delta=0.5))
    b = li_eval(PolylogRequest(s=2.5, z=0.4, representation=RepresentationTag.THEOREM_6A, delta=1.0))
    assert a.value == pytest.approx(b.value, abs=2e-10)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0])
@pytest.mark.parametrize(
    "route",
    [
        lambda tol: li_series(2.5, 0.3, tol=tol),
        lambda tol: li_integral_classical(2.5, 0.3, tol=tol, form="exp"),
        lambda tol: li_integral_classical(2.5, 0.3, tol=tol, form="log"),
        lambda tol: li_inversion_integer(3, 2.0 + 1.0j, tol=tol),
        lambda tol: li_theorem_sin(2.5, 0.3, tol=tol),
        lambda tol: li_theorem_cos(2.5, 0.3, variant="alt", tol=tol),
        lambda tol: li_bernoulli_odd(2, 0.3, tol=tol),
    ],
    ids=[
        "series", "classical-exp", "classical-log", "inversion-int", "theorem6a", "theorem6c", "bernoulli7a",
    ],
)
def test_bad_tolerance_named_as_given(route, tol):
    # every route rejects the caller's tol before scaling it or planning terms
    with pytest.raises(DomainError, match=re.escape(f"got {tol}")):
        route(tol)


@pytest.mark.parametrize("bad", [float("nan"), complex(float("inf"), 1.0)], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "route",
    [
        lambda bad: li_series(bad, 0.3),
        lambda bad: li_series(2.5, bad),
        lambda bad: li_integral_classical(bad, 0.3, form="exp"),
        lambda bad: li_integral_classical(2.5, bad, form="exp"),
        lambda bad: li_integral_classical(2.5, bad, form="log"),
        lambda bad: li_inversion_integer(bad, 2j),
        lambda bad: li_inversion_integer(3, bad),
        lambda bad: li_theorem_sin(bad, 0.3),
        lambda bad: li_theorem_sin(2.5, bad),
        lambda bad: li_theorem_cos(2.5, bad, variant="alt"),
        lambda bad: li_bernoulli_odd(2, bad),
    ],
    ids=[
        "series-s", "series-z", "classical-exp-s", "classical-exp-z", "classical-log-z",
        "inversion-int-s", "inversion-int-z", "theorem6a-s", "theorem6a-z", "theorem6c-z", "bernoulli7a-z",
    ],
)
def test_nonfinite_order_or_argument_rejected(route, bad):
    # comparisons with NaN are false, so no other domain rule can catch it
    with pytest.raises(DomainError, match="must be finite"):
        route(bad)
