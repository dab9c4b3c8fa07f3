import pytest

from lirep import (
    DomainError,
    PolylogRequest,
    RepresentationTag,
    UnsupportedCombinationError,
    li_eval,
    li_series,
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
    # li_eval holds every theorem route to Re s > 1, also at s = 1 where
    # li_theorem_sin itself still takes the closed B_1 weight.
    with pytest.raises(DomainError, match=r"Re s > 1"):
        li_eval(PolylogRequest(s=1, z=0.3, representation=RepresentationTag.THEOREM_6A))


def test_bernoulli_routes_parity_checked():
    with pytest.raises(UnsupportedCombinationError):
        li_eval(PolylogRequest(s=2, z=0.3, representation=RepresentationTag.BERNOULLI_7A))
    with pytest.raises(UnsupportedCombinationError):
        li_eval(PolylogRequest(s=3, z=0.3, representation=RepresentationTag.BERNOULLI_7B))
    res = li_eval(PolylogRequest(s=3, z=0.3, representation=RepresentationTag.BERNOULLI_7A))
    assert res.route is RepresentationTag.BERNOULLI_7A


def test_request_validation():
    with pytest.raises(DomainError):
        PolylogRequest(s=2, z=0.3, delta=0.7)
    with pytest.raises(DomainError):
        PolylogRequest(s=2, z=0.3, tol=0.0)
    nan, inf = float("nan"), float("inf")
    for s, z in ((2, complex(0.3, inf)), (2, nan), (nan, 0.3), (complex(2, inf), 0.3)):
        with pytest.raises(DomainError, match="finite"):
            PolylogRequest(s=s, z=z)


def test_delta_passed_through():
    a = li_eval(PolylogRequest(s=2.5, z=0.4, representation=RepresentationTag.THEOREM_6A, delta=0.5))
    b = li_eval(PolylogRequest(s=2.5, z=0.4, representation=RepresentationTag.THEOREM_6A, delta=1.0))
    assert a.value == pytest.approx(b.value, abs=2e-10)
