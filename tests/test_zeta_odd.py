import numpy as np
import pytest

from lirep import DomainError, zeta_odd_cot, zeta_odd_tan

from oracles import zeta_direct

ZETA3 = 1.2020569031595943
ZETA5 = 1.0369277551433699
ZETA7 = 1.0083492773819228


def test_frozen_references_against_oracle():
    assert zeta_direct(3).real == pytest.approx(ZETA3, abs=1e-14)
    assert zeta_direct(5).real == pytest.approx(ZETA5, abs=1e-14)
    assert zeta_direct(7).real == pytest.approx(ZETA7, abs=1e-14)


@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_cot_route_zeta3(delta):
    assert zeta_odd_cot(1, delta) == pytest.approx(ZETA3, abs=1e-9)


def test_cot_route_zeta5_half():
    assert zeta_odd_cot(2, 0.5) == pytest.approx(ZETA5, abs=1e-9)
    # a numpy integer n is the Python int's, bit for bit
    assert zeta_odd_cot(np.int64(2), 0.5) == zeta_odd_cot(2, 0.5)


@pytest.mark.parametrize("delta", [1.0, 0.5])
def test_tan_route_zeta3(delta):
    assert zeta_odd_tan(1, delta) == pytest.approx(ZETA3, abs=1e-9)


def test_tan_route_zeta7_half():
    assert zeta_odd_tan(3, 0.5) == pytest.approx(ZETA7, abs=1e-9)


def test_delta_agreement():
    a = zeta_odd_cot(1, 1.0, tol=1e-10)
    b = zeta_odd_cot(1, 0.5, tol=1e-10)
    assert a == pytest.approx(b, abs=2e-10)


def test_matches_riemann_zeta_routes():
    from lirep import riemann_zeta

    for n in (1, 2, 3):
        ref = riemann_zeta(2 * n + 1).real
        assert zeta_odd_cot(n, 1.0) == pytest.approx(ref, abs=1e-9)
        assert zeta_odd_tan(n, 0.5) == pytest.approx(ref, abs=1e-9)


def test_domain():
    with pytest.raises(DomainError):
        zeta_odd_cot(0)
    with pytest.raises(DomainError):
        zeta_odd_tan(-1)
    with pytest.raises(DomainError):
        zeta_odd_cot(1, delta=0.3)
