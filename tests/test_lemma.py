import cmath
import math

import pytest

import lirep.polylog as pl
from lirep import DomainError, KernelKind, ResourceLimitError, lemma_expected, lemma_integral

from oracles import lemma_half_interval_mixed

# Reference values for the half-interval mixed channels, computed with
# 30-digit adaptive quadrature of the defining integrals.
MIXED_REFERENCE = {
    # (channel, kernel, n) at z = 0.45 + 0.7794228634059948j, delta = 1/2
    ("cos", "sin", 1): -0.1888100833641172031 + 0.21610156815233795473j,
    ("sin", "cos", 1): 0.41096452860674089524 - 0.1268950047701334284j,
    ("cos", "sin", 3): 0.036872068000695831558 - 0.36759579762656222922j,
    ("sin", "cos", 3): 0.011756575547768117378 + 0.4153362579673555744j,
}
Z_MIXED = 0.45 + 0.7794228634059948j


def test_matched_channel_full_interval():
    # sin channel of the SIN kernel picks out z^n
    v = lemma_integral("sin", KernelKind.SIN, 2, 0.3, 1.0)
    assert v == pytest.approx(0.09, abs=1e-10)


def test_zero_channel_full_interval():
    v = lemma_integral("cos", KernelKind.SIN, 3, 0.5j, 1.0)
    assert abs(v) <= 1e-10


def test_matched_channel_half_interval():
    v = lemma_integral("cos", KernelKind.COS, 1, 0.5j, 0.5)
    assert v == pytest.approx(0.25j, abs=1e-10)


def test_expected_values_match_quadrature_small_grid():
    zs = [0.1, 0.5 * cmath.exp(1j * math.pi / 3), 0.9j]
    for kind in (KernelKind.SIN, KernelKind.COS):
        for channel in ("cos", "sin"):
            for delta in (1.0, 0.5):
                for n in (1, 4):
                    for z in zs:
                        got = lemma_integral(channel, kind, n, z, delta)
                        expected = lemma_expected(channel, kind, n, z, delta)
                        assert got == pytest.approx(expected, abs=1e-9), (
                            channel,
                            kind,
                            delta,
                            n,
                            z,
                        )


@pytest.mark.parametrize("n", [1, 3])
def test_mixed_channels_against_frozen_reference(n):
    # the mismatched channels do NOT vanish on the half interval; pin both
    # the quadrature and the orthogonality-series prediction to independent
    # high-precision references
    for (channel, kernel) in (("cos", KernelKind.SIN), ("sin", KernelKind.COS)):
        ref = MIXED_REFERENCE[(channel, kernel.value, n)]
        got = lemma_integral(channel, kernel, n, Z_MIXED, 0.5)
        assert got == pytest.approx(ref, abs=1e-10)
        series = lemma_expected(channel, kernel, n, Z_MIXED, 0.5)
        assert series == pytest.approx(ref, abs=1e-12)
        oracle = lemma_half_interval_mixed(channel, kernel.value, n, Z_MIXED)
        assert oracle == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_mixed_channels_summed_a_chunk_at_a_time(n, monkeypatch):
    # chunks of 16 terms split the ~330 cross terms at |z| = 0.9 across
    # many pieces; the sum must not lose or repeat a term at their seams
    monkeypatch.setattr(pl, "_CHUNK", 16)
    for channel, kernel in (("cos", KernelKind.SIN), ("sin", KernelKind.COS)):
        got = lemma_expected(channel, kernel, n, Z_MIXED, 0.5)
        oracle = lemma_half_interval_mixed(channel, kernel.value, n, Z_MIXED)
        assert got == pytest.approx(oracle, abs=1e-13)


@pytest.mark.parametrize("channel,kernel", [("cos", KernelKind.SIN), ("sin", KernelKind.COS)])
def test_mixed_channel_too_close_to_the_circle_refused(channel, kernel):
    # at |z| = 1 - 1e-7 the cross terms would number 4.8e8: refused before
    # any array is built, not left to run out of memory
    with pytest.raises(ResourceLimitError, match="moment sum needs more than"):
        lemma_expected(channel, kernel, 1, 1.0 - 1e-7, 0.5)


def test_mixed_channel_constant_term_at_zero_argument():
    # at z = 0 the COS kernel is identically 1, so the sin moment over the
    # half interval keeps its constant term 1/(pi n) for odd n
    v = lemma_integral("sin", KernelKind.COS, 1, 0.0, 0.5)
    assert v == pytest.approx(1.0 / math.pi, abs=1e-10)
    assert lemma_expected("sin", KernelKind.COS, 1, 0.0, 0.5) == pytest.approx(
        1.0 / math.pi, rel=1e-14
    )
    # even n loses it
    assert abs(lemma_expected("sin", KernelKind.COS, 2, 0.0, 0.5)) == 0.0


def test_domain():
    with pytest.raises(DomainError):
        lemma_integral("sin", KernelKind.SIN, 1, 1.0)
    with pytest.raises(DomainError):
        lemma_integral("sin", KernelKind.ALT, 1, 0.5)
    with pytest.raises(DomainError):
        lemma_integral("sin", KernelKind.SIN, 0, 0.5)


@pytest.mark.parametrize("moment", [lemma_integral, lemma_expected])
def test_moment_rules_apply_to_both(moment):
    # the exact values obey the rules of the integrals they stand for
    with pytest.raises(ValueError, match="unknown channel"):
        moment("foo", KernelKind.SIN, 2, 0.3)
    with pytest.raises(DomainError, match="SIN and COS"):
        moment("cos", KernelKind.ALT, 2, 0.3)
    with pytest.raises(DomainError, match="n must be >= 1"):
        moment("cos", KernelKind.SIN, 0, 0.3, 0.5)


@pytest.mark.parametrize("delta", [0.7, 2.0])
def test_delta_outside_the_two_periods_rejected(delta):
    # the moment identities hold over the full and the half period only
    z = 0.5 + 0.2j
    with pytest.raises(DomainError, match="delta must be 1 or 1/2"):
        lemma_integral("cos", KernelKind.SIN, 2, z, delta)
    with pytest.raises(DomainError, match="delta must be 1 or 1/2"):
        lemma_expected("cos", KernelKind.SIN, 2, z, delta)
