import cmath
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lirep
from lirep import (
    BERNOULLI_CAP,
    DomainError,
    ResourceLimitError,
    li_integral_classical,
    li_inversion_integer,
    li_series,
)


def _run_lirep(code: str) -> subprocess.CompletedProcess:
    """Python code in a fresh interpreter that imports this lirep, killed
    after 20 s: a hang in C arithmetic holds the interpreter lock, so only
    another process can time it out."""
    src = str(Path(lirep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
    )


def test_li1_closed_form():
    r = li_inversion_integer(1, 2j, tol=1e-12)
    assert r.value == pytest.approx(-cmath.log(1.0 - 2j), abs=1e-10)


@pytest.mark.parametrize("z", [-3.0, -5.0, 2 + 3j, -1.5j])
@pytest.mark.parametrize("n", [2, 3])
def test_against_classical_integral(n, z):
    inv = li_inversion_integer(n, z, tol=1e-10)
    ref = li_integral_classical(n, z, tol=1e-10)
    assert ref.converged
    assert inv.value == pytest.approx(ref.value, abs=1e-8)
    # a numpy integer order is the Python int's, bit for bit
    assert li_inversion_integer(np.int64(n), z, tol=1e-10) == inv


@pytest.mark.parametrize("n", [171, 255])
def test_orders_past_factorial_overflow(n):
    # n! overflows binary64 from n = 171; Li_n(z) = z + z^2 2^-n + ... is z
    # to binary64 at these orders
    z = -3.0 + 1.0j
    assert abs(li_inversion_integer(n, z).value - z) <= 1e-12
    assert li_inversion_integer(np.int64(n), z) == li_inversion_integer(n, z)


@pytest.mark.parametrize("z", [3.3124 - 1.0462j, 3.2796 - 1.0242j])
def test_estimate_counts_polynomial_rounding(z):
    # B_6 cancels at 1/2 + log(-z)/(2 pi i): at the first point the error
    # was 2.4e-14 against the 7.0e-15 that 8 eps |poly_term| charged
    mpmath = pytest.importorskip("mpmath")
    r = li_inversion_integer(6, z)
    with mpmath.workdps(30):
        ref = complex(mpmath.polylog(6, z))
    assert abs(r.value - ref) <= r.error_estimate


def test_boundary_continuity():
    outside = li_inversion_integer(3, -1.0000001, tol=1e-10)
    inside = li_series(3, -0.9999999, tol=1e-10)
    assert outside.value == pytest.approx(inside.value, abs=1e-5)


def test_order_zero_rational():
    # Li_0(z) = z/(1-z)
    z = -4.0 + 1.0j
    r = li_inversion_integer(0, z, tol=1e-12)
    assert r.value == pytest.approx(z / (1.0 - z), abs=1e-12)


def test_domain():
    with pytest.raises(DomainError):
        li_inversion_integer(2, 0.5)  # inside the disc
    with pytest.raises(DomainError):
        li_inversion_integer(2, 3.0)  # on the cut
    with pytest.raises(DomainError):
        li_inversion_integer(-1, -3.0)


@pytest.mark.parametrize("n", [BERNOULLI_CAP + 1, 10**400, np.int64(300)])
def test_orders_past_the_cap_fail_at_once(n):
    # 10^400 overflowed complex() in the finiteness check: the cap comes
    # first (2^70, which hung, is tried in a fresh interpreter below); a
    # numpy integer order overflowed in int64 before the cap was checked
    with pytest.raises(ResourceLimitError, match="Bernoulli cap"):
        li_inversion_integer(n, 2j)


def test_huge_orders_end_in_a_fresh_interpreter():
    # (2 pi)^n / n! in exact integers never finished at n = 2^70
    proc = _run_lirep(
        "from lirep import ResourceLimitError, li_inversion_integer\n"
        "try:\n"
        "    li_inversion_integer(2**70, 2j)\n"
        "except ResourceLimitError as exc:\n"
        "    print(exc)\n"
    )
    assert "Bernoulli cap" in proc.stdout
    proc = _run_lirep("from lirep.cli import main; raise SystemExit(main(['eval', '--s', '1e30', '--z', '2i']))")
    assert proc.returncode == 3
    assert "Bernoulli cap" in proc.stderr
