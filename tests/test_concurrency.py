"""Route evaluations are pure; the node cache and the Bernoulli list must be
safely shareable."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import lirep.bernoulli as bn
import lirep.clausen as cl
import lirep.polylog as pl
from lirep import li_series, li_theorem_cos, li_theorem_sin
from lirep.quadrature import NODES


def test_parallel_grid_matches_serial():
    _grid_matches_serial()


def _grid_matches_serial():
    """The grid's (sin, alt) values computed by 6 threads, checked bit for
    bit against a serial run from a cold cache; returns the serial ones."""
    # 0.97j brings the breakpoints 0.25 and 0.75, so its panels share
    # nodes with the others' without being the same panels
    zs = [0.2, 0.5j, -0.6, 0.4 + 0.4j, -0.3 - 0.5j, 0.85, 0.97j]
    s = 2.5

    def one(z):
        a = li_theorem_sin(s, z, tol=1e-8).value
        b = li_theorem_cos(s, z, variant="alt", tol=1e-8).value
        return a, b

    with pl._cache_lock:
        pl._caches.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            parallel = list(pool.map(one, zs, timeout=120))
    finally:
        sys.setswitchinterval(interval)

    with pl._cache_lock:
        pl._caches.clear()
    serial = [one(z) for z in zs]

    for (pa, pb), (sa, sb), z in zip(parallel, serial, zs):
        ref = li_series(s, z, tol=1e-12).value
        assert pa == pytest.approx(ref, abs=1e-7)
        # cache fill order differs between runs, values must not, to the bit:
        # a panel's weights come from its own computation alone
        assert pa == sa
        assert pb == sb
    return serial


def test_parallel_evictions_match_serial(monkeypatch):
    # a cap of 4 panels per order evicts while other threads read; an
    # evicted panel is computed again to the same bits
    full = _grid_matches_serial()
    monkeypatch.setattr(pl, "_PANEL_CAP", 4)
    assert _grid_matches_serial() == full
    assert all(len(cache.pairs) <= 4 for cache in pl._caches.values())


def test_cache_registry_bounded():
    with pl._cache_lock:
        pl._caches.clear()
    for i in range(40):
        li_theorem_sin(2.5 + i * 1e-3, 0.3, tol=1e-6)
    assert len(pl._caches) <= pl._CACHE_SLOTS


def test_power_memo_shared_across_threads():
    """Threads summing the series at the same orders get the serial values,
    bit for bit, with the interpreter switching threads as often as it can."""
    cases = [(complex(3.2 + 0.1 * (i % 3), 0.3 * (i % 2)), 0.1 + 0.37 * i) for i in range(24)]
    serial = [cl._series_pair(s, x, 1e-10) for s, x in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(cl._series_pair, s, x, 1e-10) for s, x in cases]
            parallel = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_zeta_table_grown_across_threads():
    """Threads that take panels of one new order through the expansion, each
    panel asking the order's table for its own number of entries, get the
    serial values bit for bit, with the interpreter switching threads as
    often as it can."""
    s, tol = 3.7 + 0.4j, 1e-11
    panels = [cl.TWO_PI * (c + 0.5 * w * NODES) for c, w in ((0.02, 0.04), (0.5, 0.2), (0.1, 0.2), (0.3, 0.1))] * 4
    random.Random(3).shuffle(panels)
    cl._zeta_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda x: cl._expansion_pair(s, x, tol), panels, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    cl._zeta_table.cache_clear()
    serial = [cl._expansion_pair(s, x, tol) for x in panels]
    assert all(pair is not None for pair in serial)
    for (ps, pc), (ss, sc) in zip(parallel, serial):
        assert np.array_equal(ps, ss) and np.array_equal(pc, sc)


def test_bernoulli_list_grown_across_threads(monkeypatch):
    """Threads that grow the shared Bernoulli list in any order leave it
    holding the serial values, each once, with the interpreter switching
    threads as often as it can."""
    serial = list(bn.bernoulli_numbers(120))
    order = list(range(121))
    random.Random(9).shuffle(order)
    monkeypatch.setattr(bn, "_values", [Fraction(1)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(bn.bernoulli_number, n) for n in order]
            parallel = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert bn._values == serial
    assert parallel == [serial[n] for n in order]
