"""The ROADMAP's probe table, run once through the benchmark's tracer.

    python3 bench/probe_table.py

Each entry runs in this one fresh interpreter, in the order below, with
the tracer installed. Warm entries are repeated and report the median of
their repeats; cold entries run once at an order no earlier entry used.
For every entry the script prints its wall time next to the ROADMAP's
figure, and the three span names with the most self time.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads and loads lirep from src/)
from tracing import Tracer  # noqa: E402


def entries(lirep):
    polylog, clausen = lirep.polylog, lirep.clausen
    T = polylog.RepresentationTag

    def li(s, z, tag):
        return lambda: polylog.li_eval(polylog.PolylogRequest(s=s, z=z, representation=tag))

    # (label, ROADMAP figure in ms, callable, repeats)
    return [
        ("series, s=2.5, z=0.4", 0.02, li(2.5, 0.4, T.SERIES), 200),
        ("classical-exp, s=2.5, z=0.8", 1.0, li(2.5, 0.8, T.CLASSICAL_EXP), 50),
        ("theorem6a, s=2.5, z=0.5, cold cache", 1974.0, li(2.5, 0.5, T.THEOREM_6A), 1),
        ("theorem6a, s=2.5, z=0.5, warm cache", 1.4, li(2.5, 0.5, T.THEOREM_6A), 20),
        ("theorem6a, s=2.2+0.9j, z=0.6j, cold cache", 18200.0, li(2.2 + 0.9j, 0.6j, T.THEOREM_6A), 1),
        ("clausen_via_hurwitz, one node (s=2.5, t=0.3)", 0.09,
         lambda: clausen.clausen_via_hurwitz(2.5, 0.3), 200),
        # tol 1e-11 is the node tolerance theorem6a uses at its default tol 1e-10
        ("_series_pair, one node (s=2.5, x=2*pi*0.3)", 4.7,
         lambda: clausen._series_pair(2.5 + 0j, 2.0 * math.pi * 0.3, 1e-11), 20),
    ]


def main() -> int:
    lirep = run.load_lirep()
    print(f"{'entry':48s} {'ROADMAP ms':>11s} {'here ms':>10s}  top self time")
    for label, roadmap_ms, fn, repeats in entries(lirep):
        tracer = Tracer(lirep)
        tracer.install()
        try:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append((time.perf_counter() - t0) * 1e3)
        finally:
            tracer.uninstall()
        table = tracer.span_table()
        top = sorted(table.items(), key=lambda kv: -kv[1]["self_ms"])[:3]
        split = ", ".join(f"{name} {row['self_ms'] / repeats:.3g}" for name, row in top if row["calls"])
        print(f"{label:48s} {roadmap_ms:11.3g} {statistics.median(times):10.4g}  {split}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
