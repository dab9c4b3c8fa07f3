"""Evaluate the polylogarithm by every route and watch them agree.

Each representation is computed independently: the defining series, the
classical integral (two forms), and the three kernel-weighted integrals
of Clausen sums. Deviations land at or below the requested tolerances.
"""

from lirep import (
    li_integral_classical,
    li_series,
    li_theorem_cos,
    li_theorem_sin,
)

POINTS = [
    (2.0, 0.5),
    (2.5, -0.8),
    (3.0, 0.5j),
    (2.2 + 0.9j, 0.3 + 0.4j),
]

for s, z in POINTS:
    ref = li_series(s, z, tol=1e-12)
    print(f"\nLi_s(z) at s = {s}, z = {z}")
    print(f"  series          : {ref.value:.15f}   (estimate {ref.error_estimate:.1e})")
    rows = [
        ("classical (exp)", li_integral_classical(s, z, tol=1e-9)),
        ("classical (log)", li_integral_classical(s, z, tol=1e-9, form="log")),
        ("sin kernel      ", li_theorem_sin(s, z, tol=1e-8)),
        ("cos kernel      ", li_theorem_cos(s, z, variant="cos", tol=1e-8)),
        ("alt kernel      ", li_theorem_cos(s, z, variant="alt", tol=1e-8)),
    ]
    for name, res in rows:
        dev = abs(res.value - ref.value)
        print(f"  {name}: {res.value:.15f}   |dev vs series| = {dev:.2e}")
