"""Clausen sums three ways, and the kernels' boundary behaviour.

S_s and C_s are computed by direct summation, by exact Bernoulli
polynomials (integer orders), and through the Hurwitz-zeta reflection.
Approaching the unit circle, the sin kernel flattens onto cot(pi t)
(z -> 1) and -tan(pi t) (z -> -1), which is exactly how the odd-zeta
integrals of demo 02 arise.
"""

import math

from lirep import (
    KernelKind,
    clausen_bernoulli,
    clausen_direct,
    clausen_via_hurwitz,
    kernel,
)

TWO_PI = 2.0 * math.pi

print("Clausen cross-checks at x = 2*pi*0.3")
x = TWO_PI * 0.3
for s in (2.5, 3.5):
    d = clausen_direct(s, x, tol=1e-12)
    h = clausen_via_hurwitz(s, 0.3)
    print(f"  s={s}: series S={d.sin_part.real:.12f}  reflection S={h.sin_part.real:.12f}"
          f"  |dev|={abs(d.sin_part - h.sin_part):.1e}")

print("\nInteger orders collapse to Bernoulli polynomials:")
for order, channel in ((2, "cos"), (3, "sin"), (4, "cos")):
    closed = clausen_bernoulli(channel, order, x)
    d = clausen_direct(float(order), x, tol=1e-12)
    series = d.sin_part.real if channel == "sin" else d.cos_part.real
    print(f"  {channel.upper()}_{order}: closed {closed:.12f}  series {series:.12f}")

print("\nSin-kernel limits toward the circle (t = 0.2):")
t = 0.2
print(f"  z = 1 - 1e-8 : {kernel(KernelKind.SIN, 1.0 - 1e-8, t).real:+.8f}"
      f"   cot(pi t) = {1.0 / math.tan(math.pi * t):+.8f}")
print(f"  z = -1 + 1e-8: {kernel(KernelKind.SIN, -1.0 + 1e-8, t).real:+.8f}"
      f"  -tan(pi t) = {-math.tan(math.pi * t):+.8f}")
