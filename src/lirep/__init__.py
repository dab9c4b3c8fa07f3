"""Polylogarithm evaluation through Poisson-kernel integral representations.

The library cross-validates every route against independent ones: the
defining series, the classical integrals, kernel-weighted Clausen sums,
exact Bernoulli-polynomial weights at integer order, and the inversion
formula outside the unit disc. Odd zeta values fall out of the kernel
limits at z -> +-1.
"""

from .bernoulli import (
    BERNOULLI_CAP,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_poly,
)
from .clausen import (
    ClausenValue,
    chebyshev_T,
    clausen_bernoulli,
    clausen_direct,
    clausen_via_hurwitz,
)
from .errors import (
    DomainError,
    ExclusionError,
    LirepError,
    PoleError,
    ResourceLimitError,
    UnsupportedCombinationError,
)
from .polylog import (
    KernelKind,
    PolylogRequest,
    PolylogResult,
    RepresentationTag,
    kernel,
    lemma_expected,
    lemma_integral,
    li_bernoulli_even,
    li_bernoulli_odd,
    li_eval,
    li_integral_classical,
    li_inversion_integer,
    li_series,
    li_theorem_cos,
    li_theorem_sin,
    zeta_odd_cot,
    zeta_odd_tan,
)
from .quadrature import (
    Patch,
    PatchedIntegrand,
    QuadratureResult,
    gauss_kronrod_panel,
    integrand_with_limits,
    integrate_adaptive,
    tan_patch_value,
)
from .special import gamma_complex, hurwitz_zeta, riemann_zeta

__version__ = "0.1.0"

__all__ = [
    "BERNOULLI_CAP",
    "ClausenValue",
    "DomainError",
    "ExclusionError",
    "KernelKind",
    "LirepError",
    "Patch",
    "PatchedIntegrand",
    "PoleError",
    "PolylogRequest",
    "PolylogResult",
    "QuadratureResult",
    "RepresentationTag",
    "ResourceLimitError",
    "UnsupportedCombinationError",
    "bernoulli_number",
    "bernoulli_numbers",
    "bernoulli_poly",
    "chebyshev_T",
    "clausen_bernoulli",
    "clausen_direct",
    "clausen_via_hurwitz",
    "gamma_complex",
    "gauss_kronrod_panel",
    "hurwitz_zeta",
    "integrand_with_limits",
    "integrate_adaptive",
    "kernel",
    "lemma_expected",
    "lemma_integral",
    "li_bernoulli_even",
    "li_bernoulli_odd",
    "li_eval",
    "li_integral_classical",
    "li_inversion_integer",
    "li_series",
    "li_theorem_cos",
    "li_theorem_sin",
    "riemann_zeta",
    "tan_patch_value",
    "zeta_odd_cot",
    "zeta_odd_tan",
]
