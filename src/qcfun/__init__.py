"""qcfun: special functions of plane quasiconformal map theory.

Layers, bottom up:

* :mod:`qcfun.specfun` -- gamma family and the Gauss hypergeometric series
  with its zero-balanced boundary machinery;
* :mod:`qcfun.means` -- mean values and the complete elliptic integral via
  the arithmetic-geometric mean;
* :mod:`qcfun.modulus` -- the plane ring modulus mu, its generalized
  signature version mu_a, their inverses (theta functions for mu,
  safeguarded Newton for mu_a), planar capacities, and the
  ascending-Landen product;
* :mod:`qcfun.distortion` -- distortion functions phi_K and phi^a_K, the
  quasisymmetry function, the linear-dilatation bound, the Schottky bound,
  and the logit linearization;
* :mod:`qcfun.bounds` -- the catalog of explicit distortion constants;
* :mod:`qcfun.identities` -- the modular-equation residual suite and
  open-problem experiments;
* :mod:`qcfun.geometry` -- quasicircle generators and geometric-constant
  estimators;
* :mod:`qcfun.cli` -- the ``qcfun`` command.

Everything is pure-functional and thread-safe.  Only :mod:`qcfun.geometry`
needs numpy; its names resolve on first use, so ``import qcfun`` does not
load numpy.
"""

import importlib

from .bounds import BoundId, bound_value, gehring_d, gehring_d2_composite, surface_area, vuorinen_c
from .distortion import eta_K2, lambda_of_K, linearized_g, phi_aK, phi_K, schottky_psi
from .errors import (
    ComputationError,
    ConvergenceError,
    DegenerateGeometryError,
    DivergenceError,
    DomainError,
    OverflowSignal,
    PolylineFormatError,
    QcfunError,
    UnsupportedDimensionError,
)
from .identities import (
    CaseKind,
    IdentityCase,
    ResidualReport,
    all_cases,
    experiment,
    get_case,
    residual,
    run_suite,
)
from .means import MeanKind, agm, ellint_K, ellint_Kprime, mean, mean_mod
from .modulus import (
    SQRT_HALF,
    UnitRadius,
    agm_product_p,
    gamma2_inv,
    grotzsch_gamma2,
    mu,
    mu_a,
    mu_a_derivative,
    mu_a_inv,
    mu_inv,
    tau2_inv,
    teichmuller_tau2,
)
from .specfun import (
    EULER_GAMMA,
    AsymptoticClass,
    BoundaryCase,
    HypergeomParams,
    beta_fn,
    digamma_fn,
    gamma_fn,
    gauss_F,
    hypergeom_boundary,
    ramanujan_R,
)

__version__ = "0.1.0"

_GEOMETRY_NAMES = frozenset({
    "INFINITY",
    "HyperplaneFit",
    "Polyline",
    "abs_ratio",
    "ahlfors_constant",
    "boundary_metric_estimate",
    "box_dimension",
    "chordal_dist",
    "koch_curve",
    "linear_approx_delta",
    "regular_ngon",
    "relative_size",
    "rho_disk",
    "thickness_constant",
    "triangle_condition_constant",
})


def __getattr__(name):
    """Import :mod:`qcfun.geometry` (and numpy) when one of its names is first used."""
    if name == "geometry" or name in _GEOMETRY_NAMES:
        geometry = importlib.import_module(".geometry", __name__)
        return geometry if name == "geometry" else getattr(geometry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
