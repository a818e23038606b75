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

Everything is pure-functional and thread-safe.  The numeric core (specfun
through bounds) loads with the package.  :mod:`qcfun.identities` and
:mod:`qcfun.geometry` (the only layer that needs numpy) load on first use of
one of their names, or of the submodule itself, so ``import qcfun`` loads
neither.
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

# name -> submodule, imported by __getattr__ on first use
_LAZY = {
    **dict.fromkeys((
        "CaseKind",
        "EXPERIMENT_NAMES",
        "IdentityCase",
        "ResidualReport",
        "all_cases",
        "experiment",
        "get_case",
        "residual",
        "run_suite",
    ), "identities"),
    **dict.fromkeys((
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
    ), "geometry"),
}


def __getattr__(name):
    """Import a lazy submodule when it, or one of its names in ``_LAZY``, is first used."""
    module = name if name in ("identities", "geometry") else _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)
