"""qcfun: special functions of plane quasiconformal map theory.

Layers, bottom up:

* :mod:`qcfun.specfun` -- gamma family and the Gauss hypergeometric series
  with its zero-balanced boundary machinery;
* :mod:`qcfun.means` -- mean values, the arithmetic-geometric mean, and the
  complete elliptic integral and log nome from the Jacobi nome series;
* :mod:`qcfun.modulus` -- the plane ring modulus mu, its generalized
  signature version mu_a, their inverses (theta functions for mu and for
  mu_a at a = 1/2 and 1/6, Euler's products at a = 1/4 and 1/3,
  safeguarded Newton at every off-grid a), planar capacities, and the
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

Everything is pure-functional and thread-safe.  ``import qcfun`` loads only
:mod:`qcfun.errors`, whose exceptions it names directly.  Every other public
name, and each layer itself, loads on first use: ``qcfun.mu`` imports
:mod:`qcfun.modulus` (and the layers below it), stores ``mu`` in the package
namespace, and is a plain attribute lookup from then on.  So ``qcfun.ellint_K``
loads the means layer alone, and only :mod:`qcfun.geometry` needs numpy.
"""

import importlib

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

__version__ = "0.1.0"

# public name -> submodule, each submodule's __all__ in layer order; __getattr__
# imports the submodule on first use of one of its names
_LAZY = {
    **dict.fromkeys(("EULER_GAMMA", "HypergeomParams", "BoundaryCase", "AsymptoticClass", "gamma_fn",
                     "digamma_fn", "beta_fn", "ramanujan_R", "gauss_F", "gauss_F_near_one",
                     "hypergeom_boundary"), "specfun"),
    **dict.fromkeys(("MeanKind", "agm", "mean", "mean_mod", "ellint_K", "ellint_Kprime"), "means"),
    **dict.fromkeys(("UnitRadius", "SQRT_HALF", "as_radius", "check_signature", "mu", "mu_inv", "mu_a",
                     "mu_a_derivative", "mu_a_inv", "grotzsch_gamma2", "teichmuller_tau2", "tau2_inv",
                     "gamma2_inv", "agm_product_p"), "modulus"),
    **dict.fromkeys(("phi_K", "phi_aK", "eta_K2", "lambda_of_K", "schottky_psi", "linearized_g"),
                    "distortion"),
    **dict.fromkeys(("BoundId", "bound_value", "bound_signature", "surface_area", "gehring_d2_composite",
                     "gehring_d", "vuorinen_c"), "bounds"),
    **dict.fromkeys(("CaseKind", "IdentityCase", "ResidualReport", "all_cases", "get_case", "residual",
                     "run_suite", "experiment", "EXPERIMENT_NAMES"), "identities"),
    **dict.fromkeys(("INFINITY", "Polyline", "HyperplaneFit", "koch_curve", "regular_ngon", "relative_size",
                     "ahlfors_constant", "triangle_condition_constant", "linear_approx_delta",
                     "thickness_constant", "box_dimension", "chordal_dist", "abs_ratio", "rho_disk",
                     "boundary_metric_estimate"), "geometry"),
}
_SUBMODULES = frozenset(_LAZY.values())

# a star import binds the errors and the numeric core; the residual suite and
# geometry (which needs numpy) are reached by name
__all__ = [
    "ComputationError",
    "ConvergenceError",
    "DegenerateGeometryError",
    "DivergenceError",
    "DomainError",
    "OverflowSignal",
    "PolylineFormatError",
    "QcfunError",
    "UnsupportedDimensionError",
    *(name for name, module in _LAZY.items() if module not in ("identities", "geometry")),
]


def __getattr__(name):
    """Import a layer when it, or one of its names in ``_LAZY``, is first used; keep the name."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # which binds it in the package
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{module}", __name__), name)
    return value
