"""Every public numeric function gives a value or a typed QcfunError.

The grid covers the subnormal, tiny, unit, large, infinite and NaN ends of
every argument.  Results are finite floats (neither NaN nor +-inf), or the documented
UnitRadius / AsymptoticClass / HypergeomParams objects; a mean is inf exactly
where an argument is (AG(inf, y) = inf), a beta is a normal double, and each mean
kind is swept on its own.  Every residual-suite case and every experiment parameter
is swept the same way.
"""

import functools
import inspect
import itertools
import math

import pytest

from qcfun import (
    ConvergenceError,
    OverflowSignal,
    QcfunError,
    UnitRadius,
    beta_fn,
    gamma_fn,
    linearized_g,
    mu_a_derivative,
)
from qcfun import bounds, distortion, identities, means, modulus, specfun
from qcfun.specfun import AsymptoticClass, HypergeomParams

# 0.005 and 500 lie where tau2_inv's t leaves the double range (above and below)
GRID = (1e-320, 1e-12, 0.005, 0.5, 1.0 - 1e-12, 1.0, 2.0, 500.0, 1e3, 1e12, 1e308, math.inf, math.nan, -1.0, 0.0)
RESULT_TYPES = (float, UnitRadius, AsymptoticClass, HypergeomParams)
NOT_FUNCTIONS = {"BoundId", "SQRT_HALF", "EULER_GAMMA", "BoundaryCase", "AsymptoticClass", "MeanKind"}
MODULES = (bounds, distortion, means, modulus, specfun)
# bound_value has its own grid, with a finiteness check, in test_bounds.py
SKIPPED = NOT_FUNCTIONS | {"bound_signature", "bound_value"}


def _public_functions():
    for mod in MODULES:
        for name in mod.__all__:
            if name in SKIPPED:
                continue
            fn = getattr(mod, name)
            if name in ("mean", "mean_mod"):
                for kind in means.MeanKind:
                    yield f"{name}.{kind.name}", functools.partial(fn, kind), 3 if name == "mean_mod" else 2
            elif name == "gauss_F":
                yield name, lambda a, b, c, r: specfun.gauss_F(HypergeomParams(a, b, c), r), 4
            elif name == "hypergeom_boundary":
                yield name, lambda a, b, c: specfun.hypergeom_boundary(HypergeomParams(a, b, c)), 3
            elif name == "UnitRadius":
                yield name, fn, 2
                yield "UnitRadius.from_r", fn.from_r, 1
                yield "UnitRadius.from_comp", fn.from_comp, 1
            else:
                params = inspect.signature(fn).parameters.values()
                yield name, fn, sum(p.default is inspect.Parameter.empty for p in params)


CASES = list(_public_functions())


@pytest.mark.parametrize("name, fn, arity", CASES, ids=[c[0] for c in CASES])
def test_value_or_typed_error_on_grid(name, fn, arity):
    for point in itertools.product(GRID, repeat=arity):
        try:
            value = fn(*point)
        except QcfunError:
            continue
        assert isinstance(value, RESULT_TYPES), (name, point, value)
        if not isinstance(value, float):
            continue
        if name.split(".")[0] in means.__all__:
            assert not math.isnan(value) and math.isinf(value) == (math.inf in point), (name, point, value)
        else:
            assert math.isfinite(value), (name, point, value)
        # B has no exact zero and a subnormal B has lost digits: below 2^-1022 beta_fn raises
        assert name != "beta_fn" or value >= 2.0 ** -1022, (name, point, value)


def test_grid_covers_every_public_function():
    names = {c[0].split(".")[0] for c in CASES}
    expected = {n for mod in MODULES for n in mod.__all__}
    assert names == expected - SKIPPED


@pytest.mark.parametrize("case", identities.all_cases(), ids=lambda c: c.id)
def test_residual_value_or_typed_error_on_grid(case):
    for point in itertools.product(GRID, repeat=len(case.params)):
        try:
            value = identities.residual(case.id, point)
        except QcfunError:
            continue
        assert isinstance(value, float), (case.id, point, value)
    with pytest.raises(QcfunError):
        identities.residual(case.id, ("x",) * max(1, len(case.params)))


EXPERIMENT_PARAMS = [(name, p) for name, fn in identities._EXPERIMENTS.items()
                     for p in inspect.signature(fn).parameters] + [("phiid4_printed", "K")]


@pytest.mark.parametrize("name, param", EXPERIMENT_PARAMS, ids=[f"{n}.{p}" for n, p in EXPERIMENT_PARAMS])
def test_experiment_value_or_typed_error_on_grid(name, param):
    for value in GRID + ("x", None):
        try:
            obs = identities.experiment(name, **{param: value})
        except QcfunError:
            continue
        assert isinstance(obs, dict), (name, param, value)


class TestOverflowExits:
    def test_mu_a_derivative_complement_underflow(self):
        # r r'^2 F^2 underflows to 0 here: the slope is beyond the double range
        with pytest.raises(OverflowSignal):
            mu_a_derivative(0.3, UnitRadius.from_comp(1e-170))

    @pytest.mark.parametrize("r", [5e-324, 1e-310])
    def test_mu_a_derivative_subnormal_radius(self, r):
        with pytest.raises(OverflowSignal):
            mu_a_derivative(0.3, r)

    def test_mu_a_derivative_last_finite_slopes(self):
        assert mu_a_derivative(0.3, 1e-300) == pytest.approx(-1e300, rel=1e-12)
        assert math.isfinite(mu_a_derivative(0.5, UnitRadius.from_comp(1e-156)))

    @pytest.mark.parametrize("x", [709.0, -709.0, 710.0, 1000.0, -1000.0, 1e308, -1e308])
    def test_linearized_g_far_argument(self, x):
        # q or 1 - q is below the normal double range: e^-709 ~ 1.2e-308
        with pytest.raises(ConvergenceError):
            linearized_g(1.0, x)

    @pytest.mark.parametrize("x", [708.0, -708.0])
    def test_linearized_g_last_normal_argument(self, x):
        assert linearized_g(1.0, x) == pytest.approx(x, rel=1e-15)

    @pytest.mark.parametrize("x", [1e-320, 5e-324])
    def test_gamma_tiny_argument(self, x):
        with pytest.raises(OverflowSignal):
            gamma_fn(x)
        with pytest.raises(OverflowSignal):
            beta_fn(x, 1.0)

    def test_gamma_near_overflow_edge(self):
        assert gamma_fn(1e-308) == pytest.approx(1e308, rel=1e-12)

    def test_beta_huge_arguments(self):
        # B(1e308, 1e-320) ~ 1e320; B(1e308, 0.5) = 1.77e-154 is a value (test_reference_sweep)
        with pytest.raises(OverflowSignal):
            beta_fn(1e308, 1e-320)

    def test_beta_rejects_infinity(self):
        with pytest.raises(QcfunError):
            beta_fn(math.inf, 1.0)

    def test_gauss_f_series_overflow(self):
        # F(a, 1000; a; r) = (1 - r)^-1000 = 1e12000; the series terms overflow
        with pytest.raises(OverflowSignal):
            specfun.gauss_F(HypergeomParams(1e-320, 1000.0, 1e-320), 1.0 - 1e-12)
        assert specfun.gauss_F(HypergeomParams(1.0, 100.0, 1.0), 0.9) == pytest.approx(1e100, rel=1e-12)

    def test_gauss_f_near_one_normaliser_underflow(self):
        # B(1000, 1000) ~ 1e-603 underflows; F(1000,1000;2000;1-1e-12) ~ 1.3e604 overflows
        with pytest.raises(OverflowSignal):
            specfun.gauss_F_near_one(1000.0, 1000.0, 1e-12)

    def test_gauss_f_near_one_quotient_overflow(self):
        # B(509, 509) = 5.6e-308 is a normal double, F(509, 509; 1018; 1 - 1e-12) = 2.5e308 is not
        # (mpmath); at (510, 510) B = 1.4e-308 is subnormal, and beta_fn refuses it first
        with pytest.raises(OverflowSignal, match="gauss_F_near_one"):
            specfun.gauss_F_near_one(509.0, 509.0, 1e-12)

    # F(500, 1000; 1500.000001; 1) = e^970.6 and F(4e307, 4e307; 1e308; 1) = e^(2.9e307)
    # (mpmath); at c = 1e308 the case A constant of (.5, .5) is 1
    @pytest.mark.parametrize("params", [(1000.0, 1000.0, 0.5), (500.0, 1000.0, 1500.000001),
                                        (1e-320, 0.5, 1e-320), (4e307, 4e307, 1e308)])
    def test_hypergeom_boundary_gamma_ratio(self, params):
        with pytest.raises(OverflowSignal):
            specfun.hypergeom_boundary(HypergeomParams(*params))
