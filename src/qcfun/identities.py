"""Machine-checkable registry of the modular-equation identities and inequalities.

Every case evaluates to a signed residual (equalities) or a slack (inequalities,
nonnegative when the inequality holds), normalized where the compared
quantities grow large, so one tolerance per case is meaningful across its grid.
``run_suite`` sweeps the default grids and returns one report per case;
``experiment`` exposes the open-problem observations (never asserted).

Degree-p solutions are radii s with mu(s) = p mu(r); in Ramanujan's notation
alpha = r^2 and beta = s^2, and complements 1-alpha, 1-beta are read from the
complement channels, which keeps eighth and twenty-fourth roots meaningful
even when beta ~ 1e-80.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from enum import Enum
from functools import partial

from .distortion import _logistic_radius, eta_K2, lambda_of_K, phi_aK, phi_K
from .errors import DomainError, QcfunError
from .means import MeanKind, agm, comp_radius, ellint_K, ellint_K_from_comp, mean, mean_mod
from .modulus import SQRT_HALF, UnitRadius, _mu_a_parts, agm_product_p, as_radius, mu, mu_a, mu_inv
from .specfun import _ZB_SWITCH, HypergeomParams, beta_fn, gauss_F, gauss_F_near_one, ramanujan_R

__all__ = [
    "CaseKind",
    "IdentityCase",
    "ResidualReport",
    "all_cases",
    "get_case",
    "residual",
    "run_suite",
    "experiment",
    "EXPERIMENT_NAMES",
]

R_GRID = tuple(round(0.05 * i, 10) for i in range(1, 20))
K_GRID = (1.01, 1.1, 1.5, 2.0, 3.0, 5.0)
A_GRID = (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5)
T_GRID = (0.0, 0.25, 1.0, 4.0, 10.0)
LAMBDA_K_GRID = (1.1, 1.5, 2.0, 3.0, 5.0)
AB_PAIRS = ((0.25, 0.25), (0.25, 0.75), (1.0 / 3.0, 1.0 / 3.0), (0.5, 0.5))
XY_PAIRS = ((1.0, 2.0), (0.5, 3.0), (2.0, 2.5), (1.0, 10.0), (0.1, 0.2), (1.0, 1.05))

_THIRD = 1.0 / 3.0


class CaseKind(Enum):
    Equality = "equality"
    Inequality = "inequality"
    MonotoneProperty = "monotone"


class IdentityCase(namedtuple("IdentityCase", ("id", "kind", "fn", "domains", "default_points", "note"),
                              defaults=("",))):
    """One registry entry: residual function, the domain of each of its
    parameters, default grid.  The parameter names are those of the function's
    signature, and the tolerance is that of the kind."""

    __slots__ = ()

    @property
    def params(self) -> tuple[str, ...]:
        return _params(self.fn)

    @property
    def tolerance(self) -> float:
        return _TOLERANCE[self.kind]

    def check_point(self, point) -> None:
        params = self.params
        if len(point) != len(params):
            raise DomainError(f"{self.id} expects {len(params)} parameter(s), got {len(point)}")
        for name, value, (lo, hi) in zip(params, point, self.domains):
            if not (lo <= value <= hi):
                raise DomainError(f"{self.id}: parameter {name}={value} outside [{lo}, {hi}]")


def _params(fn) -> tuple[str, ...]:
    """The positional parameter names of ``fn``; of a partial, those its arguments leave open."""
    bound = 0
    if isinstance(fn, partial):
        fn, bound = fn.func, len(fn.args)
    code = fn.__code__
    return code.co_varnames[bound:code.co_argcount]


class ResidualReport(namedtuple("ResidualReport", ("case", "kind", "grid", "n_points", "max_residual",
                                                   "worst_point", "tolerance", "passed", "error"),
                                 defaults=(None,))):
    """Grid summary of one case; pass means max residual (or violation) within tolerance."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields in order, keyed by their names, with ``pass`` for ``passed``."""
        return {"pass" if name == "passed" else name: value for name, value in zip(self._fields, self)}


def _landen_ascend(r: float) -> UnitRadius:
    """2 sqrt(r)/(1+r) with its exact complement (1-r)/(1+r)."""
    return UnitRadius(2.0 * math.sqrt(r) / (1.0 + r), (1.0 - r) / (1.0 + r))


def _degree(u: UnitRadius, p: float) -> UnitRadius:
    """Degree-p solution s = phi_{1/p}(r), i.e. mu(s) = p mu(r)."""
    return phi_K(1.0 / p, u)


# ---------------------------------------------------------------------------
# equality residuals
# ---------------------------------------------------------------------------

def _lj3(r):
    u = UnitRadius.from_r(r)
    s = _degree(u, 3.0)
    return math.sqrt(u.r * s.r) + math.sqrt(u.comp * s.comp) - 1.0


def _ram_parts(u: UnitRadius, s: UnitRadius):
    return u.r * u.r, u.comp * u.comp, s.r * s.r, s.comp * s.comp


def _e1(r):
    u = UnitRadius.from_r(r)
    al, oma, be, omb = _ram_parts(u, _degree(u, 5.0))
    return (
        math.sqrt(al * be)
        + math.sqrt(oma * omb)
        + 2.0 * (16.0 * al * be * oma * omb) ** (1.0 / 6.0)
        - 1.0
    )


def _e2(r):
    u = UnitRadius.from_r(r)
    al, oma, be, omb = _ram_parts(u, _degree(u, 7.0))
    return (al * be) ** 0.125 + (oma * omb) ** 0.125 - 1.0


def _e3(r):
    u = UnitRadius.from_r(r)
    s3 = _degree(u, 3.0)
    s9 = _degree(s3, 3.0)  # two nested degree-3 solutions give degree 9
    al, oma = u.r * u.r, u.comp * u.comp
    be, omb = s3.r * s3.r, s3.comp * s3.comp
    ga, omg = s9.r * s9.r, s9.comp * s9.comp
    return (al * omg) ** 0.125 + (ga * oma) ** 0.125 - 2.0 ** _THIRD * (be * omb) ** (1.0 / 24.0)


def _e4(r):
    u = UnitRadius.from_r(r)
    al, oma, be, omb = _ram_parts(u, _degree(u, 23.0))
    return (
        (al * be) ** 0.125
        + (oma * omb) ** 0.125
        + 2.0 ** (2.0 / 3.0) * (al * be * oma * omb) ** (1.0 / 24.0)
        - 1.0
    )


def _e5_expr(al, oma, be, omb):
    return (
        (al * be) ** 0.125
        + (oma * omb) ** 0.125
        - (al * be * oma * omb) ** 0.125
        - math.sqrt(0.5 * (1.0 + math.sqrt(al * be) + math.sqrt(oma * omb)))
    )


def _e5a(r):
    u = UnitRadius.from_r(r)
    return _e5_expr(*_ram_parts(u, _degree(u, 7.0)))


def _e5b(r):
    u = UnitRadius.from_r(r)
    s3, s5 = _degree(u, 3.0), _degree(u, 5.0)
    return _e5_expr(s3.r * s3.r, s3.comp * s3.comp, s5.r * s5.r, s5.comp * s5.comp)


def _phiid1(s):
    u = as_radius(s)
    x, y = phi_K(math.sqrt(5.0), u), phi_K(1.0 / math.sqrt(5.0), u)
    prod = x.r * y.r * x.comp * y.comp
    return x.r * y.r + x.comp * y.comp + 2.0 ** (5.0 / 3.0) * prod ** _THIRD - 1.0


def _phiid2(s):
    u = as_radius(s)
    x, y = phi_K(math.sqrt(7.0), u), phi_K(1.0 / math.sqrt(7.0), u)
    return (x.r * y.r) ** 0.25 + (x.comp * y.comp) ** 0.25 - 1.0


def _phiid3(s):
    u = as_radius(s)
    x, y = phi_K(3.0, u), phi_K(3.0, u.swapped)
    rhs = 2.0 ** _THIRD * (u.r * u.r * u.comp * u.comp) ** (1.0 / 24.0)
    return (x.r * y.r) ** 0.25 + (x.comp * y.comp) ** 0.25 - rhs


def _phiid4(s):
    u = as_radius(s)
    x, y = phi_K(math.sqrt(23.0), u), phi_K(1.0 / math.sqrt(23.0), u)
    prod = x.r * x.comp * y.r * y.comp
    return (x.r * y.r) ** 0.25 + (x.comp * y.comp) ** 0.25 + 2.0 ** (2.0 / 3.0) * prod ** (1.0 / 12.0) - 1.0


def _phiid4_printed(s):
    # verbatim printed parameterization; degenerates to the fixed-point relation
    u = UnitRadius.from_r(s)
    x, y = phi_K(1.0 / math.sqrt(23.0), u), phi_K(math.sqrt(23.0), u.swapped)
    prod = x.r * x.comp * y.r * y.comp
    return (x.r * y.r) ** 0.25 + (x.comp * y.comp) ** 0.25 + 2.0 ** (2.0 / 3.0) * prod ** (1.0 / 12.0) - 1.0


def _phiid5(s):
    u = as_radius(s)
    x = phi_K(math.sqrt(5.0 / 3.0), u)
    y = phi_K(math.sqrt(3.0 / 5.0), u)
    xy, xcyc = x.r * y.r, x.comp * y.comp
    return (
        xy ** 0.25
        + xcyc ** 0.25
        - (xy * xcyc) ** 0.25
        - math.sqrt(0.5 * (1.0 + xy + xcyc))
    )


def _bbg(p, r):
    u = UnitRadius.from_r(r)
    s = phi_aK(_THIRD, 1.0 / p, u)
    return u.r * u.r, u.comp * u.comp, s.r * s.r, s.comp * s.comp


def _bbg2(r):
    al, oma, be, omb = _bbg(2.0, r)
    return (al * be) ** _THIRD + (oma * omb) ** _THIRD - 1.0


def _bbg5(r):
    al, oma, be, omb = _bbg(5.0, r)
    return (al * be) ** _THIRD + (oma * omb) ** _THIRD + 3.0 * (al * be * oma * omb) ** (1.0 / 6.0) - 1.0


def _bbg11(r):
    al, oma, be, omb = _bbg(11.0, r)
    q = al * be * oma * omb
    return (
        (al * be) ** _THIRD
        + (oma * omb) ** _THIRD
        + 6.0 * q ** (1.0 / 6.0)
        + 3.0 * math.sqrt(3.0) * q ** (1.0 / 12.0) * ((al * be) ** (1.0 / 6.0) + (oma * omb) ** (1.0 / 6.0))
        - 1.0
    )


def _phigroup1(K, r):
    u = UnitRadius.from_r(r)
    x = phi_K(K, u)
    y = phi_K(1.0 / K, u.swapped)
    return x.r * x.r + y.r * y.r - 1.0


def _phigroup2(A, B, r):
    u = UnitRadius.from_r(r)
    return phi_K(A, phi_K(B, u)).r - phi_K(A * B, u).r


def _phigroup3(K, r):
    u = UnitRadius.from_r(r)
    return phi_K(1.0 / K, phi_K(K, u)).r - r


def _phigroup4(r):
    u = UnitRadius.from_r(r)
    return phi_K(2.0, u).r - 2.0 * math.sqrt(r) / (1.0 + r)


def _ramid(a, r):
    p1 = HypergeomParams(1.0 + a, 2.0 - a, 2.0)
    p2 = HypergeomParams(a, 1.0 - a, 1.0)
    lhs = gauss_F(p1, 1.0 - r) * gauss_F(p2, r) + gauss_F(p1, r) * gauss_F(p2, 1.0 - r)
    rhs = math.sin(math.pi * a) / (math.pi * a * (1.0 - a) * r * (1.0 - r))
    return lhs / rhs - 1.0


def _landen(r):
    s = _landen_ascend(r)
    rhs = (1.0 + r) * ellint_K(r)
    return (ellint_K_from_comp(s.comp, s.r) - rhs) / rhs


# ---------------------------------------------------------------------------
# inequality slacks (nonnegative when the claim holds), normalized
# ---------------------------------------------------------------------------

def _landen_ineq(a, b, r):
    p = HypergeomParams(a, b, a + b)
    rhs = (1.0 + r) * gauss_F(p, r * r)
    s = _landen_ascend(r)
    # above the balanced seam F is read off the exact complement (1-r)/(1+r), where s^2 may round to 1
    lhs = gauss_F(p, s.r * s.r) if s.r * s.r <= _ZB_SWITCH else gauss_F_near_one(a, b, s.comp * s.comp)
    return (rhs - lhs) / max(1.0, rhs)


def _mu_sub(a, r, s):
    rc, sc = UnitRadius.from_r(r), UnitRadius.from_r(s)
    mid = math.sqrt(2.0 * r * s / (1.0 + r * s + rc.comp * sc.comp))
    lhs = mu_a(a, r) + mu_a(a, s)
    m_mid = 2.0 * mu_a(a, mid)
    m_geo = 2.0 * mu_a(a, math.sqrt(r * s))
    return min(m_mid - lhs, m_geo - m_mid) / max(1.0, lhs)


def _mu_super(a, r, t):
    rc, tc = UnitRadius.from_r(r), UnitRadius.from_r(t)
    mid = (r + t) / (1.0 + r * t + rc.comp * tc.comp)
    rhs = mu_a(a, r) + mu_a(a, t)
    return (rhs - 2.0 * mu_a(a, mid)) / max(1.0, rhs)


def _dup_constant(a):
    big_r = ramanujan_R(a, 1.0 - a)
    c = (1.0 + math.sin(math.pi * a) / math.pi * (big_r - math.log(16.0))) ** 2
    return min(2.0, c)


def _mu_dup(a, r):
    u = UnitRadius.from_r(r)
    doubled = 2.0 * mu_a(a, _landen_ascend(r))
    base = mu_a(a, u)
    c1 = _dup_constant(a)
    return min(doubled - base, c1 * base - doubled) / max(1.0, base)


def _mu_prod(a, r):
    u = UnitRadius.from_r(r)
    p = agm_product_p(u)
    e = r * math.exp(mu_a(a, u))
    big_r = ramanujan_R(a, 1.0 - a)
    return min(e - p, math.exp(big_r) / 16.0 * p - e) / p


def _mean_chain(x, y):
    g = mean(MeanKind.Geometric, x, y)
    l = mean(MeanKind.Logarithmic, x, y)
    ag = mean(MeanKind.ArithmeticGeometric, x, y)
    l32 = mean_mod(MeanKind.Logarithmic, 1.5, x, y)
    a = mean(MeanKind.Arithmetic, x, y)
    return min(l - g, ag - l, l32 - ag, a - l32) / max(1.0, a)


def _k_bracket_lower(r):
    k = ellint_K(r)
    u = UnitRadius.from_r(r)
    return (k - 9.0 / (8.0 + r * r) * math.log(4.0 / u.comp)) / k


def _k_bracket_upper(r):
    k = ellint_K(r)
    u = UnitRadius.from_r(r)
    return (4.0 / (3.0 + r * r) * math.log(4.0 / u.comp) - k) / k


def _lambda_lower(K):
    lam = lambda_of_K(K)
    return (lam - math.exp(math.pi * (K - 1.0))) / lam


def _lambda_upper(K):
    lam = lambda_of_K(K)
    return (math.exp(math.pi * (K - 1.0 / K)) - lam) / lam


def _qiu(K, t):
    if t == 0.0:
        return 0.0  # both sides vanish identically
    b = math.exp(2.0 * mu(UnitRadius.from_r(1.0 / math.sqrt(1.0 + t))))
    bound = min(16.0 * t + b ** K - b, (16.0 * t + 8.0) ** K - 8.0)
    return (bound - 16.0 * eta_K2(K, t)) / max(1.0, bound)


def _mu_plus_log_decreasing(r1, r2):
    return (mu(UnitRadius.from_r(r1)) + math.log(r1)) - (mu(UnitRadius.from_r(r2)) + math.log(r2))


def _k_over_log_decreasing(r1, r2):
    def f(r):
        u = UnitRadius.from_r(r)
        return ellint_K(r) / math.log(4.0 / u.comp)

    return f(r1) - f(r2)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _pts(*axes):
    return tuple(itertools.product(*axes))


_EQ, _INEQ, _MONO = CaseKind.Equality, CaseKind.Inequality, CaseKind.MonotoneProperty
# every equality case: the default grids measure at most 1.2e-15, and a closed-form
# or theta route that drifts by 1e-12 relative must fail the suite
_TOLERANCE = {_EQ: 1e-13, _INEQ: 1e-11, _MONO: 1e-11}

_R_OPEN = (1e-12, 1.0 - 1e-12)
_DILATATION = (1e-6, 1e6)
_SIGNATURE = (1e-6, 0.5)
_ON_R_GRID = ((_R_OPEN,), _pts(R_GRID))  # one radius in (0, 1) over the default r grid
_RS_PAIRS = tuple((r, s) for r in R_GRID for s in R_GRID if r <= s)
_CONSEC = tuple(zip(R_GRID[:-1], R_GRID[1:]))

# id, kind, residual function, the domain of each of its parameters in order,
# default grid[, note]
_TABLE = (
    ("LJ3", _EQ, _lj3, *_ON_R_GRID),
    ("RamanujanE1", _EQ, _e1, *_ON_R_GRID),
    ("RamanujanE2", _EQ, _e2, *_ON_R_GRID),
    ("RamanujanE3", _EQ, _e3, *_ON_R_GRID,
     "three-level case (degrees 1,3,9): two nested degree-3 inversions"),
    ("RamanujanE4", _EQ, _e4, *_ON_R_GRID),
    ("RamanujanE5a", _EQ, _e5a, *_ON_R_GRID),
    ("RamanujanE5b", _EQ, _e5b, *_ON_R_GRID),
    ("PhiId1", _EQ, _phiid1, *_ON_R_GRID),
    ("PhiId2", _EQ, _phiid2, *_ON_R_GRID),
    ("PhiId3", _EQ, _phiid3, *_ON_R_GRID),
    ("PhiId4", _EQ, _phiid4, *_ON_R_GRID,
     "source prints x = phi_{1/sqrt23}(s), y = phi_{sqrt23}(s'), which collapses "
     "to the fixed-point relation (suspected transcription issue; see the "
     "phiid4_printed experiment); evaluated with x = phi_{sqrt23}(s), "
     "y = phi_{1/sqrt23}(s)"),
    ("PhiId5", _EQ, _phiid5, *_ON_R_GRID),
    # at the self-dual point s = s' = 1/sqrt 2, y = x', so each composition
    # identity above is its fixed-point relation
    *((f"Fixed{i}", _EQ, partial(fn, SQRT_HALF), (), ((),))
      for i, fn in enumerate((_phiid1, _phiid2, _phiid3, _phiid4, _phiid5), 1)),
    ("BBG2", _EQ, _bbg2, *_ON_R_GRID),
    ("BBG5", _EQ, _bbg5, *_ON_R_GRID),
    ("BBG11", _EQ, _bbg11, *_ON_R_GRID, "degree 11 compounds two deep inversions"),
    ("PhiGroup1", _EQ, _phigroup1, (_DILATATION, _R_OPEN), _pts(K_GRID, R_GRID)),
    ("PhiGroup2", _EQ, _phigroup2, (_DILATATION, _DILATATION, _R_OPEN), _pts(K_GRID, K_GRID, R_GRID)),
    ("PhiGroup3", _EQ, _phigroup3, (_DILATATION, _R_OPEN), _pts(K_GRID, R_GRID)),
    ("PhiGroup4", _EQ, _phigroup4, *_ON_R_GRID),
    ("RamIdCase", _EQ, _ramid, ((1e-6, 1.0 - 1e-6), _R_OPEN), _pts(A_GRID, R_GRID),
     "residual is relative to the right-hand side"),
    ("Landen", _EQ, _landen, *_ON_R_GRID, "residual is relative to (1+r)K(r)"),
    ("LandenIneq", _INEQ, _landen_ineq, ((1e-6, 1.0), (1e-6, 1.0), _R_OPEN),
     tuple((a, b, r) for (a, b) in AB_PAIRS for r in R_GRID)),
    ("MuSub", _INEQ, _mu_sub, (_SIGNATURE, _R_OPEN, _R_OPEN),
     tuple((a, *rs) for a in A_GRID for rs in _RS_PAIRS)),
    ("MuSuper", _INEQ, _mu_super, (_SIGNATURE, _R_OPEN, _R_OPEN),
     tuple((a, *rt) for a in A_GRID for rt in _RS_PAIRS)),
    ("MuDup", _INEQ, _mu_dup, (_SIGNATURE, _R_OPEN), _pts(A_GRID, R_GRID)),
    ("MuProd", _INEQ, _mu_prod, (_SIGNATURE, _R_OPEN), _pts(A_GRID, R_GRID),
     "slack normalized by the product p; equality throughout at a = 1/2"),
    ("MeanChain", _INEQ, _mean_chain, ((1e-12, 1e12), (1e-12, 1e12)), XY_PAIRS),
    ("KBracketLower", _INEQ, _k_bracket_lower, *_ON_R_GRID),
    ("KBracketUpper", _INEQ, _k_bracket_upper, *_ON_R_GRID),
    ("LambdaBracketLower", _INEQ, _lambda_lower, ((1.0, 1e3),), _pts(LAMBDA_K_GRID)),
    ("LambdaBracketUpper", _INEQ, _lambda_upper, ((1.0, 1e3),), _pts(LAMBDA_K_GRID)),
    # K <= 40 keeps (16t + 8)^K and b^K inside the double range for t <= 1e6
    ("QiuBracket", _INEQ, _qiu, ((1.0, 40.0), (0.0, 1e6)), _pts(K_GRID, T_GRID),
     "equality at K = 1 or t = 0"),
    ("MuPlusLog", _MONO, _mu_plus_log_decreasing, (_R_OPEN, _R_OPEN), _CONSEC,
     "mu(r) + log r decreases; slack is the drop across consecutive grid points"),
    ("KOverLog", _MONO, _k_over_log_decreasing, (_R_OPEN, _R_OPEN), _CONSEC,
     "K(r)/log(4/r') decreases; slack is the drop across consecutive grid points"),
)
_CASES = {row[0]: IdentityCase(*row) for row in _TABLE}


def all_cases() -> tuple[IdentityCase, ...]:
    """Every registered case, ordered by id."""
    return tuple(_CASES[k] for k in sorted(_CASES))


def get_case(case_id: str) -> IdentityCase:
    try:
        return _CASES[case_id]
    except KeyError:
        raise DomainError(f"unknown identity case {case_id!r}; known: {', '.join(sorted(_CASES))}") from None


def residual(case_id: str, point) -> float:
    """Signed residual (equality) or slack (inequality/monotone) of one case at one point.

    A point that is not a sequence of numbers, or lies outside the case's
    domain, raises :class:`DomainError`; constituent evaluation errors
    propagate with the case id attached.
    """
    case = get_case(case_id)
    try:
        point = tuple(float(v) for v in point)
    except (TypeError, ValueError):
        raise DomainError(f"{case_id} takes numeric parameters {case.params}, got {point!r}") from None
    case.check_point(point)
    try:
        return case.fn(*point)
    except QcfunError as exc:
        raise type(exc)(f"{case_id}{point}: {exc}") from exc


def run_suite(case_ids=None, grid_overrides=None) -> list[ResidualReport]:
    """Evaluate cases over their grids and summarize one report per case.

    ``grid_overrides`` maps a parameter name to an explicit list of values;
    it replaces that axis of the default grid (cartesian with the others).
    The default points run as stored (a test holds each inside its case's
    domains, once); each point built from an override is checked against the
    domains as it runs, and one outside them fails its case's report.
    Per-case failures are captured in the report, never raised.  Reports come
    back sorted by case id; evaluation order never affects the numbers.
    """
    cases = all_cases() if case_ids is None else tuple(get_case(cid) for cid in case_ids)
    overrides = grid_overrides or {}
    reports = []
    for case in cases:
        params, points = case.params, case.default_points
        overridden = any(name in overrides for name in params)
        if overridden:
            # every default point with its overridden coordinates swept over the
            # override values; the joint structure of the other coordinates (e.g.
            # admissible parameter pairs) is preserved, and repeats are dropped
            points = tuple(dict.fromkeys(
                q for p in points
                for q in itertools.product(*(overrides.get(name, (v,)) for name, v in zip(params, p)))
            ))
        worst, worst_val, err = (), -math.inf, None
        try:
            for point in points:
                if overridden:
                    case.check_point(point)
                value = case.fn(*point)
                bad = abs(value) if case.kind is CaseKind.Equality else -value
                if bad > worst_val:
                    worst_val = bad
                    worst = point
        except Exception as exc:  # noqa: BLE001 - aggregate without aborting the suite
            err = f"{type(exc).__name__}: {exc}"
            worst_val = math.nan
        grid = f"{len(points)} point(s) over ({', '.join(params)})" if params else "single evaluation"
        reports.append(ResidualReport(case.id, case.kind.value, grid, len(points), worst_val, worst,
                                      case.tolerance, worst_val <= case.tolerance, err))
    reports.sort(key=lambda rep: rep.case)
    return reports


# ---------------------------------------------------------------------------
# open-problem experiments: observations only, nothing asserted
# ---------------------------------------------------------------------------

# the largest integer parameter (n) of an experiment: q_maclaurin's
# coefficient recursion is quadratic in n and takes about 0.04 s at n = 1000
_MAX_N = 1000


def _exp_q_maclaurin(a=0.25, b=0.25, n=20) -> dict:
    """Maclaurin coefficients of G(r) = (Q(r)-1)/(1-r), Q = B F(a,b;a+b;r)/log(c/(1-r)).

    The open question is whether they are all positive; this only reports them.
    """
    if not (0 < a <= 1 and 0 < b <= 1 and a + b <= 1):
        raise DomainError("q_maclaurin requires a, b in (0,1] with a + b <= 1")
    big_b = beta_fn(a, b)
    big_r = ramanujan_R(a, b)
    f = [1.0]
    for k in range(n):
        f.append(f[-1] * (a + k) * (b + k) / ((a + b + k) * (k + 1.0)))
    den = [big_r] + [1.0 / k for k in range(1, n + 1)]
    q = []
    for k in range(n + 1):
        s = big_b * f[k] - sum(den[j] * q[k - j] for j in range(1, k + 1))
        q.append(s / den[0])
    coeffs = list(itertools.accumulate(q, initial=-1.0))[1:]  # G's coefficients: partial sums of Q - 1
    return {
        "a": a,
        "b": b,
        "coefficients": coeffs,
        "signs": ["+" if c > 0 else ("-" if c < 0 else "0") for c in coeffs],
        "all_positive": all(c > 0 for c in coeffs),
    }


def _exp_newton(y=4.0, n=30) -> dict:
    """At most n raw (unsafeguarded) Newton iterates for the inverse modulus, from 1/cosh y."""
    if not (y > 0.5 * math.pi):
        raise DomainError("the raw Newton iteration is stated for y > pi/2")
    # raises ConvergenceError where the root underflows, before cosh y can overflow
    reference = mu_inv(y).r
    x = 1.0 / math.cosh(y)
    iterates = [x]
    for _ in range(n):
        u = UnitRadius(x, comp_radius(x))
        g = agm(1.0, u.comp)
        x_next = x + (mu(u) - y) * x * u.comp * u.comp / (g * g)
        if abs(x_next - x) <= 2e-16 * x:  # parked at the float resolution
            break
        iterates.append(x_next)
        x = x_next
    diffs = [b - a for a, b in zip(iterates, iterates[1:])]
    return {
        "y": y,
        "iterates": iterates,
        "monotone_increasing": all(d > 0 for d in diffs[:-1]),
        "stays_below_one": all(v < 1.0 for v in iterates),
        "final_residual": mu(UnitRadius.from_r(iterates[-1])) - y,
        "reference": reference,
    }


def _artanh_ratio(K: float, r: float) -> float:
    """artanh(phi_K(r)) / artanh(r^(1/K)), each artanh read without cancellation.

    For s = phi_K(r) > s', artanh s = log1p(s) - log s' from the complement
    channel, which keeps its digits where s rounds to 1; below, s' carries
    too few of them and artanh takes s itself.  With rho = r^(1/K),
    artanh rho = (log1p(rho) - log(1 - rho)) / 2 with 1 - rho = -expm1(log(r)/K).
    """
    s = phi_K(K, UnitRadius.from_r(r))
    log_rho = math.log(r) / K
    num = math.atanh(s.r) if s.r <= s.comp else math.log1p(s.r) - math.log(s.comp)
    return num / (0.5 * (math.log1p(math.exp(log_rho)) - math.log(-math.expm1(log_rho))))


def _exp_artanh(K=3.0) -> dict:
    """g(K,r) = artanh(phi_K(r)) / artanh(r^(1/K)) on the r grid against the conjectured range.

    Every finite K > 1 but 2 is sampled; from where the complement of
    phi_K(0.95) underflows (K ~ 281.1) on, :class:`ConvergenceError` is raised.
    """
    if not (1.0 < K < math.inf) or K == 2.0:
        raise DomainError(f"the conjecture is stated for fixed finite K > 1, K != 2, got {K}")
    values = [_artanh_ratio(K, r) for r in R_GRID]
    lim = 4.0 ** (1.0 - 1.0 / K)
    return {
        "K": K,
        "r": list(R_GRID),
        "g": values,
        "conjectured_range": (min(K, lim), max(K, lim)),
        "monotone_increasing": all(b > a for a, b in zip(values, values[1:])),
        "inside_range": all(min(K, lim) < v < max(K, lim) for v in values),
    }


_SLOPE_ERR = 2e-15  # relative error bound of the linearize_phi_a slopes


def _exp_linearize_a(a=1.0 / 3.0, K=2.0) -> dict:
    """Slopes of g = p o phi^a_K o p^-1, p = logit, at x = -6, -5.5, ..., 6.

    With q = p^-1(x) and v = phi^a_K(q), the chain rule through d mu_a/dr =
    -1 / (r (1-r^2) F(a,1-a;1;r^2)^2) gives g'(x) = (1+v) F(v^2)^2 /
    (K (1+q) F(q^2)^2), free of cancellation.  Against difference quotients of
    120-digit mpmath the slopes were within 1.7e-15 relative over 28 (a, K),
    K in [0.3, 20]; ``nondecreasing`` forgives a fall within _SLOPE_ERR of the slopes.
    """
    xs = [0.5 * i for i in range(-12, 13)]
    slopes = []
    for x in xs:
        q = _logistic_radius(x)
        v = phi_aK(a, K, q)
        f_q, f_v = _mu_a_parts(a, q)[1], _mu_a_parts(a, v)[1]
        slopes.append((1.0 + v.r) * f_v * f_v / (K * (1.0 + q.r) * f_q * f_q))
    return {
        "a": a,
        "K": K,
        "x": xs,
        "slope": slopes,
        "slope_range": (min(slopes), max(slopes)),
        "nondecreasing": all(b >= a_ - _SLOPE_ERR * (a_ + b) for a_, b in zip(slopes, slopes[1:])),
        "inside_open_interval": all(1.0 / K < s < K for s in slopes),
    }


def _exp_phiid4_printed() -> dict:
    """Residual of the degree-23 composition identity in its printed parameterization."""
    res = [_phiid4_printed(s) for s in R_GRID]
    return {
        "s": list(R_GRID),
        "residual": res,
        "max_abs_residual": max(abs(v) for v in res),
        "note": "printed form collapses to the fixed-point relation (y = x' identically); "
                "nonzero residual reported verbatim as a suspected transcription issue",
    }


# name -> function; its keyword parameters are the experiment's parameters,
# typed by their defaults (the CLI's experiment flags come from them)
_EXPERIMENTS = {
    "q_maclaurin": _exp_q_maclaurin,
    "newton_monotone": _exp_newton,
    "artanh_ratio": _exp_artanh,
    "linearize_phi_a": _exp_linearize_a,
    "phiid4_printed": _exp_phiid4_printed,
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def _experiment_defaults(fn) -> dict:
    """Parameter name -> default of an experiment function (every parameter has one)."""
    return dict(zip(_params(fn), fn.__defaults__ or ()))


def experiment(name: str, **params) -> dict:
    """Run an open-problem experiment and return its observations (no assertions).

    Parameters are numbers; an integer parameter (``n``) must be a whole
    number in [0, 1000].  An unknown name or parameter, or a value of the
    wrong kind, raises :class:`DomainError`.
    """
    try:
        fn = _EXPERIMENTS[name]
    except KeyError:
        raise DomainError(f"unknown experiment {name!r}; known: {', '.join(EXPERIMENT_NAMES)}") from None
    defaults = _experiment_defaults(fn)
    args = {}
    for key, value in params.items():
        if key not in defaults:
            raise DomainError(f"{key} is not a parameter of experiment {name}; "
                              f"its parameters: {', '.join(defaults) or 'none'}")
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise DomainError(f"experiment {name}: {key} must be a number, got {value!r}") from None
        if isinstance(defaults[key], int):
            if not (0 <= value <= _MAX_N and value == int(value)):
                raise DomainError(f"experiment {name}: {key} must be an integer in [0, {_MAX_N}], got {value}")
            value = int(value)
        args[key] = value
    return fn(**args)
