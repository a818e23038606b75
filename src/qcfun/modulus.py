"""The plane ring modulus, its generalized-signature version, and their inverses.

The modulus of the plane ring between the unit circle and a radial slit of
length r is

    mu(r) = (pi/2) K(r') / K(r),    r' = sqrt(1 - r^2),

strictly decreasing from +inf to 0 on (0,1).  Its signature-a generalization

    mu_a(r) = (pi / (2 sin(pi a))) F(a,1-a;1;1-r^2) / F(a,1-a;1;r^2)

reduces to mu at a = 1/2 and obeys the derivative formula

    d mu_a / dr = -1 / (r (1-r^2) F(a,1-a;1;r^2)^2),

which powers the Newton inversion of mu_a.  That inverse is safeguarded:
a sign-preserving bracket is maintained and any Newton step leaving it is
replaced by bisection, so termination does not depend on the (open) question
of whether the raw iteration converges.  The inverse of mu itself has a
closed form in Jacobi theta functions and needs no iteration.

Radii travel as :class:`UnitRadius` pairs (r, sqrt(1-r^2)).  Keeping the
complement as a first-class channel is what lets values within 1e-300 of the
endpoints round-trip at full precision: near r = 1 both inverses produce the
complement directly, where the problem is perfectly conditioned.

Pure functions throughout; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .means import agm, comp_radius, ellint_K_from_comp
from .specfun import HypergeomParams, gauss_F, gauss_F_near_one, ramanujan_R

__all__ = [
    "UnitRadius",
    "SQRT_HALF",
    "as_radius",
    "check_signature",
    "mu",
    "mu_inv",
    "mu_a",
    "mu_a_derivative",
    "mu_a_inv",
    "grotzsch_gamma2",
    "teichmuller_tau2",
    "tau2_inv",
    "gamma2_inv",
    "agm_product_p",
]

_SMALL_R = 1e-5  # below this, mu follows its log(4/r) - r^2/4 asymptote
_INV_CAP = 100


@dataclass(frozen=True)
class UnitRadius:
    """A radius r in (0,1) packaged with its complement sqrt(1 - r^2).

    Either channel may round to 1.0 in double precision while the other still
    carries the information (r = 1 - 1e-40 is representable as comp ~ 1.4e-20).
    Operations read whichever channel is well conditioned.
    """

    r: float
    comp: float

    def __post_init__(self):
        r, c = self.r, self.comp
        if not (0.0 < r <= 1.0 and math.isfinite(r)):
            raise DomainError(f"radius must lie in (0,1), got {r}")
        if not (0.0 < c <= 1.0 and math.isfinite(c)):
            raise DomainError(f"radius complement must lie in (0,1), got {c}")
        if r == 1.0 and c == 1.0:
            raise DomainError("radius and complement cannot both be 1")
        if abs(r * r + c * c - 1.0) > 1e-12:
            raise DomainError(f"inconsistent radius pair ({r}, {c}): r^2 + comp^2 != 1")

    @classmethod
    def from_r(cls, r: float) -> "UnitRadius":
        if not (0.0 < r < 1.0):
            raise DomainError(f"radius must lie strictly in (0,1), got {r}")
        return cls(r, comp_radius(r))

    @classmethod
    def from_comp(cls, comp: float) -> "UnitRadius":
        if not (0.0 < comp < 1.0):
            raise DomainError(f"radius complement must lie strictly in (0,1), got {comp}")
        return cls(comp_radius(comp), comp)

    @property
    def swapped(self) -> "UnitRadius":
        """The complementary radius r' as a UnitRadius (channels exchanged)."""
        return UnitRadius(self.comp, self.r)

    def __float__(self) -> float:
        return self.r


SQRT_HALF = UnitRadius(math.sqrt(0.5), math.sqrt(0.5))


def as_radius(x) -> UnitRadius:
    """Coerce a float in (0,1) or a UnitRadius to a UnitRadius."""
    if isinstance(x, UnitRadius):
        return x
    return UnitRadius.from_r(float(x))


def check_signature(a: float) -> float:
    """Validate a generalized-modulus signature a in (0, 1/2]."""
    if not (0.0 < a <= 0.5):
        raise DomainError(f"signature must lie in (0, 1/2], got {a}")
    return float(a)


# ---------------------------------------------------------------------------
# mu and its inverse
# ---------------------------------------------------------------------------

def mu(x) -> float:
    """Ring modulus mu(r) = (pi/2) K(r')/K(r), relative error <= 1e-13 on [1e-8, 1-1e-8].

    Branches: the two-term asymptote log(4/r) - r^2/4 below r = 1e-5 (absolute
    error < 1e-20 there), the AGM quotient in the bulk, and the guarded
    complement expansion of K once the complement channel drops below 1e-7.
    Endpoints raise :class:`DomainError` (the convention mu(1) = 0 is applied
    by callers that need the closed endpoint).
    """
    u = as_radius(x)
    if u.r < _SMALL_R:
        return math.log(4.0 / u.r) - 0.25 * u.r * u.r
    # K(r') = pi / (2 AG(1, r)) needs no complement of the complement
    k_prime = math.pi / (2.0 * agm(1.0, u.r))
    k = ellint_K_from_comp(u.comp, u.r)
    return 0.5 * math.pi * k_prime / k


def _bracketed_newton(value, deriv, y: float, lo: float, hi: float, x0: float,
                      rtol: float, geometric: bool) -> float:
    """Safeguarded Newton for a strictly monotone function.

    ``value``/``deriv`` evaluate f and f' at a scalar; the bracket [lo, hi]
    must satisfy sign(f(lo) - y) != sign(f(hi) - y).  Steps leaving the bracket
    fall back to bisection (geometric mean for exponentially scaled roots).
    """
    f_lo = value(lo) - y
    x = min(max(x0, lo), hi)
    for _ in range(_INV_CAP):
        f = value(x) - y
        if abs(f) <= rtol * max(1.0, abs(y)):
            return x
        if (f > 0.0) == (f_lo > 0.0):
            lo = x
        else:
            hi = x
        step = f / deriv(x)
        x_new = x - step
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = math.sqrt(lo * hi) if geometric else 0.5 * (lo + hi)
        # a step below a few ulps means the float resolution is exhausted
        if abs(x_new - x) <= 4e-16 * x:
            return x_new
        x = x_new
    raise ConvergenceError(f"safeguarded Newton failed to reach {y} within {_INV_CAP} iterations")


def _theta_radius(y: float) -> tuple[float, float]:
    """(theta_2^2, theta_4^2) / theta_3^2 at the nome q = e^(-2y), for y >= pi/2.

    With q <= e^-pi the series stop at q^16: the first dropped term,
    q^20 <= e^(-20 pi), lies below 1e-27.  theta_2 = 2 q^(1/4) sum q^(n(n+1))
    carries q^(1/4) = e^(-y/2) as a factor, so r ~ 4 e^-y keeps full relative
    precision however small it is.
    """
    q = math.exp(-2.0 * y)
    q2, q4 = q * q, q ** 4
    t2 = 1.0 + q2 * (1.0 + q4 * (1.0 + q2 * q4))
    even = 1.0 + 2.0 * q4 * (1.0 + q4 * q4 * q4)
    odd = 2.0 * q * (1.0 + q4 * q4)
    t3, t4 = even + odd, even - odd
    s = 2.0 * math.exp(-0.5 * y) * t2 / t3
    c = t4 / t3
    return s * s, c * c


def mu_inv(y: float) -> UnitRadius:
    """Inverse modulus: the radius with mu(r) = y, in closed form by theta functions.

    With the nome q = e^(-2y), r = theta_2(q)^2 / theta_3(q)^2 and
    r' = theta_4(q)^2 / theta_3(q)^2 (DLMF 20.2, 22.2), with the series cut
    after q^16 at y >= pi/2.  For y < pi/2 the same pair is taken at the dual
    y' = pi^2 / (4y), since mu(r') = pi^2 / (4 mu(r)), and the channels are
    exchanged: the complement comes out directly, down to 1e-300.  Against
    the AGM forward map, |mu(r) - y| <= 1e-15 max(1, y) was measured for y
    from 0.004 to 700.  A result outside the normal double range (y above
    about 709.8, or a complement below 1e-300) raises :class:`ConvergenceError`.
    """
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"mu_inv requires y > 0, got {y}")
    if y >= 0.5 * math.pi:
        r, comp = _theta_radius(y)
        if r < sys.float_info.min:
            raise ConvergenceError(f"mu_inv({y}): the result underflows double precision")
        return UnitRadius(r, comp)
    y_dual = math.pi * math.pi / (4.0 * y)
    if 4.0 * math.exp(-y_dual) < 1e-300:
        raise ConvergenceError(
            f"mu_inv({y}): the complement of the result underflows double precision"
        )
    comp, r = _theta_radius(y_dual)
    return UnitRadius(r, comp)


# ---------------------------------------------------------------------------
# generalized modulus mu_a
# ---------------------------------------------------------------------------

def _f_zero_balanced(a: float, z: float, one_minus_z: float, log_one_minus_z: float) -> float:
    """F(a,1-a;1;z) with the complement (and its log) supplied, routed for stability."""
    if z <= 0.0:
        return 1.0
    if z <= 0.95:
        return gauss_F(HypergeomParams(a, 1.0 - a, 1.0), z)
    return gauss_F_near_one(a, 1.0 - a, one_minus_z, log_one_minus_z)


def _mu_a_parts(a: float, u: UnitRadius) -> tuple[float, float]:
    """(mu_a(r), F(a,1-a;1;r^2)); the F factor is reused by Newton steps."""
    r_sq = u.r * u.r if u.r < 1.0 else (1.0 - u.comp) * (1.0 + u.comp)
    c_sq = u.comp * u.comp if u.comp < 1.0 else (1.0 - u.r) * (1.0 + u.r)
    # logs survive even where the squared channel underflows
    log_r_sq = 2.0 * math.log(u.r) if u.r < 1.0 else math.log1p(-c_sq)
    log_c_sq = 2.0 * math.log(u.comp) if u.comp < 1.0 else math.log1p(-r_sq)
    f_den = _f_zero_balanced(a, r_sq, c_sq, log_c_sq)
    f_num = _f_zero_balanced(a, c_sq, r_sq, log_r_sq)
    return math.pi / (2.0 * math.sin(math.pi * a)) * f_num / f_den, f_den


def mu_a(a: float, x) -> float:
    """Generalized modulus mu_a(r) for signature a in (0, 1/2].

    Strictly decreasing in r; agrees with mu to 1e-12 relative at a = 1/2
    (through an independent series route, not by delegation).
    """
    a = check_signature(a)
    return _mu_a_parts(a, as_radius(x))[0]


def mu_a_derivative(a: float, x) -> float:
    """d mu_a/dr = -1 / (r (1-r^2) F(a,1-a;1;r^2)^2); strictly negative."""
    a = check_signature(a)
    u = as_radius(x)
    _, f_den = _mu_a_parts(a, u)
    return -1.0 / (u.r * u.comp * u.comp * f_den * f_den)


def mu_a_inv(a: float, y: float) -> UnitRadius:
    """Inverse generalized modulus: mu_a(result) = y to 1e-11 max(1,y).

    Safeguarded Newton, with the derivative taken from the generalized
    derivative formula.  The bracket comes from
    mu(r) <= mu_a(r) <= mu(r) + R - log 16 combined with
    log(1/r) < mu(r) < log(4/r); below the symmetric value pi/(2 sin pi a)
    the iteration moves to the complement variable.
    """
    a = check_signature(a)
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"mu_a_inv requires y > 0, got {y}")
    sin_pa = math.sin(math.pi * a)
    y_sym = 0.5 * math.pi / sin_pa
    big_r = ramanujan_R(a, 1.0 - a)
    rtol = 1e-13

    if y >= y_sym:
        lo = math.exp(-y)
        hi = min(math.exp(big_r - math.log(4.0) - y), math.sqrt(0.5) * 1.0000001)
        if hi < sys.float_info.min:
            raise ConvergenceError(f"mu_a_inv({a}, {y}): the result underflows double precision")
        x0 = 1.0 / math.cosh(2.0 * y * sin_pa / math.pi)

        def val(r: float) -> float:
            return _mu_a_parts(a, UnitRadius(r, comp_radius(r)))[0]

        def der(r: float) -> float:
            u = UnitRadius(r, comp_radius(r))
            f_den = _mu_a_parts(a, u)[1]
            return -1.0 / (u.r * u.comp * u.comp * f_den * f_den)

        root = _bracketed_newton(val, der, y, lo, hi, x0, rtol, geometric=False)
        return UnitRadius(root, comp_radius(root))

    def g(c: float) -> float:
        return _mu_a_parts(a, UnitRadius.from_comp(c))[0]

    def g_der(c: float) -> float:
        u = UnitRadius.from_comp(c)
        f_den = _mu_a_parts(a, u)[1]
        r_sq = (1.0 - c) * (1.0 + c)
        return 1.0 / (r_sq * c * f_den * f_den)

    hi = math.sqrt(0.5)
    c0 = math.exp(0.5 * (big_r - math.pi * math.pi / (2.0 * sin_pa * sin_pa * y)))
    if c0 < 1e-300:
        raise ConvergenceError(
            f"mu_a_inv({a}, {y}): the complement of the result underflows double precision"
        )
    lo = min(0.25 * c0, 0.5 * hi)
    for _ in range(_INV_CAP):
        if g(lo) < y:
            break
        lo *= lo
        if lo < 1e-300:
            raise ConvergenceError(
                f"mu_a_inv({a}, {y}): the complement of the result underflows double precision"
            )
    else:
        raise ConvergenceError(f"mu_a_inv({a}, {y}): could not establish a bracket")
    root_c = _bracketed_newton(g, g_der, y, lo, hi, min(max(c0, lo * 1.0001), hi),
                               rtol, geometric=True)
    return UnitRadius.from_comp(root_c)


# ---------------------------------------------------------------------------
# planar capacities and the Landen product
# ---------------------------------------------------------------------------

def grotzsch_gamma2(s: float) -> float:
    """Plane ring capacity gamma_2(s) = 2 pi / mu(1/s) for s > 1.

    Decreasing in s: the capacity diverges as the ring degenerates at s -> 1+
    and vanishes as the ray recedes (gamma_2(sqrt 2) = 4, gamma_2(2) ~ 3.13).
    """
    if not (s > 1.0 and math.isfinite(s)):
        raise DomainError(f"grotzsch_gamma2 requires s > 1, got {s}")
    return 2.0 * math.pi / mu(UnitRadius.from_r(1.0 / s))


def teichmuller_tau2(t: float) -> float:
    """Plane capacity tau_2(t) = gamma_2(sqrt(t+1))/2 for t > 0; tau_2(1) = 2."""
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"teichmuller_tau2 requires t > 0, got {t}")
    return 0.5 * grotzsch_gamma2(math.sqrt(t + 1.0))


def tau2_inv(y: float) -> float:
    """Inverse of tau_2: the t with tau_2(t) = y, via t = 1/mu_inv(pi/y)^2 - 1."""
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"tau2_inv requires y > 0, got {y}")
    u = mu_inv(math.pi / y)
    q = u.comp / u.r
    return q * q


def gamma2_inv(y: float) -> float:
    """Inverse of gamma_2: the s > 1 with gamma_2(s) = y."""
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"gamma2_inv requires y > 0, got {y}")
    return 1.0 / mu_inv(2.0 * math.pi / y).r


def agm_product_p(x) -> float:
    """The ascending-Landen product p(r) = prod_n (1 + r_n)^(2^-n), r_0 = r'.

    r_n = 2 sqrt(r_{n-1}) / (1 + r_{n-1}) climbs to 1 quadratically; once
    |r_n - 1| < 1e-16 every remaining factor is exactly 2^(2^-m), so the tail
    closes as 2^(2^-n).  Equals r e^mu(r) at signature 1/2.
    """
    u = as_radius(x)
    rn = u.comp
    log_p = 0.0
    for n in range(61):
        log_p += math.log1p(rn) / (1 << n)
        # the iteration parks one ulp below 1, so the cutoff sits at the ulp floor
        if 1.0 - rn < 5e-16:
            log_p += math.log(2.0) / (1 << n)
            return math.exp(log_p)
        rn = 2.0 * math.sqrt(rn) / (1.0 + rn)
    raise ConvergenceError("agm_product_p iteration failed to reach 1 (NaN input?)")
