"""The plane ring modulus, its generalized-signature version, and their inverses.

The modulus of the plane ring between the unit circle and a radial slit of
length r is

    mu(r) = (pi/2) K(r') / K(r),    r' = sqrt(1 - r^2),

strictly decreasing from +inf to 0 on (0,1).  Its signature-a generalization

    mu_a(r) = (pi / (2 sin(pi a))) F(a,1-a;1;1-r^2) / F(a,1-a;1;r^2)

reduces to mu at a = 1/2 and obeys the derivative formula

    d mu_a / dr = -1 / (r (1-r^2) F(a,1-a;1;r^2)^2),

and the duality mu_a(r) mu_a(r') = (pi / (2 sin(pi a)))^2.  mu itself is
the log of the Jacobi nome q = e^(-2 mu(r)) of the smaller channel, with no
theta series (:func:`qcfun.means._nome`); the duality
mu(r) mu(r') = pi^2/4 gives the other channel.  At the signatures 1/2, 1/4
and 1/3 mu_a has closed forms: mu itself, mu at a Landen-transformed radius,
and a quotient of cubic AGMs.  At every other signature one series pass at
w = min(r^2, r'^2) <= 1/2 gives both F factors of mu_a.  Both inverses use
the duality to solve only for r <= 1/sqrt 2.  mu_inv, and mu_a_inv at
a = 1/2 and 1/4, are closed forms in theta functions from one routine
(:func:`_theta_radius`), which also serves the distortion pass
:func:`_phi_pair`: it scales the log nome of r by K, so composes mu and
mu_inv without forming either.  Every other signature takes the
safeguarded Newton iteration of :func:`_mu_a_newton`.

Radii travel as :class:`UnitRadius` pairs (r, sqrt(1-r^2)).  Keeping the
complement as a first-class channel is what lets values down to the smallest
normal double (2.2e-308) away from the endpoints round-trip at full
precision: near r = 1 both inverses produce the complement directly, where
the problem is perfectly conditioned.

Pure functions throughout; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ConvergenceError, DomainError, OverflowSignal
from .means import _agm3, _nome, comp_radius
from .specfun import _balanced_r0, _hyp_sums

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

_INV_CAP = 100
_HALF_PI = 0.5 * math.pi
_QUARTER_PI_SQ = 0.25 * math.pi * math.pi
_THIRD = 1.0 / 3.0
_MIN_NORMAL = sys.float_info.min
_Y_SYM_THIRD = 0.5 * math.pi / math.sin(math.pi * _THIRD)


class UnitRadius(namedtuple("UnitRadius", ("r", "comp"))):
    """A radius r in (0,1) packaged with its complement sqrt(1 - r^2).

    Either channel may round to 1.0 in double precision while the other still
    carries the information (r = 1 - 1e-40 is representable as comp ~ 1.4e-20).
    Operations read whichever channel is well conditioned.

    A pair is a tuple (r, comp), so it unpacks and compares equal to the plain
    tuple.  The public constructors validate: ``UnitRadius(r, comp)`` (and
    ``_make``/``_replace``) checks both channels and r^2 + comp^2 = 1, and
    ``from_r``/``from_comp`` check their one channel before forming the other.
    Pairs the library forms itself, where those checks can never fire (a
    complement of a checked channel, exchanged channels, the theta inverses
    after their underflow guard), are built by the trusted :func:`_pair`, so
    each public call validates its radius once.
    """

    __slots__ = ()

    def __new__(cls, r: float, comp: float) -> "UnitRadius":
        if not (0.0 < r <= 1.0 and math.isfinite(r)):
            raise DomainError(f"radius must lie in (0,1), got {r}")
        if not (0.0 < comp <= 1.0 and math.isfinite(comp)):
            raise DomainError(f"radius complement must lie in (0,1), got {comp}")
        if abs(r * r + comp * comp - 1.0) > 1e-12:
            raise DomainError(f"inconsistent radius pair ({r}, {comp}): r^2 + comp^2 != 1")
        return tuple.__new__(cls, (r, comp))

    @classmethod
    def _make(cls, iterable) -> "UnitRadius":
        # the namedtuple default skips __new__; route it (and _replace) through the checks
        return cls(*iterable)

    @classmethod
    def from_r(cls, r: float) -> "UnitRadius":
        # r in (0,1) gives comp = sqrt((1-r)(1+r)) in (0,1], and r^2 + comp^2 = 1 to rounding
        return _pair(_checked_r(r), comp_radius(r))

    @classmethod
    def from_comp(cls, comp: float) -> "UnitRadius":
        if not (0.0 < comp < 1.0):
            raise DomainError(f"radius complement must lie strictly in (0,1), got {comp}")
        # as in from_r, with the channels exchanged
        return _pair(comp_radius(comp), comp)

    @property
    def swapped(self) -> "UnitRadius":
        """The complementary radius r' as a UnitRadius (channels exchanged)."""
        # every check of a pair is symmetric in its channels
        return _pair(self.comp, self.r)

    def __float__(self) -> float:
        return self.r


def _pair(r: float, comp: float) -> UnitRadius:
    """The pair (r, comp) without checks, for channels the caller has already guaranteed."""
    return tuple.__new__(UnitRadius, (r, comp))


def _checked_r(r: float) -> float:
    """r itself, checked to lie strictly in (0,1) (a NaN fails the check)."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"radius must lie strictly in (0,1), got {r}")
    return r


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
    """Ring modulus mu(r) = (pi/2) K(r')/K(r), within 3 ulp of the true value.

    One closed form on all of (0,1), with no theta series: mu(r) = -log(q)/2
    at the Jacobi nome q of r when r <= r', and pi^2 / (4 mu(r')) otherwise
    (:func:`qcfun.means._nome`).  Against 60-digit mpmath, over 6000 x
    log-spread down to 5e-324 and uniform on (0,1), each as r and as r', the
    error was at most 2.51 ulp (at r = 0.9546243998171448, the roundings of
    r', mu(r'), pi^2/4 and the division) with a mean of 0.38 ulp (the AGM
    quotient: 4.6 and 0.59).
    Endpoints raise :class:`DomainError` (the convention mu(1) = 0 is applied
    by callers that need the closed endpoint).
    """
    if isinstance(x, UnitRadius):
        r, comp = x
    else:
        r = _checked_r(float(x))  # the one check; no pair is formed
        comp = comp_radius(r)
    if r <= comp:
        return _nome(r, comp, with_theta=False)[0]
    return _QUARTER_PI_SQ / _nome(comp, r, with_theta=False)[0]


def _theta_radius(y: float, swap: bool) -> UnitRadius:
    """mu_inv(y), with its channels exchanged when ``swap``: the one theta inverse.

    r = theta_2(q)^2 / theta_3(q)^2 and r' = theta_4(q)^2 / theta_3(q)^2 at
    the nome q = e^(-2y) (DLMF 20.2, 22.2), all from the one exponential
    e = e^(-y/2) = q^(1/4).  Below pi/2 the pair is taken at the dual
    y' = pi^2 / (4y), since mu(r') = pi^2 / (4 mu(r)), and the channels are
    exchanged, so the series always run at q <= e^-pi and stop at q^16: the
    first dropped term, q^20 <= e^(-20 pi), lies below 1e-27.
    theta_2 = 2 q^(1/4) sum q^(n(n+1)) carries e as a factor, so the small
    channel ~ 4 e^-y keeps full relative precision however small it is.  A
    channel below the normal double range raises :class:`ConvergenceError`.
    """
    if y < _HALF_PI:
        y = _QUARTER_PI_SQ / y
        swap = not swap
    e = math.exp(-0.5 * y)
    q = e * e
    q *= q
    q2 = q * q
    q4 = q2 * q2
    t2 = 1.0 + q2 * (1.0 + q4 * (1.0 + q2 * q4))
    even = 1.0 + 2.0 * q4 * (1.0 + q4 * q4 * q4)
    odd = 2.0 * q * (1.0 + q4 * q4)
    t3 = even + odd
    s = 2.0 * e * t2 / t3
    c = (even - odd) / t3
    small = s * s
    if small < _MIN_NORMAL:
        raise ConvergenceError(f"the radius or its complement at modulus {y} underflows double precision")
    # past the guard both channels lie in [2.2e-308, 1], and theta_3^4 = theta_2^4 + theta_4^4
    return tuple.__new__(UnitRadius, (c * c, small) if swap else (small, c * c))


def mu_inv(y: float) -> UnitRadius:
    """Inverse modulus: the radius with mu(r) = y, in closed form by theta functions.

    r = theta_2(q)^2 / theta_3(q)^2 and r' = theta_4(q)^2 / theta_3(q)^2 at
    the nome q = e^(-2y), or at the dual y' = pi^2 / (4y) with the channels
    exchanged for y < pi/2 (:func:`_theta_radius`): the complement comes out
    directly, down to the smallest normal double.  Against the nome forward
    map, |mu(r) - y| <= 4.0e-16 max(1, y) was measured over 2000 log-uniform
    y from 0.004 to 700, and 7.2e-16 max(1, y) over 200000 near y = pi/2,
    where the forward map's own error of up to 2.51 ulp dominates.  A radius
    or complement below the normal double range (y above about 709.8 or
    below about 0.00348) raises :class:`ConvergenceError`.
    """
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"mu_inv requires y > 0, got {y}")
    return _theta_radius(y, False)


def _phi_pair(K: float, r: float, comp: float) -> UnitRadius:
    """phi_K at the radius pair (r, comp): mu_inv(mu(r)/K) in one nome pass, for K > 0.

    The log nome log q = -2 mu(k) of the smaller channel k needs no theta
    series (:func:`qcfun.means._nome`).  For r <= r' the target is mu(r)/K =
    mu(k)/K, so e^(-y/2) = q^(1/(4K)); for r > r' the result's complement
    has modulus K mu(r') = K mu(k), so e^(-y/2) = q'^(K/4) and the channels
    are exchanged.
    Where that modulus falls below pi/2, :func:`_theta_radius` takes its dual,
    so the theta series run on whichever side is well conditioned.
    """
    if K == 1.0:
        return _pair(r, comp)
    if r <= comp:
        return _theta_radius(_nome(r, comp, with_theta=False)[0] / K, False)
    return _theta_radius(_nome(comp, r, with_theta=False)[0] * K, True)


# ---------------------------------------------------------------------------
# generalized modulus mu_a
# ---------------------------------------------------------------------------

def _mu_a_parts(a: float, u: UnitRadius, big_r: float | None = None) -> tuple[float, float]:
    """(mu_a(r), F(a,1-a;1;r^2)); the F factor is reused by Newton steps.

    ``big_r`` is R(a, 1-a) when the caller has it (an inverse evaluates it
    once for all its steps); the series route computes it otherwise.

    Closed forms at the signatures 1/2, 1/4 and 1/3, the balanced series
    (:func:`_series_parts`) at every other a:

    * a = 1/2: mu_a = mu and F = (2/pi) K(r): theta_3(q)^2, or
      (2/pi) mu(r') theta_3(q')^2 for r > r' (:func:`qcfun.means._nome`).
    * a = 1/4: mu_a(r) = mu(k) with the Landen radius k = r/(1+r'),
      k' = sqrt(2r'/(1+r')), and F = (2/pi) K(k) sqrt(2/(1+r'))
      (Berndt, Bhargava and Garvan, Trans. AMS 347, 1995).  Both channels
      of k are exact to rounding.
    * a = 1/3: F(1/3,2/3;1;1-s^3) = 1/AG3(1,s) with the cubic AGM
      (J. M. and P. B. Borwein, Trans. AMS 323, 1991), so
      mu_a = y_sym AG3(1, r'^(2/3)) / AG3(1, r^(2/3)) and F = 1/AG3(1, r'^(2/3)).
    """
    if a == 0.5:
        if u.r <= u.comp:
            return _nome(u.r, u.comp)
        m, theta_sq = _nome(u.comp, u.r)
        return _QUARTER_PI_SQ / m, m * theta_sq / _HALF_PI
    if a == 0.25:
        if u.r <= sys.float_info.min:  # r/2 would lose digits; mu_{1/4} = log(8/r) here
            return math.log(8.0) - math.log(u.r), 1.0
        s = 1.0 + u.comp
        value, f = _mu_a_parts(0.5, _pair(u.r / s, math.sqrt(2.0 * u.comp / s)))
        return value, f * math.sqrt(2.0 / s)
    if a == _THIRD:
        ag_comp = _agm3(1.0, u.comp ** (2.0 / 3.0))
        return _Y_SYM_THIRD * ag_comp / _agm3(1.0, u.r ** (2.0 / 3.0)), 1.0 / ag_comp
    return _series_parts(a, u, big_r)


def _series_parts(a: float, u: UnitRadius, big_r: float | None = None) -> tuple[float, float]:
    """:func:`_mu_a_parts` by one pass of the balanced series, for every a.

    With S0 = F(a,1-a;1;w) and S1 = 2 y_sym F(a,1-a;1;1-w) at w = min(r^2, r'^2),
    mu_a is S1/(2 S0) for r <= r' and 2 y_sym^2 S0/S1 otherwise.  This is
    the route of every signature without a closed form, and the test oracle
    of the closed forms.
    """
    if big_r is None:
        big_r = _balanced_r0(a, 1.0 - a)
    small = min(u.r, u.comp)
    s0, s1, _ = _hyp_sums(a, 1.0 - a, 1.0, small * small, big_r, 2.0 * math.log(small))
    y_sym = 0.5 * math.pi / math.sin(math.pi * a)
    # mu_a >= y_sym exactly where r <= r'; the clamps keep it monotone there
    if u.r <= u.comp:
        return max(0.5 * s1 / s0, y_sym), s0
    return min(y_sym * (2.0 * y_sym * s0 / s1), y_sym), 0.5 * s1 / y_sym


def mu_a(a: float, x) -> float:
    """Generalized modulus mu_a(r) for signature a in (0, 1/2].

    Strictly decreasing in r (up to rounding).  Closed forms at a = 1/2, 1/4
    and 1/3 (see :func:`_mu_a_parts`); their relative error against mpmath,
    over 1500 random r per signature from 1e-12 to 1 - 1e-12 on both
    channels, is at most 2.7e-16, 2.7e-16 and 9.2e-16.  With r or r' below
    1e-12, down to 5e-324, the cubic AGM's rounding over its 8 steps reaches
    1.6e-15 at a = 1/3.  Every other signature runs one pass of
    the balanced series at w = min(r^2, r'^2), with relative error at most
    7.8e-16 over 4500 random (a, r), a in [1e-4, 1/2], r in
    [1e-12, 1 - 1e-12].  Between adjacent doubles mu_a rose by one or two
    ulp for 11, 7 and 26 of 3000 random r in [1e-3, 0.3] at a = 1/2, 1/4 and
    1/3, and for none of 3000 in [0.3, 0.95] or within 40 ulp of 1/sqrt 2.
    At a = 1/2 the value is mu(r), by delegation.
    """
    a = check_signature(a)
    return _mu_a_parts(a, as_radius(x))[0]


def mu_a_derivative(a: float, x) -> float:
    """d mu_a/dr = -1 / (r (1-r^2) F(a,1-a;1;r^2)^2); strictly negative.

    F comes from the same route as :func:`mu_a`, closed form at a = 1/2,
    1/4 and 1/3; its relative error there against mpmath was at most 3.7e-16,
    4.3e-16 and 7.7e-16 on the samples of :func:`mu_a`.  A slope beyond the
    double range raises :class:`OverflowSignal`: at subnormal r, and at r'
    below about 1e-156 (3e-156 at a = 0.01).
    """
    a = check_signature(a)
    u = as_radius(x)
    _, f_den = _mu_a_parts(a, u)
    den = u.r * u.comp * u.comp * f_den * f_den
    if not den > 2.0 ** -1024:  # 1/den overflows exactly from here down (den may be 0)
        raise OverflowSignal(f"mu_a_derivative({a}, r = {u.r}, r' = {u.comp}) exceeds double precision")
    return -1.0 / den


def mu_a_inv(a: float, y: float) -> UnitRadius:
    """Inverse generalized modulus: the radius with mu_a(r) = y, a in (0, 1/2].

    Closed form at a = 1/2 and 1/4 through the theta-function inverse of mu:
    mu_a_inv(1/2, y) is :func:`mu_inv`, and at a = 1/4 the radius k = mu_inv(y)
    gives r = 2k/(1+k^2) and r' = k'^2/(1+k^2), the inverse Landen map of
    :func:`mu_a`.  Over 2000 log-uniform y in [0.004, 700] at a = 1/2 and
    [0.007, 700] at a = 1/4, |mu_a(r) - y| <= 4.0e-16 max(1, y) and
    5.8e-16 max(1, y), and at a = 1/4 r^2 + r'^2 = 1 to 5.4e-16.  Every other signature, 1/3 included, takes the
    safeguarded Newton iteration of :func:`_mu_a_newton`.  A radius or complement below
    the normal double range raises :class:`ConvergenceError`; at a = 1/4
    that includes k, so the limit is y ~ 709.8 as for mu_inv, and r' ~ k'^2/2
    underflows below y ~ 0.0069.
    """
    a = check_signature(a)
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"mu_a_inv requires y > 0, got {y}")
    if a == 0.5:
        return mu_inv(y)
    if a == 0.25:
        k = mu_inv(y)
        s = 1.0 + k.r * k.r
        # k'^2 from the smaller channel: (1-k)(1+k) keeps r^2 + r'^2 = 1 to
        # 5.4e-16 where k'^2 of the theta pair drifts to 1.4e-15
        comp = (k.comp * k.comp if k.comp < k.r else (1.0 - k.r) * (1.0 + k.r)) / s
        if comp < sys.float_info.min:
            raise ConvergenceError(
                f"mu_a_inv({a}, {y}): the radius or its complement underflows double precision"
            )
        # past the guard comp lies in [2.2e-308, 1], 0 < 2k/(1+k^2) <= 1, and r^2 + comp^2 = 1 to 5.4e-16
        return _pair(2.0 * k.r / s, comp)
    return _mu_a_newton(a, y)


def _mu_a_newton(a: float, y: float) -> UnitRadius:
    """mu_a_inv by safeguarded Newton in t = log(1/r), for any a in (0, 1/2] and y > 0.

    The F factors of mu_a trade places under r <-> r', so
    mu_a(r) mu_a(r') = y_sym^2 with y_sym = pi/(2 sin pi a).  Below y_sym the
    root is found at the dual y' = y_sym^2 / y and the channels are exchanged,
    so the complement comes out directly.  At y >= y_sym the root r <= 1/sqrt 2
    is solved for in t = log(1/r): mu_a(r) + log r decreases from R(a)/2 to 0
    on (0,1), with R(a) = R(a,1-a), so t lies in [max(y - R/2, log sqrt 2), y].
    Newton starts at the lower end, the r -> 0 asymptote t = y - R/2.  Each
    step takes one mu_a evaluation, whose F(a,1-a;1;r^2) also gives
    d mu_a/dt = 1 / ((1-r^2) F^2), and a step leaving the bracket is replaced
    by bisection in t.  The last step is below 1e-13 y', which bounds
    |mu_a(r) - y| by 2e-13 max(1, y); 8e-16 max(1, y) was measured on 1500
    random (a, y).  It also runs at a = 1/2 and 1/4, where the tests use it
    as the oracle of the theta routes.
    """
    y_sym = 0.5 * math.pi / math.sin(math.pi * a)
    dual = y < y_sym
    target = y_sym * y_sym / y if dual else y
    # an infinite target fails the guard below whatever R is, and R overflows for a < 5.6e-309
    big_r = _balanced_r0(a, 1.0 - a) if target < math.inf else 0.0
    # log(sqrt 2) rounds up, so e^-t <= r' here and the channels stay monotone across y_sym
    t = lo = max(target - 0.5 * big_r, math.log(math.sqrt(2.0)))
    hi = target
    if not lo <= -math.log(sys.float_info.min):  # also NaN, once y_sym overflows
        raise ConvergenceError(
            f"mu_a_inv({a}, {y}): the radius or its complement underflows double precision"
        )
    for _ in range(_INV_CAP):
        u = UnitRadius.from_r(math.exp(-t))
        value, f_den = _mu_a_parts(a, u, big_r)
        if value < target:
            lo = t
        else:
            hi = t
        t_new = t - (value - target) * u.comp * u.comp * f_den * f_den
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-13 * target:
            u = UnitRadius.from_r(math.exp(-t_new))
            return u.swapped if dual else u
        t = t_new
    raise ConvergenceError(f"mu_a_inv({a}, {y}): safeguarded Newton did not converge "
                           f"within {_INV_CAP} steps")


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
    return 2.0 * math.pi / mu(1.0 / s)


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
