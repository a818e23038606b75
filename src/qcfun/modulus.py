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
theta series (:func:`qcfun.means._log_nome`); the duality
mu(r) mu(r') = pi^2/4 gives the other channel.  At a = 1/2, 1/4, 1/3 and
1/6 one classical route serves mu_a: mu_a(r) = c mu(k) at a radius k
algebraic in the smaller channel (r itself, Landen's map, Ramanujan's
signature-6 Legendre radius, at 1/3 after the cubic-to-sextic map), and the
duality gives the other channel.  Its inverse is the theta inverse of mu
(:func:`_theta_radius`) at 1/2, and at 1/6 after the Legendre angle, and
Euler's products at 1/4 and 1/3.  Every other signature takes one series
pass at w = min(r^2, r'^2) <= 1/2 for both F factors of mu_a, and the
safeguarded Newton iteration of :func:`_mu_a_newton` for the inverse.

The forward map has two kernels on one route.  The value kernel
:func:`_mu_a_value`, read by :func:`mu_a` and
:func:`qcfun.distortion.phi_aK`, takes the log nome only and forms no
theta_3^2.  The F kernel :func:`_mu_a_parts` adds F(a,1-a;1;r^2) for the
readers of the slope.  The duality is stated once each way: forward in
:func:`_mu_a_value` (and, for F, in :func:`_mu_a_parts`), inverse (with the
one underflow guard) in :func:`_mu_a_radius`, for every a but the theta
inverse's 1/2.  The theta inverse also serves the distortion pass
:func:`_phi_pair`: it scales the log nome of r by K, so composes mu and
mu_inv without forming either.

Radii travel as pairs (r, sqrt(1-r^2)).  Keeping the complement as a
first-class channel is what lets values down to the smallest normal double
(2.2e-308) away from the endpoints round-trip at full precision: near r = 1
both inverses produce the complement directly, where the problem is
perfectly conditioned.  The kernels (:func:`_theta_radius`,
:func:`_phi_pair`, :func:`_mu_a_radius`) pass plain ``(r, comp)`` tuples; a
:class:`UnitRadius` is formed once, where a public function returns a radius
to its caller.

Pure functions throughout; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import ConvergenceError, DomainError, OverflowSignal
from .means import _log_nome, _nome, comp_radius

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
_INF = math.inf
_HALF_PI = 0.5 * math.pi
_QUARTER_PI_SQ = 0.25 * math.pi * math.pi
_THIRD = 1.0 / 3.0
_SIXTH = 1.0 / 6.0
_MIN_NORMAL = sys.float_info.min
_MAX_EXP = -math.log(_MIN_NORMAL)  # e^-t is a normal double for t up to here
_PI_SIXTH = math.pi / 6.0
_SQRT3 = math.sqrt(3.0)
_HALF_SQRT3 = 0.5 * _SQRT3
_LOG4 = math.log(4.0)
# the classical route of :func:`_mu_a_value` and :func:`mu_a_inv`: signature ->
# (c, y_sym, R(a,1-a)/2), where mu_a(r) = c mu(k) at a classical radius k
_CLASSICAL = {
    0.5: (1.0, _HALF_PI, _LOG4),
    0.25: (1.0, math.pi / math.sqrt(2.0), math.log(8.0)),
    _THIRD: (2.0, math.pi / _SQRT3, 0.5 * math.log(27.0)),
    _SIXTH: (2.0, math.pi, 0.5 * math.log(432.0)),
}
_SPECFUN = None  # qcfun.specfun, bound by :func:`_specfun` on the first series route


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

    It is a boundary type: the kernels (:func:`_theta_radius`,
    :func:`_phi_pair`, :func:`_mu_a_radius`) pass plain ``(r, comp)`` tuples,
    and a public function that returns a radius (:func:`mu_inv`,
    :func:`mu_a_inv`, :func:`qcfun.distortion.phi_K`,
    :func:`qcfun.distortion.phi_aK`) forms its UnitRadius once, as its result.  A caller that only reads the channels
    unpacks the plain pair, and no tuple subclass is built for it.
    """

    __slots__ = ()

    def __new__(cls, r: float, comp: float) -> "UnitRadius":
        if not (0.0 < r <= 1.0 and math.isfinite(r)):
            raise DomainError(f"radius must lie in (0,1), got {r}")
        if not (0.0 < comp <= 1.0 and math.isfinite(comp)):
            raise DomainError(f"radius complement must lie in (0,1), got {comp}")
        if abs(r * r + comp * comp - 1.0) > 1e-12:  # any value in [1e-14, 1e-9]: formed pairs are within 3e-16
            raise DomainError(f"inconsistent radius pair ({r}, {comp}): r^2 + comp^2 != 1")
        return tuple.__new__(cls, (r, comp))

    @classmethod
    def _make(cls, iterable) -> "UnitRadius":
        # the namedtuple default skips __new__; route it (and _replace) through the checks
        return cls(*iterable)

    @classmethod
    def from_r(cls, r: float) -> "UnitRadius":
        if not (0.0 < r < 1.0):  # a NaN fails the check too
            raise DomainError(f"radius must lie strictly in (0,1), got {r}")
        # r in (0,1) gives comp = sqrt((1-r)(1+r)) in (0,1], and r^2 + comp^2 = 1 to rounding
        return _pair(r, comp_radius(r))

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
    """The pair (r, comp) without checks, for channels the caller has already guaranteed.

    A public function that returns a kernel's plain pair wraps it the same
    way, as ``tuple.__new__(UnitRadius, pair)``, with no frame of its own.
    """
    return tuple.__new__(UnitRadius, (r, comp))


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
    (:func:`qcfun.means._log_nome`).  Against 60-digit mpmath, over 6000 x
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
        r = float(x)
        if not 0.0 < r < 1.0:  # the one check; no pair is formed
            raise DomainError(f"radius must lie strictly in (0,1), got {r}")
        comp = math.sqrt((1.0 - r) * (1.0 + r))  # comp_radius(r), inline
    if r <= comp:
        return _log_nome(r, comp)
    return _QUARTER_PI_SQ / _log_nome(comp, r)


def _theta_radius(y: float, swap: bool) -> tuple[float, float]:
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
    The result is the plain pair (r, r').
    """
    x = y
    if y < _HALF_PI:
        x = _QUARTER_PI_SQ / y
        swap = not swap
    e = math.exp(-0.5 * x)
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
    return (c * c, small) if swap else (small, c * c)


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
    if not 0.0 < y < _INF:
        raise DomainError(f"mu_inv requires y > 0, got {y}")
    return tuple.__new__(UnitRadius, _theta_radius(y, False))


def _phi_pair(K: float, r: float, comp: float) -> tuple[float, float]:
    """phi_K at the radius pair (r, comp): mu_inv(mu(r)/K) in one nome pass, for K > 0.

    The log nome log q = -2 mu(k) of the smaller channel k needs no theta
    series (:func:`qcfun.means._log_nome`).  For r <= r' the target is
    mu(r)/K = mu(k)/K, so e^(-y/2) = q^(1/(4K)); for r > r' the result's
    complement has modulus K mu(r') = K mu(k), so e^(-y/2) = q'^(K/4) and
    the channels are exchanged.
    Where that modulus falls below pi/2, :func:`_theta_radius` takes its dual,
    so the theta series run on whichever side is well conditioned.
    The result is the plain pair (phi_K(r), phi_K(r)').
    """
    if K == 1.0:
        return r, comp
    if r <= comp:
        return _theta_radius(_log_nome(r, comp) / K, False)
    return _theta_radius(_log_nome(comp, r) * K, True)


# ---------------------------------------------------------------------------
# generalized modulus mu_a
# ---------------------------------------------------------------------------

def _specfun():
    """qcfun.specfun, imported on the first call: only the series routes load it, once."""
    global _SPECFUN
    if _SPECFUN is None:
        from . import specfun

        _SPECFUN = specfun
    return _SPECFUN


def _mu_a_value(a: float, r: float, comp: float) -> tuple:
    """mu_a at the pair (r, comp) with no theta series: the value kernel of mu_a and phi_aK.

    Returns (mu_a(r), mu_a(s), y_sym, g, k, kc, d) at the smaller channel
    s = min(r, r'): F(a,1-a;1;s^2) = g theta_3(q)^2 / d at the nome q of the
    pair (k, kc) (:func:`qcfun.means._nome`), which only the F kernel
    :func:`_mu_a_parts` forms.  Every route runs at s, and for r > r' this is
    the one place the duality mu_a(r) mu_a(r') = y_sym^2 runs forward for the
    value: mu_a = y_sym^2 / mu_a(s).

    * a = 1/2, 1/4, 1/3 and 1/6: the classical route, one row (c, y_sym, R/2)
      of ``_CLASSICAL``.  A classical radius k gives mu_a(s) = c mu(k), the log
      nome of k (:func:`qcfun.means._log_nome`), and F(s^2) = g theta_3(q)^2,
      d = 1: at 1/2, k = s and g = 1; at 1/4, the Landen radius
      k = s/(1+s'), k' = sqrt(2s'/(1+s')) and g = sqrt(2/(1+s')); at 1/6, with
      s = sin(theta) and phi = 2 theta/3, the Legendre radius
      k^2 = sin phi / cos(pi/6 - phi), k'^2 = cos(pi/6 + phi) / cos(pi/6 - phi)
      and g = sqrt(sqrt3 / (2 cos(pi/6 - phi))), the trigonometric root of
      Ramanujan's signature-6 cubic 4 s^2 s'^2 = 1728/j (Berndt, Bhargava and
      Garvan, Trans. AMS 347, 1995).  The cosines lie in [1/2, 1] and the sines
      carry full relative precision, so both channels of k come out to a few
      ulp.  At 1/3, x = s^2, the cubic transformation F(1/3,2/3;1;x) =
      (1+8x)^(-1/4) F(1/6,5/6;1;t^2) keeps the nome, at t = sin(theta) with
      tan 2 theta = 8 s s'^3 / (1 - 20x - 8x^2) (ibid.): the 1/6 map runs at
      the angle phi = atan2(8 s s'^3, |1 - 20x - 8x^2|)/3 <= pi/6 and g carries
      (1+8x)^(-1/4).  Past x* = (sqrt 432 - 20)/16 (s ~ 0.22145) the angle of k
      is pi/3 - phi > pi/6, so the map gives (k', k), and mu(k) =
      pi^2 / (4 mu(k')), K(k) = (2/pi) mu(k') K(k') close the route, as in
      :func:`mu`: g takes the factor mu(k') and d = pi/2.  Below the normal
      double range, where the maps lose digits, s takes the asymptote
      mu_a = R/2 - log s, F = 1, exact there.
    * every other a: one pass of the balanced series (:func:`_series_parts`)
      at R(a, 1-a) formed here, which gives F itself as g.
    Off the classical maps (k, kc) = (0, 1), where theta_3 = 1.
    """
    s, big = (r, comp) if r <= comp else (comp, r)
    row = _CLASSICAL.get(a)
    k, kc, d = 0.0, 1.0, 1.0
    if row is None:
        y_sym = 0.5 * math.pi / math.sin(math.pi * a)
        value, g = _series_parts(a, s, y_sym, _specfun()._balanced_r0(a, 1.0 - a))
    elif s <= _MIN_NORMAL:
        _, y_sym, half_r = row
        value, g = half_r - math.log(s), 1.0
    else:
        c, y_sym, _ = row
        dual = False
        if a == 0.5:
            k, kc, g = s, big, 1.0
        elif a == 0.25:
            e = 1.0 + big
            k, kc, g = s / e, math.sqrt(2.0 * big / e), math.sqrt(2.0 / e)
        else:
            if a == _SIXTH:
                phi, w = 2.0 * math.asin(s) / 3.0, 1.0
            else:  # 1/3: the cubic-to-sextic angle, reflected below pi/6 past x*
                x = s * s
                t = 1.0 - x * (20.0 + 8.0 * x)
                phi = math.atan2(8.0 * s * big * big * big, abs(t)) / 3.0
                w, dual = math.sqrt(1.0 + 8.0 * x), t < 0.0
            cos_m = math.cos(_PI_SIXTH - phi)
            k, kc = math.sqrt(math.sin(phi) / cos_m), math.sqrt(math.cos(_PI_SIXTH + phi) / cos_m)
            g = math.sqrt(_HALF_SQRT3 / (w * cos_m))
        m = _log_nome(k, kc)
        if dual:  # (k, kc) is the classical pair exchanged
            value, g, d = c * _QUARTER_PI_SQ / m, g * m, _HALF_PI
        else:
            value = c * m
    if r <= comp:
        return value, value, y_sym, g, k, kc, d
    # the clamp keeps mu_a(r) <= y_sym where fl(fl(y_sym^2) / y_sym) rounds above it, and
    # where y_sym^2 overflows (a below 3.7e-155, where mu_a is y_sym to within 1e-150)
    return min(y_sym * y_sym / value, y_sym), value, y_sym, g, k, kc, d


def _mu_a_parts(a: float, u) -> tuple[float, float]:
    """(mu_a(r), F(a,1-a;1;r^2)) at the pair u: the F kernel.

    Its two readers are :func:`mu_a_derivative` and the ``linearize_phi_a``
    experiment of :mod:`qcfun.identities`.  It forms theta_3^2 once on the
    route of the value kernel :func:`_mu_a_value`, and for r > r' applies the
    forward duality of F: F(r^2) = mu_a(s) F(s^2) / y_sym at s = r'.
    """
    r, comp = u
    value, value_s, y_sym, g, k, kc, d = _mu_a_value(a, r, comp)
    f = g * _nome(k, kc) / d
    return value, (f if r <= comp else value_s * f / y_sym)


def _series_parts(a: float, s: float, y_sym: float, big_r: float) -> tuple[float, float]:
    """(mu_a(s), F(a,1-a;1;s^2)) at s <= 1/sqrt 2 by one pass of the balanced series, for every a.

    With S0 = F(a,1-a;1;w) and S1 = 2 y_sym F(a,1-a;1;1-w) at w = s^2,
    mu_a(s) = S1/(2 S0) and F = S0; ``big_r`` is R(a, 1-a).  mu_a(s) >= y_sym
    exactly, and the clamp keeps it so, monotone across s = 1/sqrt 2.  This
    is the forward map of every signature without a closed form and of each
    Newton step, and the test oracle of the closed forms.
    """
    s0, s1, _ = _specfun()._hyp_sums(a, 1.0 - a, 1.0, s * s, big_r, 2.0 * math.log(s))
    return max(0.5 * s1 / s0, y_sym), s0


def mu_a(a: float, x) -> float:
    """Generalized modulus mu_a(r) for signature a in (0, 1/2].

    Strictly decreasing in r (up to rounding).  Closed forms at a = 1/2, 1/4,
    1/3 and 1/6, the four rows of the classical route (see the value kernel
    :func:`_mu_a_value`, which forms no theta_3^2).  Against 40-digit mpmath,
    over 10000 random x per signature from 1e-12 to 1 - 1e-12 (20000 against
    60 digits at 1/3), each
    as r and as r', the relative error was at most 3.4e-16, 3.7e-16, 4.2e-16
    and 4.5e-16 at a = 1/2, 1/4, 1/3 and 1/6 (where r <= r': 2.4e-16,
    2.6e-16, 4.2e-16 and 2.9e-16).  With r or r' below 1e-12, down to
    5e-324, the route stays within 4.2e-16 on 3000 log-spread x per
    signature (its asymptote below the normal range is exact there).  Every
    other signature runs one pass of the balanced series at
    w = min(r^2, r'^2), with a log-spread on [1e-4, 1/2] and r uniform in
    [1e-12, 1 - 1e-12]: the relative error was at most 5.7e-16 where r <= r'
    (21880 draws, two seeds), and 9.5e-16 where r > r' (four seeded sets of
    4500), where the duality adds the rounding of y_sym^2.
    Between adjacent doubles mu_a rose by one ulp for 6 to 12, 2 to 4 and
    none of 3000 random r in [1e-3, 0.3] at a = 1/2, 1/4 and 1/6, and by up
    to two for 3 to 10 at 1/3 (two seeded draws); for at most 5 of 3000 in
    [0.3, 0.95], and for none within 40 ulp of 1/sqrt 2.
    """
    a = check_signature(a)
    return _mu_a_value(a, *as_radius(x))[0]


def mu_a_derivative(a: float, x) -> float:
    """d mu_a/dr = -1 / (r (1-r^2) F(a,1-a;1;r^2)^2); strictly negative.

    F comes from the F kernel :func:`_mu_a_parts`, on the route of
    :func:`mu_a`: closed form at a = 1/2, 1/4, 1/3 and 1/6; its relative
    error there against mpmath was at most 4.4e-16, 5.9e-16, 5.6e-16 and
    5.6e-16 on the samples of :func:`mu_a` (where r <= r': 1.8e-16, 3.5e-16,
    5.4e-16 and 3.3e-16; F = mu_a(r') F(r'^2) / y_sym for r > r' carries the
    error of mu_a(r')).  A slope beyond the double range raises
    :class:`OverflowSignal`: at subnormal r, and at r' below about 1e-156
    (3e-156 at a = 0.01).
    """
    a = check_signature(a)
    r, comp = u = as_radius(x)
    _, f_den = _mu_a_parts(a, u)
    den = r * comp * comp * f_den * f_den
    if not den > 2.0 ** -1024:  # 1/den overflows exactly from here down (den may be 0)
        raise OverflowSignal(f"mu_a_derivative({a}, r = {r}, r' = {comp}) exceeds double precision")
    return -1.0 / den


def mu_a_inv(a: float, y: float) -> UnitRadius:
    """Inverse generalized modulus: the radius with mu_a(r) = y, a in (0, 1/2].

    Closed form at a = 1/2, 1/4, 1/3 and 1/6.  At 1/2 it is :func:`mu_inv`,
    whose theta inverse (:func:`_theta_radius`) takes its own dual and
    underflow guard.  Every other a shares one preamble in the plain-pair
    kernel :func:`_mu_a_radius`, the only inverse duality and underflow
    guard: below y_sym = pi / (2 sin(pi a)) the dual y_sym^2 / y gives the
    smaller channel, and the channels are exchanged.
    At 1/4 and 1/3 Ramanujan's theories of signatures 4 and 3 give r/r' =
    e^(R/2 - y) (E(q^m) / E(q))^(12/(m-1)), m = 2 and 3, an eta quotient in
    the nome q = e^(-2y) with Euler's product E(q) = prod (1 - q^n)
    (Berndt, Bhargava and Garvan, Trans. AMS 347, 1995).  At 1/6 the theta
    inverse at y/2 gives the Legendre radius k, and r, r' = sin, cos of
    3/2 atan(sqrt3 k^2 / (1 + k'^2)).  Over 100000 log-uniform y between the
    limits below, |mu_a(r) - y| <= 6.5e-16, 3.9e-16, 4.9e-16 and 6.1e-16
    max(1, y) at a = 1/2, 1/4, 1/3 and 1/6 (1.8e-16 at 1/4 and 1/3 on 3000
    y against 40-digit mpmath), and r^2 + r'^2 = 1 to 8.9e-16, 4.4e-16,
    4.4e-16 and 2.2e-16.  Every other signature takes the safeguarded Newton
    iteration of :func:`_mu_a_newton`.  A radius or complement below the
    normal double range raises :class:`ConvergenceError`: past y ~ 709.78,
    710.48, 710.04 and 711.43 at a = 1/2, 1/4, 1/3 and 1/6, where the
    smaller channel e^(R/2 - y) underflows, and below their duals,
    y ~ 0.0034763, 0.0069458, 0.0046333 and 0.013873.
    """
    a = check_signature(a)
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"mu_a_inv requires y > 0, got {y}")
    return tuple.__new__(UnitRadius, _mu_a_radius(a, y))


def _mu_a_radius(a: float, y: float) -> tuple[float, float]:
    """mu_a_inv(a, y) for a checked signature and y > 0: the plain-pair kernel behind :func:`mu_a_inv`.

    An infinite y, as :func:`qcfun.distortion.phi_aK` may pass for a tiny K,
    fails the underflow guard with its :class:`ConvergenceError`.  The result
    is the plain pair (r, r').
    """
    if a == 0.5:  # mu_inv itself: the theta inverse takes the dual and guards the underflow
        return _theta_radius(y, False)
    row = _CLASSICAL.get(a)
    # off the grid y_sym comes from its formula, and R once the target is known to be finite
    c, y_sym, half_r = row or (None, 0.5 * math.pi / math.sin(math.pi * a), 0.0)
    dual = y < y_sym
    target = y_sym * y_sym / y if dual else y
    # an infinite target fails the guard whatever R is, and R overflows for a < 5.6e-309
    if row is None and target < _INF:
        half_r = 0.5 * _specfun()._balanced_r0(a, 1.0 - a)
    if not target - half_r <= _MAX_EXP:  # out here the smaller channel is e^(R/2 - target)
        raise ConvergenceError(f"mu_a_inv({a}, {y}): the radius or its complement underflows double precision")
    if row is None:
        r, comp = _mu_a_newton(a, target, y_sym, 2.0 * half_r)
    elif a == _SIXTH:
        k, kc = _theta_radius(target / c, False)
        theta = 1.5 * math.atan(_SQRT3 * k * k / (1.0 + kc * kc))
        r, comp = math.sin(theta), math.cos(theta)
    else:  # 1/4 and 1/3: r/r' = e^(R/2 - y) (E(q^m)/E(q))^(12/(m-1)) at q = e^(-2y)
        m = 2 if a == 0.25 else 3
        q = math.exp(-2.0 * target)
        rho = math.exp(half_r - target + 12.0 / (m - 1) * (_log_euler(q ** m) - _log_euler(q)))
        comp = 1.0 / math.sqrt(1.0 + rho * rho)
        r = rho * comp
    # past the guard the smaller channel is normal (to rounding), and r^2 + comp^2 = 1 to rounding
    return (comp, r) if dual else (r, comp)


def _log_euler(x: float) -> float:
    """log prod (1 - x^n) by Euler's pentagonal series 1 - x - x^2 + x^5 + x^7; x^12 < 1.2e-19 for x <= 0.0266."""
    x2 = x * x
    return math.log1p(-x * (1.0 + x - x2 * x2 * (1.0 + x2)))


def _mu_a_newton(a: float, target: float, y_sym: float, big_r: float) -> tuple[float, float]:
    """The pair (r, r') with r <= 1/sqrt 2 and mu_a(r) = target >= y_sym, by safeguarded Newton in t = log(1/r).

    The dual target, the exchange of channels and the underflow guard are
    :func:`_mu_a_radius`'s, as are y_sym and ``big_r`` = R(a) = R(a,1-a).
    mu_a(r) + log r decreases from R(a)/2 to 0 on (0,1), so t lies in
    [max(target - R/2, log sqrt 2), target].  Newton starts at the lower end,
    the r -> 0 asymptote t = target - R/2.  Each step takes one series pass
    :func:`_series_parts` at r <= r', whose F(a,1-a;1;r^2) also gives
    d mu_a/dt = 1 / ((1-r^2) F^2), and a step leaving the bracket is replaced
    by bisection in t.  The last step is below 1e-13 target, which bounds the
    relative residual by 2e-13, so |mu_a(r) - y| <= 2e-13 max(1, y) on either
    side of y_sym; 8e-16 max(1, y) was measured on 1500 random (a, y).  The
    series runs at every signature, so at the rows of the classical route the
    tests use Newton as an oracle of the closed-form inverses that shares no
    closed-form forward map with them.
    """
    # log(sqrt 2) rounds up, so e^-t <= r' here and the channels stay monotone across y_sym
    t = lo = max(target - 0.5 * big_r, math.log(math.sqrt(2.0)))
    hi = target
    for _ in range(_INV_CAP):
        # past the bracket's guarded end e^-t may be 0: from_r keeps that a typed error
        r, comp = UnitRadius.from_r(math.exp(-t))
        value, f_den = _series_parts(a, r, y_sym, big_r)
        if value < target:
            lo = t
        else:
            hi = t
        t_new = t - (value - target) * comp * comp * f_den * f_den
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-13 * target:  # any value in [1e-14, 1e-12] keeps the residual claim; 1e-11 breaks it
            r = math.exp(-t_new)
            return r, comp_radius(r)
        t = t_new
    raise ConvergenceError(f"safeguarded Newton did not converge on mu_a({a}, r) = {target} "
                           f"within {_INV_CAP} steps")


# ---------------------------------------------------------------------------
# planar capacities and the Landen product
# ---------------------------------------------------------------------------

def grotzsch_gamma2(s: float) -> float:
    """Plane ring capacity gamma_2(s) = 2 pi / mu(1/s) for s > 1, within 2 eps relative.

    Decreasing in s: the capacity diverges as the ring degenerates at s -> 1+
    and vanishes as the ray recedes (gamma_2(sqrt 2) = 4, gamma_2(2) ~ 3.13).
    mu runs at the pair (1/s, sqrt((s-1)/s (1 + 1/s))), whose complement is
    formed from s - 1, exact near s = 1, so the gap is never rounded away.
    Against 60-digit mpmath, over three seeded sets of 10000 s with s - 1
    log-spread from 2^-52 to 1e100, the relative error was at most 1.64 eps
    (eps = 2^-52).
    """
    if not (s > 1.0 and math.isfinite(s)):
        raise DomainError(f"grotzsch_gamma2 requires s > 1, got {s}")
    r = 1.0 / s
    # both channels lie in (0,1] for every finite s > 1, and r^2 + comp^2 = 1 to rounding
    return 2.0 * math.pi / mu(_pair(r, math.sqrt((s - 1.0) / s * (1.0 + r))))


def teichmuller_tau2(t: float) -> float:
    """Plane capacity tau_2(t) = gamma_2(sqrt(t+1))/2 for t > 0, within 2 eps relative; tau_2(1) = 2.

    tau_2(t) = pi / mu(r) at the pair (sqrt(1/(1+t)), sqrt(t/(1+t))), the
    pair of :func:`qcfun.distortion.eta_K2` exchanged: the complement is
    formed from t, so no t is rounded away in t + 1, and tau_2(1e-300) =
    441.53.  Against 60-digit mpmath, over three seeded sets of 10000 t
    log-spread on [1e-300, 1e300], the relative error was at most 1.53 eps
    (eps = 2^-52).
    """
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"teichmuller_tau2 requires t > 0, got {t}")
    # for every finite t > 0 both channels lie in (0,1] (t/(1+t) >= 5e-324 and
    # 1/(1+t) >= 5.6e-309), and they are the complement and radius of sqrt(t/(1+t))
    return math.pi / mu(_pair(math.sqrt(1.0 / (1.0 + t)), math.sqrt(t / (1.0 + t))))


def tau2_inv(y: float) -> float:
    """Inverse of tau_2: the t with tau_2(t) = y, t = (r'/r)^2 at the theta pair of modulus pi/y.

    The pair is :func:`_theta_radius` at pi/y, the one :func:`mu_inv` would
    return.  The relative error is at most 12 eps max(1, pi/y, y/pi)
    (eps = 2^-52): t is about e^(2 pi/y)/16 for small y and 16 e^(-pi y/2)
    for large y, so the absolute error of the modulus becomes a relative one
    in t.  Against 40- to 60-digit mpmath, over 12000 log-uniform y in
    [0.009, 450] and 30000 uniform y in [1, 10], where the scale is 1, the
    factor was at most 9.9 (at y = 3.41).
    A t beyond the double range (y below about 0.00882, where pi/y
    overflows included) raises :class:`OverflowSignal`, and a t below the
    normal double range (y above about 452.8) raises
    :class:`ConvergenceError`, as does a complement of the pair below it
    (y above about 904).
    """
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"tau2_inv requires y > 0, got {y}")
    t = _tau2_inv_value(y)
    if not _MIN_NORMAL <= t < math.inf:  # the one range test on the common path
        if t == math.inf:
            raise OverflowSignal(f"tau2_inv({y}) exceeds the double range")
        raise ConvergenceError(f"tau2_inv({y}) underflows double precision")
    return t


def _tau2_inv_value(y: float) -> float:
    """tau_2^-1(y) = (r'/r)^2 at the theta pair of modulus pi/y, for y > 0, unchecked.

    Past the double range the value is inf.  :func:`tau2_inv` and the bound
    c(2, K) = 1 + tau_2^-1(tau_2(1)/K) (:mod:`qcfun.bounds`) both take it here.
    Where pi/y >= pi/2 the theta pair is not dualled, so its radius r is the
    small channel and r' is near 1; an r below the normal range puts
    t = (r'/r)^2 above 2^2044, so the value is inf there, not the underflow
    of r.
    """
    x = math.pi / y
    try:
        r, comp = _theta_radius(x, False)
    except ConvergenceError:
        if x >= _HALF_PI:
            return _INF
        raise
    q = comp / r
    return q * q


def gamma2_inv(y: float) -> float:
    """Inverse of gamma_2: the s > 1 with gamma_2(s) = y, s = 1/r at the theta pair of modulus 2 pi/y.

    The relative error is at most 3 eps max(1, 2 pi/y) (eps = 2^-52): for
    small y, r is about 4 e^(-2 pi/y), so the absolute error of the modulus
    becomes a relative one in s.  Against 40- to 60-digit mpmath, over 12000
    log-uniform y in [0.0089, 900] and 30000 uniform y in [1, 10], the
    factor was at most 2.46 (at y = 3.01).  A radius of the pair below the
    normal double range raises :class:`ConvergenceError`: y below about
    0.00885, where 2 pi/y overflows included.  Every larger y has a value:
    above about 1807 only the complement underflows, and s, which has long
    rounded to 1, is 1.0.
    """
    if not (y > 0 and math.isfinite(y)):
        raise DomainError(f"gamma2_inv requires y > 0, got {y}")
    x = 2.0 * math.pi / y
    try:
        r = _theta_radius(x, False)[0]
    except ConvergenceError:
        if x < _HALF_PI:  # the dual side: the complement underflowed, and r = 1.0 exactly
            return 1.0
        raise
    return 1.0 / r


def agm_product_p(x) -> float:
    """The ascending-Landen product p(r) = prod_n (1 + r_n)^(2^-n), r_0 = r', in closed form.

    p(r) = r e^mu(r) (signature 1/2).  For r <= r', log p is the sum of :func:`qcfun.means._log_nome`
    without its - log r, so p = (1 + sqrt r') sqrt(2 (1 + r') / (1 + tail)) at the tail of
    :func:`qcfun.means._nome`; log r + mu(r) would cancel at tiny r.  For r > r',
    p = exp(log1p(-r'^2)/2 + pi^2 / (4 mu(r'))).  The relative error is at most 4 eps (eps =
    2^-52): against 50-digit mpmath, over 18000 seeded x log-spread over [1e-300, 1) and
    uniform, each as r or as r', it was at most 2.55 eps.
    """
    r, comp = as_radius(x)
    if r > comp:
        return math.exp(0.5 * math.log1p(-comp * comp) + _QUARTER_PI_SQ / _log_nome(comp, r))
    s = math.sqrt(comp)
    lam = r * r / (2.0 * (1.0 + comp) * ((1.0 + s) * (1.0 + s)))
    l4 = lam * lam
    l4 *= l4
    return (1.0 + s) * math.sqrt(2.0 * (1.0 + comp) / (1.0 + l4 * (2.0 + l4 * (15.0 + 150.0 * l4))))
