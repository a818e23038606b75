"""Distortion functions of plane quasiconformal maps.

The central object is the radial distortion function

    phi_K(r) = mu^{-1}(mu(r) / K),

the sharp bound |f(x)| <= phi_K(|x|) in the quasiconformal Schwarz lemma.
From it: the quasisymmetry function eta_{K,2}(t) = u^2/(1-u^2) with
u = phi_K(sqrt(t/(1+t))), the sharp linear-dilatation bound
lambda(K) = eta_{K,2}(1), the Schottky supremum psi(r,t) = eta_{M,2}(t) with
M = (1+r)/(1-r), and the logit-conjugated linearization
g(x) = p(phi_K(q(x))) whose derivative increases through (1/K, K).

phi_K, eta_{K,2}, lambda(K), the linearization and the plane eta bound of
:mod:`qcfun.bounds` share one nome pass (:func:`qcfun.modulus._phi_pair`),
after each has validated its own arguments once: the log nome of the
smaller channel of r is scaled by 1/K or by K, and the theta functions are
evaluated once at the scaled nome, so mu(r) and the inverse are never
formed as two separate calls.  phi^a_K at a = 1/2 is that pass; at every
other signature it composes the value kernel of mu_a
(:func:`qcfun.modulus._mu_a_value`) and the plain-pair kernel of its
inverse (:func:`qcfun.modulus._mu_a_radius`), with no public call between.

``phi_K``/``phi_aK`` return :class:`~qcfun.modulus.UnitRadius` so the
complement 1 - phi^2 stays available at full precision; eta and the
linearization read that channel instead of subtracting from 1.  The nome
pass hands out the plain pair ``(r, comp)``: ``phi_K`` forms its
UnitRadius once, as its result, and eta, lambda and the linearization
unpack the pair without one.  Each public function checks its arguments
inline and calls the nome pass directly.

Pure functions throughout; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError, OverflowSignal
from .modulus import (
    SQRT_HALF,
    UnitRadius,
    _mu_a_radius,
    _mu_a_value,
    _phi_pair,
    as_radius,
    check_signature,
)

__all__ = [
    "phi_K",
    "phi_aK",
    "eta_K2",
    "lambda_of_K",
    "schottky_psi",
    "linearized_g",
]


_INF = math.inf
_SQRT_HALF = SQRT_HALF[0]  # both channels of SQRT_HALF


def _K_error(K) -> DomainError:
    """The error for a dilatation outside [1, inf), once an inline test has failed."""
    if 0.0 < K < _INF:
        return DomainError(f"dilatation must satisfy K >= 1, got {K}")
    return DomainError(f"dilatation must be positive, got {K}")


def phi_K(K: float, x) -> UnitRadius:
    """Radial distortion phi_K(r) = mu^{-1}(mu(r)/K), increasing in r and K.

    K = 1 is the identity; K in (0,1) gives the inverse function phi_{1/K}^-1,
    so no separate operation is needed.  A result whose radius or complement
    falls below the normal double range raises :class:`ConvergenceError`.

    One nome pass: the log nome log q of the smaller channel of r is scaled
    by 1/K (r <= r') or K (r > r'), and the theta functions are evaluated
    once, at q^(1/K) or q'^K, or at the dual nome where that modulus is below
    pi/2 (:func:`qcfun.modulus._phi_pair`).  mu_inv(mu(r)/K) is the same map
    through the public functions, and the tests' oracle.

    Accuracy is condition-scaled.  With y = mu(r)/K the modulus of the result
    and y* = pi^2/(4y) that of its complement, the radius is within
    4 eps max(1, y) and the complement within 4 eps max(1, y*) relative
    (eps = 2^-52): the inverse turns an absolute error in y into a relative
    one in r ~ 4 e^-y.  Against 40-digit mpmath, over three seeded sets of
    40000 draws with K log-uniform in [0.02, 50] and r or r' log-uniform in
    [1e-12, 1/2], the factor was at most 2.57 on either channel.
    """
    if not 0.0 < K < _INF:
        raise DomainError(f"dilatation must be positive, got {K}")
    if isinstance(x, UnitRadius):
        r, comp = x
    else:
        r = float(x)
        if not 0.0 < r < 1.0:  # the one check; the pair is formed by the result only
            raise DomainError(f"radius must lie strictly in (0,1), got {r}")
        comp = math.sqrt((1.0 - r) * (1.0 + r))  # comp_radius(r), inline
    return tuple.__new__(UnitRadius, _phi_pair(K, r, comp))


def phi_aK(a: float, K: float, x) -> UnitRadius:
    """Generalized distortion phi^a_K(r) = mu_a^{-1}(mu_a(r)/K); phi^(1/2)_K = phi_K.

    As for phi_K, a radius or complement below the normal double range raises
    :class:`ConvergenceError`, also where mu_a(r)/K overflows.

    At a = 1/2 it is the one nome pass of :func:`phi_K`
    (:func:`qcfun.modulus._phi_pair`), equal to phi_K to the bit, with
    phi_K's accuracy claim.  Every other a takes the value kernel of
    :func:`qcfun.modulus.mu_a` and then the plain-pair kernel of
    :func:`qcfun.modulus.mu_a_inv`, whose guard raises for an infinite
    target.

    Accuracy is condition-scaled, as for phi_K.  At a = 1/4, 1/3 and 1/6,
    with y = mu_a(r)/K the modulus of the result and y* = y_sym^2 / y that of
    its complement (y_sym = pi / (2 sin(pi a))), the radius is within
    4 eps max(1, y) and the complement within 4 eps max(1, y*) relative
    (eps = 2^-52).  Against 40-digit mpmath, over two seeded sets of 1500
    draws per signature with K log-uniform in [0.02, 50] and r or r'
    log-uniform in [1e-12, 1/2], the factor was at most 2.2 on either
    channel.  At every other a the inverse is Newton's, whose stop bounds
    |mu_a(result) - y| by 2e-13 max(1, y) (:func:`qcfun.modulus._mu_a_newton`).
    """
    a = check_signature(a)
    if not 0.0 < K < _INF:
        raise DomainError(f"dilatation must be positive, got {K}")
    K = float(K)
    u = as_radius(x)
    if K == 1.0:
        return u
    if a == 0.5:
        return tuple.__new__(UnitRadius, _phi_pair(K, *u))
    # mu_a and mu_a_inv's kernels, whose checks a and u have passed; the target is > 0
    return tuple.__new__(UnitRadius, _mu_a_radius(a, _mu_a_value(a, *u)[0] / K))


def eta_K2(K: float, t: float) -> float:
    """Agard's quasisymmetry function eta_{K,2}(t) = u^2/(1-u^2), u = phi_K(sqrt(t/(1+t))).

    eta_{1,2}(t) = t, eta(0) = 0; increasing in both arguments.  1 - u^2 is
    read off the complement channel of the inversion, so no cancellation
    occurs for u near 1; a complement too small to square raises
    :class:`OverflowSignal`.  u comes from the one nome pass of
    :func:`phi_K`, at the pair (sqrt(t/(1+t)), sqrt(1/(1+t))).

    The relative error is at most 12 eps max(1, y, y*) (eps = 2^-52), with
    y = mu(sqrt(t/(1+t)))/K the modulus of u and y* = pi^2/(4y) that of its
    complement, as for :func:`phi_K`.  Against 40-digit mpmath, over three
    seeded sets of 40000 draws with K and t log-uniform in [1, 50] and
    [1e-6, 1e6], the factor was at most 6.54.
    """
    if not 1.0 <= K < _INF:
        raise _K_error(K)
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"eta_K2 requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    # for every finite t > 0 both channels lie in (0,1] (t/(1+t) >= 5e-324 and
    # 1/(1+t) >= 5.6e-309), and they are the radius and complement of sqrt(t/(1+t))
    try:
        u, u_comp = _phi_pair(K, math.sqrt(t / (1.0 + t)), math.sqrt(1.0 / (1.0 + t)))
        ratio = u / u_comp
    except ConvergenceError:  # 1 - u^2 underflows double precision, so u^2/(1-u^2) has overflowed
        ratio = _INF
    ratio *= ratio
    if ratio == _INF:
        raise OverflowSignal(f"eta_K2({float(K)}, {t}) exceeds double precision")
    return ratio


def lambda_of_K(K: float) -> float:
    """Sharp linear-dilatation bound lambda(K) = u^2/(1-u^2), u = phi_K(1/sqrt(2)).

    lambda(1) = 1, increasing, and exp(pi(K-1)) <= lambda(K) <= exp(pi(K-1/K)).
    u comes from the one nome pass of :func:`phi_K` at the pair
    (1/sqrt 2, 1/sqrt 2), the pair eta_K2(K, 1) forms, so the two agree to
    the bit.  As :func:`eta_K2` at t = 1, with y = pi/(2K) and y* = pi K/2,
    the relative error is at most 12 eps max(1, pi K/2) (eps = 2^-52);
    against 40-digit mpmath, over three seeded sets of 40000 K log-uniform in
    [1, 200], the factor was at most 5.61.
    """
    if not 1.0 <= K < _INF:
        raise _K_error(K)
    try:
        u, u_comp = _phi_pair(K, _SQRT_HALF, _SQRT_HALF)
        ratio = u / u_comp
    except ConvergenceError:  # 1 - u^2 underflows double precision, so u^2/(1-u^2) has overflowed
        ratio = _INF
    ratio *= ratio
    if ratio == _INF:
        raise OverflowSignal(f"lambda_of_K({float(K)}) exceeds double precision")
    return ratio


def schottky_psi(r: float, t: float) -> float:
    """Schottky bound psi(r,t) = eta_{M,2}(t) with M = (1+r)/(1-r); psi(0,t) = t.

    As for :func:`eta_K2` at K = M, with the rounding of M added, the relative
    error is at most 14 eps max(1, y, y*) (eps = 2^-52), y = mu(sqrt(t/(1+t)))/M
    and y* = pi^2/(4y).  Against 50-digit mpmath at the exact M, over 12000
    seeded draws with M log-uniform in [1, 50] (r uniform in [0, 0.96] one
    time in five) and t in [1e-6, 1e6], the factor was at most 6.8.  A value
    beyond the double range raises :class:`OverflowSignal`.
    """
    if not (0.0 <= r < 1.0):
        raise DomainError(f"schottky_psi requires r in [0,1), got {r}")
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"schottky_psi requires t > 0, got {t}")
    return eta_K2((1.0 + r) / (1.0 - r), t)


def linearized_g(K: float, x: float) -> float:
    """Logit-conjugated distortion g(x) = p(phi_K(q(x))), p = logit, q = p^{-1}.

    Strictly increasing with increasing derivative of range (1/K, K); g is the
    identity at K = 1.  Evaluated through the complement channel:
    p(v) = log v + log(1+v) - 2 log v' for v in (0,1).  g vanishes where
    phi_K(q(x)) = 1/2, so the bound is absolute: at most 16 eps max(1, |g(x)|)
    (eps = 2^-52).  Against 50-digit mpmath (the theta pair of mu(q(x))/K),
    over 20000 seeded draws with K log-uniform in [1, 50] or [1, 1e3], x
    uniform in [-40, 40] or log-spread from 1e-300 to 700, the factor was at
    most 9.04.  Where q(x), its complement or phi_K(q(x)) leaves the normal
    double range, :class:`ConvergenceError` is raised.
    """
    if not 1.0 <= K < _INF:
        raise _K_error(K)
    if not math.isfinite(x):
        raise DomainError(f"linearized_g requires finite x, got {x}")
    return _logit_conjugate(lambda u: _phi_pair(K, u[0], u[1]), x)


def _logistic_radius(x: float) -> UnitRadius:
    """The radius q(x) = p^{-1}(x) = 1/(1 + e^-x) with its complement, p = logit.

    q and 1 - q are e^-|x| / (1 + e^-|x|) and 1 / (1 + e^-|x|), so no
    exponential overflows.  Where the smaller one falls below the normal
    double range (|x| above about 708.4) it has lost digits, and
    :class:`ConvergenceError` is raised, as :func:`phi_K` does for a radius
    or complement there.
    """
    e = math.exp(-abs(x))
    small, big = e / (1.0 + e), 1.0 / (1.0 + e)
    if small < sys.float_info.min:
        raise ConvergenceError(f"logit inverse q({x}) or its complement underflows double precision")
    q, one_minus_q = (big, small) if x >= 0.0 else (small, big)
    return UnitRadius(q, math.sqrt(one_minus_q * (1.0 + q)))


def _logit_conjugate(distortion, x: float) -> float:
    """p(distortion(q(x))) at the radius :func:`_logistic_radius`, through the complement channel.

    ``distortion`` maps a UnitRadius to a radius pair, plain or UnitRadius.
    """
    v, v_comp = distortion(_logistic_radius(x))
    return math.log(v) + math.log1p(v) - 2.0 * math.log(v_comp)
