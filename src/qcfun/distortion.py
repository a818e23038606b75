"""Distortion functions of plane quasiconformal maps.

The central object is the radial distortion function

    phi_K(r) = mu^{-1}(mu(r) / K),

the sharp bound |f(x)| <= phi_K(|x|) in the quasiconformal Schwarz lemma.
From it: the quasisymmetry function eta_{K,2}(t) = u^2/(1-u^2) with
u = phi_K(sqrt(t/(1+t))), the sharp linear-dilatation bound
lambda(K) = eta_{K,2}(1), the Schottky supremum psi(r,t) = eta_{M,2}(t) with
M = (1+r)/(1-r), and the logit-conjugated linearization
g(x) = p(phi_K(q(x))) whose derivative increases through (1/K, K).

``phi_K``/``phi_aK`` return :class:`~qcfun.modulus.UnitRadius` so the
complement 1 - phi^2 stays available at full precision; eta and the
linearization read that channel instead of subtracting from 1.

Pure functions throughout; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, OverflowSignal
from .modulus import (
    SQRT_HALF,
    UnitRadius,
    as_radius,
    check_signature,
    mu,
    mu_a,
    mu_a_inv,
    mu_inv,
)

__all__ = [
    "phi_K",
    "phi_aK",
    "eta_K2",
    "lambda_of_K",
    "schottky_psi",
    "linearized_g",
]

def _check_K(K: float, sub_unit_ok: bool) -> float:
    if not (math.isfinite(K) and K > 0):
        raise DomainError(f"dilatation must be positive, got {K}")
    if not sub_unit_ok and K < 1.0:
        raise DomainError(f"dilatation must satisfy K >= 1, got {K}")
    return float(K)


def phi_K(K: float, x) -> UnitRadius:
    """Radial distortion phi_K(r) = mu^{-1}(mu(r)/K), increasing in r and K.

    K = 1 is the identity; K in (0,1) gives the inverse function phi_{1/K}^-1,
    so no separate operation is needed.  A result whose radius or complement
    falls below the normal double range raises :class:`ConvergenceError`.
    """
    K = _check_K(K, sub_unit_ok=True)
    u = as_radius(x)
    if K == 1.0:
        return u
    return mu_inv(_scaled_modulus(mu(u), K, "phi_K"))


def phi_aK(a: float, K: float, x) -> UnitRadius:
    """Generalized distortion phi^a_K(r) = mu_a^{-1}(mu_a(r)/K); phi^(1/2)_K = phi_K.

    As for phi_K, a radius or complement below the normal double range raises
    :class:`ConvergenceError`.
    """
    a = check_signature(a)
    K = _check_K(K, sub_unit_ok=True)
    u = as_radius(x)
    if K == 1.0:
        return u
    return mu_a_inv(a, _scaled_modulus(mu_a(a, u), K, "phi_aK"))


def _scaled_modulus(modulus: float, K: float, name: str) -> float:
    target = modulus / K
    if math.isinf(target):
        # a tiny K sends the radius below every double: the inverse underflows
        raise ConvergenceError(f"{name}: modulus / K = {modulus} / {K} overflows, "
                               "so the radius underflows double precision")
    return target


def _squared_ratio(K: float, arg: UnitRadius, call) -> float:
    """u^2/(1-u^2) for u = phi_K(arg), read off the complement channel.

    ``call()`` names the public call in the overflow message; it is formatted
    only on failure, since two float reprs cost a third of an eta_K2 call.
    """
    try:
        u = phi_K(K, arg)
    except ConvergenceError as exc:
        # 1 - u^2 underflows double precision, so u^2/(1-u^2) has overflowed
        raise OverflowSignal(f"{call()} exceeds double precision") from exc
    ratio = u.r / u.comp
    value = ratio * ratio
    if math.isinf(value):
        raise OverflowSignal(f"{call()} exceeds double precision")
    return value


def eta_K2(K: float, t: float) -> float:
    """Agard's quasisymmetry function eta_{K,2}(t) = u^2/(1-u^2), u = phi_K(sqrt(t/(1+t))).

    eta_{1,2}(t) = t, eta(0) = 0; increasing in both arguments.  1 - u^2 is
    read off the complement channel of the inversion, so no cancellation
    occurs for u near 1; a complement too small to square raises
    :class:`OverflowSignal`.
    """
    K = _check_K(K, sub_unit_ok=False)
    if not (t >= 0.0 and math.isfinite(t)):
        raise DomainError(f"eta_K2 requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    arg = UnitRadius(math.sqrt(t / (1.0 + t)), math.sqrt(1.0 / (1.0 + t)))
    return _squared_ratio(K, arg, lambda: f"eta_K2({K}, {t})")


def lambda_of_K(K: float) -> float:
    """Sharp linear-dilatation bound lambda(K) = u^2/(1-u^2), u = phi_K(1/sqrt(2)).

    lambda(1) = 1, increasing, and exp(pi(K-1)) <= lambda(K) <= exp(pi(K-1/K)).
    """
    K = _check_K(K, sub_unit_ok=False)
    return _squared_ratio(K, SQRT_HALF, lambda: f"lambda_of_K({K})")


def schottky_psi(r: float, t: float) -> float:
    """Schottky bound psi(r,t) = eta_{M,2}(t) with M = (1+r)/(1-r); psi(0,t) = t."""
    if not (0.0 <= r < 1.0):
        raise DomainError(f"schottky_psi requires r in [0,1), got {r}")
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"schottky_psi requires t > 0, got {t}")
    return eta_K2((1.0 + r) / (1.0 - r), t)


def linearized_g(K: float, x: float) -> float:
    """Logit-conjugated distortion g(x) = p(phi_K(q(x))), p = logit, q = p^{-1}.

    Strictly increasing with increasing derivative of range (1/K, K); g is the
    identity at K = 1.  Evaluated through the complement channel:
    p(v) = log v + log(1+v) - 2 log v' for v in (0,1).
    """
    K = _check_K(K, sub_unit_ok=False)
    if not math.isfinite(x):
        raise DomainError(f"linearized_g requires finite x, got {x}")
    return _logit_conjugate(lambda u: phi_K(K, u), x)


def _logit_conjugate(distortion, x: float) -> float:
    """p(distortion(q(x))) with p = logit, q = p^{-1}, through the complement channel."""
    q = 1.0 / (1.0 + math.exp(-x))
    one_minus_q = 1.0 / (1.0 + math.exp(x))
    arg = UnitRadius(q, math.sqrt(one_minus_q * (1.0 + q)))
    v = distortion(arg)
    return math.log(v.r) + math.log1p(v.r) - 2.0 * math.log(v.comp)
