"""Catalog of the explicit distortion constants and bounds.

Each entry is a closed-form (or modulus-expressible) function of its listed
parameters, evaluated on its stated domain.  ``_CATALOG`` holds every entry's
parameter names and formula, once; the CLI builds its ``bounds`` flags from
it.  A value beyond the double range raises :class:`OverflowSignal`.  The
plane entries tied to the Teichmuller capacity exist only for n = 2; asking
for another dimension raises :class:`UnsupportedDimensionError` because no
formula exists there.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum

from .errors import DomainError, OverflowSignal, UnsupportedDimensionError
from .means import comp_radius
from .modulus import _phi_pair, _tau2_inv_value, teichmuller_tau2

__all__ = [
    "BoundId",
    "bound_value",
    "bound_signature",
    "surface_area",
    "gehring_d2_composite",
    "gehring_d",
    "vuorinen_c",
]

_LOG2 = math.log(2.0)
# tau_2(1), the library's own value (exactly 2.0), evaluated once
_TAU2_ONE = teichmuller_tau2(1.0)


class BoundId(Enum):
    GehringD2 = "GehringD2"
    VuorinenC2 = "VuorinenC2"
    SeittenrantaS = "SeittenrantaS"
    MoriConstant = "MoriConstant"
    BeurlingAhlforsK = "BeurlingAhlforsK"
    KuhnauTriangleK = "KuhnauTriangleK"
    AgardGehringLower = "AgardGehringLower"
    EtaKnUpper = "EtaKnUpper"
    HaymanSchottky = "HaymanSchottky"
    SurfaceArea = "SurfaceArea"

    # members are singletons that compare by identity, so the identity hash
    # keys the catalog; Enum's own hashes the name in Python on every lookup
    __hash__ = object.__hash__


def _require_K(K: float) -> float:
    if not (K >= 1.0 and math.isfinite(K)):
        raise DomainError(f"dilatation parameter must satisfy K >= 1, got {K}")
    return K


def _overflow(name: str, names: tuple[str, ...], params) -> OverflowSignal:
    """The error for an entry whose value at ``params`` is beyond the double range."""
    args = ", ".join(f"{n}={v!r}" for n, v in zip(names, params))
    return OverflowSignal(f"{name}({args}) exceeds double precision")


def surface_area(n: float) -> float:
    """Surface area omega_{n-1} = n pi^(n/2) / Gamma(1 + n/2) of the unit sphere.

    Gamma(1 + n/2) overflows first, so n > 340 raises :class:`OverflowSignal`.
    """
    from .specfun import gamma_fn  # the catalog's one use of specfun

    if not (n >= 1 and math.isfinite(n)):
        raise DomainError(f"surface_area requires n >= 1, got {n}")
    gamma = gamma_fn(1.0 + 0.5 * n)
    return n * math.pi ** (0.5 * n) / gamma


def gehring_d2_composite(K: float) -> float:
    """The linear-dilatation constant assembled from its n = 2 ingredients.

    exp[(K omega_1 / tau_2(1))^(1/(n-1))] with omega_1 = 2 pi and tau_2(1)
    from the library's modulus; the module self-check pins this against exp(pi K).
    Above K ~ 225 the value overflows and raises :class:`OverflowSignal`.
    """
    _require_K(K)
    try:
        value = math.exp(K * surface_area(2.0) / _TAU2_ONE)
    except OverflowError:
        value = math.inf
    if value == math.inf:  # also where the exponent itself overflows
        raise _overflow("gehring_d2_composite", ("K",), (K,))
    return value


def _log_seittenranta(K: float) -> float:
    # log s(K) = 6 (K+1)^2 sqrt(K-1), at a K already checked
    return 6.0 * (K + 1.0) ** 2 * math.sqrt(K - 1.0)


def _seittenranta(K: float) -> float:
    # s(K), past the double range from K ~ 6.25
    return math.exp(_log_seittenranta(_require_K(K)))


def _vuorinen_c2(K: float) -> float:
    # c(2,K) = 1 + tau2^-1(tau2(1)/K); inf from K ~ 227, which bound_value names
    return 1.0 + _tau2_inv_value(_TAU2_ONE / _require_K(K))


def _beurling_ahlfors(M: float) -> float:
    # min(M^(3/2), 2M - 1); the power wins only below M = phi^2 ~ 2.618, and
    # above 4 it is not formed, since it overflows long before 2M - 1 does
    if not (M >= 1.0 and math.isfinite(M)):
        raise DomainError(f"BeurlingAhlforsK requires M >= 1, got {M}")
    if M > 4.0:
        return 2.0 * M - 1.0
    return min(M ** 1.5, 2.0 * M - 1.0)


def _kuhnau_triangle(alpha: float) -> float:
    # sqrt((1+d)/(1-d)) with d = 1 - alpha, i.e. sqrt((2-alpha)/alpha); a lower
    # bound, attained for every least-angle fraction alpha in (0, 1/3].  The
    # exact scaling by 2^600 keeps the quotient finite below alpha ~ 1e-308.
    if not (0.0 < alpha <= 1.0 / 3.0):
        raise DomainError(
            f"KuhnauTriangleK requires least-angle fraction alpha in (0, 1/3], got {alpha}"
        )
    return math.sqrt((2.0 - alpha) / (alpha * 2.0 ** 600)) * 2.0 ** 300


def _agard_gehring(M: float) -> float:
    # 1 + (M-1)/4, stated on M in (1,2)
    if not (1.0 < M < 2.0):
        raise DomainError(f"AgardGehringLower is stated only for M in (1,2), got {M}")
    return 1.0 + 0.25 * (M - 1.0)


def _eta_kn_upper(K: float, t: float, n: float) -> float:
    # s(K) eta(t): the plane distortion at n = 2, a power bracket at n >= 3
    _require_K(K)
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"EtaKnUpper requires t > 0, got {t}")
    if not (math.isfinite(n) and n == int(n) and n >= 2):
        raise DomainError(f"EtaKnUpper requires integer n >= 2, got {n}")
    if t == 1.0:
        return math.exp(_log_seittenranta(K))  # s(K)
    # from here on s(K), past the double range from K ~ 6.25, is never formed
    # alone, so only a value past the double range overflows
    if n == 2:
        # s(K) phi_K(t), and s(K) / phi_{1/K}(1/t) for t > 1, as half phi half
        # with half = sqrt s(K) >= 1: phi keeps its rounding, which
        # exp(log s(K) + log phi) loses to the rounding of a sum near 132
        half = math.exp(0.5 * _log_seittenranta(K))
        if t < 1.0:
            return half * _phi_pair(K, t, comp_radius(t))[0] * half
        s = 1.0 / t
        return half / _phi_pair(1.0 / K, s, comp_radius(s))[0] * half
    # exact distortion unknown; use the power bracket s(K) lam^|p-1| t^p
    # with p = K^(1/(1-n)) for t < 1 and its inverse for t > 1, and the
    # conservative upper estimate lam = 2 e^(n-1) of the Grotzsch
    # constant; |p - 1| comes from expm1, without cancellation at large n;
    # the value is the exp of its logarithm
    log_p = math.log(K) / (n - 1.0) if t > 1.0 else math.log(K) / (1.0 - n)
    log_rest = abs(math.expm1(log_p)) * (_LOG2 + (n - 1.0)) + math.exp(log_p) * math.log(t)
    return math.exp(_log_seittenranta(K) + log_rest)


def _hayman_schottky(r: float, t: float) -> float:
    # exp((pi + log+ t)(1+r)/(1-r))
    if not (0.0 <= r < 1.0):
        raise DomainError(f"HaymanSchottky requires r in [0,1), got {r}")
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"HaymanSchottky requires t > 0, got {t}")
    log_plus_t = max(0.0, math.log(t))
    return math.exp((math.pi + log_plus_t) * (1.0 + r) / (1.0 - r))


# entry -> (parameter names in call order, formula); each formula checks its own domain
_CATALOG: dict[BoundId, tuple[tuple[str, ...], Callable[..., float]]] = {
    # d(2,K) = exp(pi K)
    BoundId.GehringD2: (("K",), lambda K: math.exp(math.pi * _require_K(K))),
    BoundId.VuorinenC2: (("K",), _vuorinen_c2),
    BoundId.SeittenrantaS: (("K",), _seittenranta),
    # 64^(1 - 1/K)
    BoundId.MoriConstant: (("K",), lambda K: math.exp((1.0 - 1.0 / _require_K(K)) * math.log(64.0))),
    BoundId.BeurlingAhlforsK: (("M",), _beurling_ahlfors),
    BoundId.KuhnauTriangleK: (("alpha",), _kuhnau_triangle),
    BoundId.AgardGehringLower: (("M",), _agard_gehring),
    BoundId.EtaKnUpper: (("K", "t", "n"), _eta_kn_upper),
    BoundId.HaymanSchottky: (("r", "t"), _hayman_schottky),
    BoundId.SurfaceArea: (("n",), surface_area),
}


def bound_signature(bound_id: BoundId) -> tuple[str, ...]:
    """Parameter names of a catalog entry, in call order."""
    return _CATALOG[bound_id][0]


def bound_value(bound_id: BoundId, params) -> float:
    """Evaluate a catalog entry at an ordered parameter list.

    Raises :class:`DomainError` for an unknown id, a wrong number of
    parameters, a non-numeric parameter, or a point outside the entry's
    stated domain (dimension-indexed entries only exist at n = 2), and
    :class:`OverflowSignal` when the value exceeds double precision.
    """
    if not isinstance(bound_id, BoundId):
        try:
            bound_id = BoundId(str(bound_id))
        except ValueError:
            known = ", ".join(b.value for b in BoundId)
            raise DomainError(f"unknown bound id {bound_id!r}; known ids: {known}") from None
    names, formula = _CATALOG[bound_id]
    try:
        params = list(map(float, params))
    except (TypeError, ValueError):
        raise DomainError(f"{bound_id.value} takes numeric parameters {names}, got {params!r}") from None
    if len(params) != len(names):
        raise DomainError(
            f"{bound_id.value} takes parameters {names}, got {len(params)} value(s)"
        )
    try:
        value = formula(*params)
    except OverflowError:
        value = math.inf
    if abs(value) == math.inf:
        raise _overflow(bound_id.value, names, params)
    return value


def gehring_d(n: float, K: float) -> float:
    """Dimension-indexed linear-dilatation constant d(n, K); evaluable only at n = 2.

    For n >= 3 the Teichmuller capacity tau_n(1) has no known formula, so the
    request raises :class:`UnsupportedDimensionError`.
    """
    if n == 2:
        return bound_value(BoundId.GehringD2, [K])
    raise UnsupportedDimensionError(
        f"d(n,K) is only computable for n = 2 (tau_n(1) unknown for n = {n})"
    )


def vuorinen_c(n: float, K: float) -> float:
    """Dimension-indexed sharpened constant c(n, K); evaluable only at n = 2.

    c(2, K) = 1 + tau_2^-1(tau_2(1)/K) is within 5 eps max(1, pi K/2)
    relative (eps = 2^-52): against 40- to 60-digit mpmath, over 12000
    log-uniform K in [1, 226] and 30000 uniform K in [1, 4], the factor was
    at most 3.94 (at K = 1.75).  Past K ~ 227 the value leaves the double
    range and raises :class:`OverflowSignal`, for every larger K.
    """
    if n == 2:
        return bound_value(BoundId.VuorinenC2, [K])
    raise UnsupportedDimensionError(
        f"c(n,K) is only computable for n = 2 (tau_n^-1 unknown for n = {n})"
    )
