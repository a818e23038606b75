"""Mean values and the complete elliptic integral via the Jacobi nome.

The t-th power modification of a mean M is M_t(x,y) = M(x^t, y^t)^(1/t).
The arithmetic-geometric mean AG(x, y), an iteration closed by its
quadratic tail, gives the Lagrange-Gauss form K(r) = pi / (2 AG(1, r')),
r' = sqrt(1 - r^2), which the tests use as the oracle of the nome route.

K itself, and the ring modulus mu(r) = (pi/2) K(r')/K(r), come in closed
form from the Jacobi nome q = e^(-2 mu(r)) of the smaller channel
k = min(r, r') (DLMF 19.5.5, 20.9.2; Borwein and Borwein, *Pi and the
AGM*, 1987, ch. 2-3):

    lambda = (1 - sqrt k') / (2 (1 + sqrt k')),
    q = lambda + 2 lambda^5 + 15 lambda^9 + 150 lambda^13 + ...,
    K(k) = (pi/2) theta_3(q)^2,    mu(k) = -log(q) / 2.

With k <= k' the nome is at most e^-pi and lambda at most 0.0432, so four
terms of each series reach double precision; mu needs only the log nome.
The larger channel follows by the duality mu(r) mu(r') = pi^2 / 4.

Pure functions throughout; safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
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
_AGM_TAIL = 4e-3  # up to 5e-3 any value only trades steps; at 1e-2 the tail drops 3 eps
_AGM_SMALL, _AGM_BIG = 2.0 ** -510, 2.0 ** 510  # every a_n b_n of a pair in between is normal
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
    """Arithmetic-geometric mean of two positive numbers; AG(inf, y) = inf.

    Iterates a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n b_n) until a - b <= 4e-3 a,
    then closes with the quadratic tail AG(m(1+d), m(1-d)) = m (1 - d^2/4 - 5 d^4/64),
    m = (a+b)/2, d = (a-b)/(a+b) <= 2e-3, whose first dropped term, 11 d^6/256,
    is below 3e-18: this saves the last two or three steps.  A pair whose
    products a_n b_n could leave the normal range is scaled by a power of two
    first (AG is homogeneous), and where y/x underflows AG = x pi / (2 log(4x/y))
    to double precision, so the 60-step cap is unreachable for positive input.
    """
    if not (x > 0 and y > 0):
        raise DomainError(f"agm requires positive arguments, got ({x}, {y})")
    a, b = (x, y) if x >= y else (y, x)
    scale = 1.0
    if not (_AGM_SMALL <= b and a <= _AGM_BIG):
        if b / a < sys.float_info.min:  # a = inf included, where the tail would give inf/inf
            return a if a == math.inf else a * (_HALF_PI / (2.0 * _LOG2 + (math.log(a) - math.log(b))))
        scale = 2.0 ** (math.frexp(a)[1] - 1)  # a / scale lies in [1, 2), exactly
        a, b = a / scale, b / scale
    for _ in range(_AGM_CAP):
        gap = a - b
        if gap <= _AGM_TAIL * a:
            s = a + b
            d = gap / s
            d *= d
            return scale * (0.5 * s * (1.0 - d * (0.25 + 0.078125 * d)))
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise ConvergenceError(f"agm did not converge for ({x}, {y})")


def _agm3(x: float, y: float) -> float:
    """Borwein cubic AGM of x >= y > 0 (Trans. AMS 323, 1991).

    Iterates a_{n+1} = (a_n + 2 b_n)/3, b_{n+1} = cbrt(b_n (a_n^2 + a_n b_n + b_n^2)/3),
    which converges cubically, to 1e-16 relative or its ulp floor.  It gives
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
        s = x + y
        return 0.5 * s if s < math.inf else 0.5 * x + 0.5 * y
    if kind is MeanKind.Geometric:
        p = x * y  # leaves the normal range far from 1, where two roots do not
        return math.sqrt(p) if sys.float_info.min <= p < math.inf else math.sqrt(x) * math.sqrt(y)
    if kind is MeanKind.Logarithmic:
        if x == y:
            return x
        hi, lo = (x, y) if x > y else (y, x)
        # log1p keeps full precision for close arguments, log(hi/lo) for large
        # ratios (exactly symmetric, as the pair is canonicalized first), and
        # where hi/lo overflows, log hi - log lo >= 709 cancels nothing
        if hi <= 2.0 * lo:
            return (hi - lo) / math.log1p((hi - lo) / lo)
        ratio = hi / lo
        return (hi - lo) / (math.log(ratio) if ratio < math.inf else math.log(hi) - math.log(lo))
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

    lambda = k^2 / (2 (1 + k') (1 + sqrt k')^2) avoids the cancellation in
    1 - sqrt k'; the first dropped terms, 1707 lambda^17 of q and 2q^16 of
    theta_3 = 1 + 2q + 2q^4 + 2q^9, lie below 3e-19 lambda and 2e-22.  Every
    caller, the distortion pass (:func:`qcfun.modulus._phi_pair`) included,
    gets the log nome from one plain sum, with q = lambda (1 + tail):
    mu = ((log 2 - log1p(tail) + log(1 + k')) / 2 + log(1 + sqrt k')) - log k.
    It takes no logarithm of lambda, which underflows below k ~ 1e-154, so
    subnormal k needs no guard.  The switches skip work: the entry not asked
    for is NaN, and without ``with_mu`` no logarithm is taken (k = 0 gives
    theta_3 = 1), without ``with_theta`` no theta series is summed.
    """
    s = math.sqrt(kc)
    lam = k * k / (2.0 * (1.0 + kc) * ((1.0 + s) * (1.0 + s)))
    l4 = lam * lam
    l4 *= l4
    tail = l4 * (2.0 + l4 * (15.0 + 150.0 * l4))  # q = lambda (1 + tail)
    m = math.nan
    if with_mu:
        m = (0.5 * (_LOG2 - math.log1p(tail) + math.log1p(kc)) + math.log1p(s)) - math.log(k)
    if not with_theta:
        return m, math.nan
    q = lam + lam * tail
    q3 = q * q * q
    d = 2.0 * q * (1.0 + q3 * (1.0 + q3 * q * q))  # theta_3 - 1
    return m, 1.0 + d * (2.0 + d)


def ellint_K(r: float) -> float:
    """Complete elliptic integral K(r) on [0,1), within 4 ulp of the true value.

    Goes through :func:`ellint_K_from_comp` with r' = sqrt((1-r)(1+r)), which
    is exact to rounding because 1 - r is.  Against 60-digit mpmath, over
    12000 values of K at r and r' log-spread and uniform on (0,1) down to
    5e-324, both channels, the error was at most 2.45 ulp with a mean of
    0.37 ulp (the AGM quotient with its complement expansion: 3.6 and 0.48).
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
