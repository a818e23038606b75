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

_AGM_CAP = 60  # never reached: agm takes at most 6 steps, log AG 8, the L series 18 terms; any cap above 20 will do
_AGM_TAIL = 4e-3  # up to 5e-3 any value only trades steps; at 1e-2 the tail drops 3 eps
_AGM_SMALL, _AGM_BIG = 2.0 ** -510, 2.0 ** 510  # any edges in [2^-511, 1] and [1, 2^511] keep a_n b_n normal
# below this ratio AG(1, t) = pi / (2 log(4/t)), in agm and log AG(1, e^u); any value from 2^-28 down only
# trades speed (the dropped t^2/4 is below 2^-58 there), and at 2^-24 the asymptote drops 4 eps
_AG_ASYMPTOTE = 2.0 ** -28
_HALF_PI = 0.5 * math.pi
_LOG2 = math.log(2.0)
_MIN_NORMAL = sys.float_info.min
_T_MAX = 1e300  # t log(hi/lo), with |log(hi/lo)| <= 1455, stays finite up to here


class MeanKind(Enum):
    Arithmetic = "A"
    Geometric = "G"
    Logarithmic = "L"
    ArithmeticGeometric = "AG"


def agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive numbers, within 4 ulp; AG(inf, y) = inf.

    Where y < 2^-28 x, AG(x, y) = x pi / (2 log(4x/y)), which drops a relative
    (y/x)^2/4 < 2^-58.  Other pairs take AGM steps until a - b <= 4e-3 a, then
    the quadratic tail AG(m(1+d), m(1-d)) = m (1 - d^2/4 - 5 d^4/64), m = (a+b)/2,
    d = (a-b)/(a+b), which drops 11 d^6/256 < 3e-18; a pair whose products a_n b_n
    could leave the normal range is scaled by a power of two first, so the 60-step
    cap is unreachable.  Against 50-digit mpmath, over 20000 pairs log-spread over
    [1e-300, 1e300], the error was at most 2.74 ulp.
    """
    if not (x > 0 and y > 0):
        raise DomainError(f"agm requires positive arguments, got ({x}, {y})")
    a, b = (x, y) if x >= y else (y, x)
    if not (ratio := b / a) >= _AG_ASYMPTOTE:  # NaN at (inf, inf)
        # log b - log a only where b/a underflows: near 2^-28 at a = 1e300 it is 39 ulp off
        log_ratio = math.log(ratio) if ratio >= _MIN_NORMAL else math.log(b) - math.log(a)
        return a if a == math.inf else a * (_HALF_PI / (2.0 * _LOG2 - log_ratio))
    scale = 1.0
    if not (_AGM_SMALL <= b and a <= _AGM_BIG):
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


def mean(kind: MeanKind, x: float, y: float) -> float:
    """Arithmetic, geometric, logarithmic or arithmetic-geometric mean.

    L(x,x) = x by convention; otherwise L(x,y) = (x-y)/log(x/y).  Every kind
    is inf where an argument is.
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
        if hi == math.inf:
            return hi
        # log1p keeps full precision for close arguments, log(hi/lo) for large ratios (exactly
        # symmetric, as the pair is canonicalized first; a switch anywhere in [1.25, 4] keeps
        # both within 2.1 eps), and where hi/lo overflows, log hi - log lo >= 709 cancels nothing
        if hi <= 2.0 * lo:
            return (hi - lo) / math.log1p((hi - lo) / lo)
        ratio = hi / lo
        return (hi - lo) / (math.log(ratio) if ratio < math.inf else math.log(hi) - math.log(lo))
    if kind is MeanKind.ArithmeticGeometric:
        return agm(x, y)
    raise DomainError(f"unknown mean kind {kind!r}")


def mean_mod(kind: MeanKind, t: float, x: float, y: float) -> float:
    """Power modification M_t(x,y) = M(x^t, y^t)^(1/t) for 0 < t <= 1e300.

    Formed homogeneously, so no power overflows: with hi = max(x, y) and
    u = t log(min(x, y)/hi) <= 0, M_t = hi exp(g(u)/t) at g(u) = log M(1, e^u)
    (:func:`_log_mean_of_one`), and M_t(x, x) = x exactly.  G_t = G for every
    t, and M_t = G = inf where an argument is inf; below the normal range of
    t (2.2e-308), where M_t/G - 1 < t log(x/y)^2 / 8 < 1e-301, G is returned.
    The relative error is at most 2 eps (1 + |log(x/y)|) (eps = 2^-52): the
    roundings of log(x/y) and of the exponent are what scale it.  Against
    mpmath, over nine seeded sets of 3000 (t, x, y) per kind with x and y
    log-spread over [1e-300, 1e300], a fifth of them within a relative 1e-15
    to 1 of each other, and t log-spread over [1e-3, 1e3] (five sets) or
    [1e-300, 1e300] (four), the factor was at most 1.79.  A t above 1e300,
    where t log(x/y) may overflow, raises :class:`DomainError`.
    """
    if not (0.0 < t <= _T_MAX):
        raise DomainError(f"mean_mod requires 0 < t <= 1e300, got {t}")
    if not (x > 0 and y > 0):
        raise DomainError(f"mean_mod requires positive arguments, got ({x}, {y})")
    if not isinstance(kind, MeanKind):
        raise DomainError(f"unknown mean kind {kind!r}")
    hi, lo = (x, y) if x > y else (y, x)
    if kind is MeanKind.Geometric or t < _MIN_NORMAL or hi == math.inf:
        return mean(MeanKind.Geometric, x, y)
    ratio = lo / hi
    # where lo/hi leaves the normal range, log hi - log lo >= 708 cancels nothing
    u = t * (math.log(ratio) if ratio >= _MIN_NORMAL else math.log(lo) - math.log(hi))
    half = math.exp(0.5 * _log_mean_of_one(kind, u) / t)  # >= e^-364: the square may not be normal
    return hi * half * half


def _log_mean_of_one(kind: MeanKind, u: float) -> float:
    """log M(1, e^u) for u <= 0, to a few eps relative for A, L and AG.

    * A: log1p(expm1(u)/2), with no cancellation.
    * L: (e^u - 1)/u; for |u| <= 1 as 1 + sum u^n/(n+1)!, an alternating
      series dominated by its first term u/2, so log1p keeps every digit.
    * AG: the AGM step AG(1, w) = A(1, w) AG(1, 2 sqrt(w)/(1 + w)), as a sum of
      log A terms of one sign; where e^u is below 2^-28, the asymptote of
      :func:`agm`, log(pi / (2 log(4/w))).
    """
    a = math.log1p(0.5 * math.expm1(u))
    if kind is MeanKind.Arithmetic:
        return a
    if kind is MeanKind.Logarithmic:
        if u < -1.0:  # a switch anywhere in [-1.25, -0.5] keeps log L within 4.4 eps relative
            return math.log(-math.expm1(u)) - math.log(-u)
        term = d = 0.5 * u
        for n in range(3, _AGM_CAP):
            term *= u / n
            d += term
            if abs(term) <= 1e-17 * abs(d):  # speed only up to 1e-16: every later term is below half an ulp of d
                break
        return math.log1p(d)
    if u < math.log(_AG_ASYMPTOTE):
        return math.log(_HALF_PI / (2.0 * _LOG2 - u))
    g = 0.0
    for _ in range(_AGM_CAP):
        g += a
        u = 0.5 * u - a
        if -u <= 1e-17 * -g:  # the rest is u/2 + u^2/16, so any value up to 1e-9 will do
            return g + 0.5 * u
        a = math.log1p(0.5 * math.expm1(u))
    raise ConvergenceError(f"log AG(1, e^u) did not converge for u = {u}")


def comp_radius(r: float) -> float:
    """Complement r' = sqrt(1 - r^2), computed as sqrt((1-r)(1+r))."""
    return math.sqrt((1.0 - r) * (1.0 + r))


def _nome(k: float, kc: float) -> float:
    """theta_3(q)^2 at the Jacobi nome q of the channel k <= kc, so K(k) = (pi/2) theta_3^2.

    lambda = k^2 / (2 (1 + k') (1 + sqrt k')^2) avoids the cancellation in
    1 - sqrt k'; the first dropped terms, 1707 lambda^17 of q and 2q^16 of
    theta_3 = 1 + 2q + 2q^4 + 2q^9, lie below 3e-19 lambda and 2e-22.  k = 0
    gives theta_3 = 1.  The log nome of the same q is :func:`_log_nome`, which
    forms the same lambda and tail; the two kernels stand side by side, and a
    caller that needs both calls both.
    """
    s = math.sqrt(kc)
    lam = k * k / (2.0 * (1.0 + kc) * ((1.0 + s) * (1.0 + s)))
    l4 = lam * lam
    l4 *= l4
    q = lam + lam * (l4 * (2.0 + l4 * (15.0 + 150.0 * l4)))  # lambda (1 + tail)
    q3 = q * q * q
    d = 2.0 * q * (1.0 + q3 * (1.0 + q3 * q * q))  # theta_3 - 1
    return 1.0 + d * (2.0 + d)


def _log_nome(k: float, kc: float) -> float:
    """mu(k) = -log(q)/2 at the Jacobi nome q of the channel k <= kc, with no theta series.

    From the lambda and tail of :func:`_nome`, with q = lambda (1 + tail), one
    plain sum:
    mu = ((log 2 - log1p(tail) + log(1 + k')) / 2 + log(1 + sqrt k')) - log k.
    It takes no logarithm of lambda, which underflows below k ~ 1e-154, so
    subnormal k needs no guard.
    """
    s = math.sqrt(kc)
    lam = k * k / (2.0 * (1.0 + kc) * ((1.0 + s) * (1.0 + s)))
    l4 = lam * lam
    l4 *= l4
    tail = l4 * (2.0 + l4 * (15.0 + 150.0 * l4))
    return (0.5 * (_LOG2 - math.log1p(tail) + math.log1p(kc)) + math.log1p(s)) - math.log(k)


def ellint_K(r: float) -> float:
    """Complete elliptic integral K(r) on [0,1), within 4 ulp of the true value.

    The route of :func:`ellint_K_from_comp`, taken inline, with
    r' = sqrt((1-r)(1+r)), which is exact to rounding because 1 - r is.
    Against 60-digit mpmath, over 12000 values of K at r and r' log-spread
    and uniform on (0,1) down to 5e-324, both channels, the error was at
    most 2.45 ulp with a mean of 0.37 ulp (the AGM quotient with its
    complement expansion: 3.6 and 0.48).
    """
    if not (0.0 <= r < 1.0):
        if r == 1.0:
            raise DivergenceError("K(r) diverges at r = 1")
        raise DomainError(f"ellint_K requires r in [0,1), got {r}")
    comp = math.sqrt((1.0 - r) * (1.0 + r))  # comp_radius(r)
    if r <= comp:
        return _HALF_PI * _nome(r, comp)
    return _log_nome(comp, r) * _nome(comp, r)


def ellint_K_from_comp(comp: float, r: float) -> float:
    """K at the radius whose complement is ``comp`` (internal two-channel entry).

    The nome of the smaller channel gives K with no iteration (see
    :func:`_nome` and :func:`_log_nome`): K(r) = (pi/2) theta_3(q)^2 when r <= r', and
    K(r) = mu(r') theta_3(q')^2 otherwise, which is K(r) = (2/pi) mu(r') K(r')
    at the nome q' of r'.  ``r`` may be a rounded 1.0 when ``comp`` is tiny:
    there it is only the larger channel, which rounding to 1 leaves exact
    to double precision.
    """
    if r <= comp:
        return _HALF_PI * _nome(r, comp)
    return _log_nome(comp, r) * _nome(comp, r)


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
