"""Mean values and the complete elliptic integral via the arithmetic-geometric mean.

The Lagrange-Gauss theorem evaluates the complete elliptic integral of the
first kind through the AGM,

    K(r) = pi / (2 AG(1, r')),    r' = sqrt(1 - r^2),

which converges quadratically and carries full double precision.  The t-th
power modification of a mean M is M_t(x,y) = M(x^t, y^t)^(1/t).

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


def ellint_K(r: float) -> float:
    """Complete elliptic integral K(r) on [0,1), relative error ~1e-15.

    Goes through :func:`ellint_K_from_comp` with r' = sqrt((1-r)(1+r)), which
    is exact to rounding because 1 - r is: the AGM up to 1 - r ~ 5e-15 and the
    complement expansion on the last few doubles below 1.
    """
    if not (0.0 <= r < 1.0):
        if r == 1.0:
            raise DivergenceError("K(r) diverges at r = 1")
        raise DomainError(f"ellint_K requires r in [0,1), got {r}")
    return ellint_K_from_comp(comp_radius(r), r)


def ellint_K_from_comp(comp: float, r: float) -> float:
    """K at the radius whose complement is ``comp`` (internal two-channel entry).

    With the complement known exactly the AGM stays accurate down to 1e-7;
    below that the two-term complement expansion
    K = L + (c^2/4)(L - 1), L = log(4/c), is exact to O(c^4 L), and the
    elementary bracket guards it.  ``r`` may be a rounded 1.0 when ``comp``
    is tiny; only ``comp`` matters then.
    """
    if comp < 1e-7:
        log4c = math.log(4.0 / comp)
        value = log4c + 0.25 * comp * comp * (log4c - 1.0)
        r_sq = 1.0 - comp * comp
        lo = 9.0 / (8.0 + r_sq) * log4c
        hi = 4.0 / (3.0 + r_sq) * log4c
        if not (lo * (1.0 - 1e-12) <= value <= hi * (1.0 + 1e-12)):
            raise ConvergenceError("complement expansion left the elliptic bracket")
        return value
    return math.pi / (2.0 * agm(1.0, comp))


def ellint_Kprime(r: float) -> float:
    """Complementary integral K'(r) = K(sqrt(1-r^2)) for r in (0,1].

    Uses K(r') = pi / (2 AG(1, r)), so no complement is ever formed.
    """
    if not (0.0 < r <= 1.0):
        if r == 0.0:
            raise DivergenceError("K'(r) diverges at r = 0")
        raise DomainError(f"ellint_Kprime requires r in (0,1], got {r}")
    return math.pi / (2.0 * agm(1.0, r))
