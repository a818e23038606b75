"""Gamma-family functions and the Gaussian hypergeometric series.

The hypergeometric function

    F(a,b;c;r) = sum_n (a,n)(b,n) / ((c,n) n!) r^n,    (a,0)=1, (a,n+1)=(a,n)(a+n)

is the kernel behind every ring modulus and distortion function in this
library.  Its boundary behaviour at r = 1 splits into three cases by the sign
of c - a - b; the balanced case c = a + b blows up logarithmically with the
constant

    R(a,b) = -psi(a) - psi(b) - 2*gamma_E,    R(1/2,1/2) = log 16,

and near r = 1 the balanced series is summed through the connection formula
whose leading term is (R(a,b) - log(1-r)) / B(a,b).

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, OverflowSignal

__all__ = [
    "EULER_GAMMA",
    "HypergeomParams",
    "BoundaryCase",
    "AsymptoticClass",
    "gamma_fn",
    "digamma_fn",
    "beta_fn",
    "ramanujan_R",
    "gauss_F",
    "gauss_F_near_one",
    "hypergeom_boundary",
]

# Euler-Mascheroni constant, 30 significant digits.
EULER_GAMMA = 0.577215664901532860606512090082

_SERIES_CAP = 2_000_000
_ZB_SWITCH = 0.95  # balanced series switches to the connection formula above this argument


@dataclass(frozen=True)
class HypergeomParams:
    """Parameter triple (a, b, c) of F(a,b;c;r).

    Requires a > 0, b > 0 and c not a non-positive integer.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise DomainError(f"hypergeometric parameter a must be positive, got {self.a}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise DomainError(f"hypergeometric parameter b must be positive, got {self.b}")
        if not math.isfinite(self.c) or (self.c <= 0 and self.c == int(self.c)):
            raise DomainError(f"hypergeometric parameter c must avoid 0, -1, -2, ..., got {self.c}")

    @property
    def zero_balanced(self) -> bool:
        return abs(self.c - (self.a + self.b)) <= 1e-12 * max(1.0, abs(self.c))


class BoundaryCase(Enum):
    A = "A"  # c > a + b: finite limit at 1
    B = "B"  # c = a + b: logarithmic blow-up
    C = "C"  # c < a + b: power blow-up


@dataclass(frozen=True)
class AsymptoticClass:
    """Boundary classification of F(a,b;c;r) as r -> 1 with its case constant.

    Case A: constant is the finite limit F(a,b;c;1).
    Case B: constant is R(a,b), governing B(a,b) F ~ R - log(1-r).
    Case C: constant is D = B(c, a+b-c)/B(a,b), governing F ~ D (1-r)^(c-a-b).
    """

    case: BoundaryCase
    constant: float


def gamma_fn(x: float) -> float:
    """Gamma function on (0, 171].

    Relative error below 1e-13 on [1e-3, 170]; arguments above 171, and
    below about 5.6e-309 where Gamma(x) ~ 1/x, overflow double precision and
    raise :class:`OverflowSignal`.
    """
    if not (x > 0):
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    if x > 171.0:
        raise OverflowSignal(f"gamma_fn overflows double precision for x = {x} > 171")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowSignal(f"gamma_fn overflows double precision for x = {x}") from None


# Bernoulli-number coefficients B_{2k}/(2k) of the de Moivre expansion of psi.
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma_fn(x: float) -> float:
    """Digamma psi(x) = Gamma'(x)/Gamma(x) for x > 0, absolute error <= 1e-12.

    Upward recurrence psi(x+1) = psi(x) + 1/x to x >= 10, then the asymptotic
    expansion log x - 1/(2x) - sum B_{2k}/(2k x^{2k}); the recurrence terms,
    log x, -1/(2x) and the tail are added exactly with ``math.fsum``.
    """
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"digamma_fn requires x > 0, got {x}")
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for coeff in _PSI_TAIL:
        tail += coeff * p
        p *= inv2
    terms += (math.log(x), -0.5 / x, -tail)
    return math.fsum(terms)


def beta_fn(a: float, b: float) -> float:
    """Euler beta B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b), relative error <= 1e-12.

    Gamma of an argument below about 5.6e-309, or lgamma above about 2.5e305,
    overflows double precision and raises :class:`OverflowSignal`.
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"beta_fn requires finite positive arguments, got ({a}, {b})")
    try:
        if a + b <= 170.0:
            # the larger gamma over Gamma(a+b) first: Gamma(a)Gamma(b) overflows
            # where one argument is tiny, as at B(160, 1e-300) = 1e300
            lo, hi = sorted((a, b))
            return math.gamma(hi) / math.gamma(a + b) * math.gamma(lo)
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    except OverflowError:
        raise OverflowSignal(f"beta_fn({a}, {b}) overflows double precision") from None


def _balanced_r0(a: float, b: float) -> float:
    """R(a,b) = 2 psi(1) - psi(a) - psi(b) for any a, b > 0, with no (0,1) check."""
    return -digamma_fn(a) - digamma_fn(b) - 2.0 * EULER_GAMMA


def ramanujan_R(a: float, b: float) -> float:
    """The balanced-case constant R(a,b) = -psi(a) - psi(b) - 2*gamma_E for a, b in (0,1)."""
    if not (0 < a < 1):
        raise DomainError(f"ramanujan_R requires a in (0,1), got {a}")
    if not (0 < b < 1):
        raise DomainError(f"ramanujan_R requires b in (0,1), got {b}")
    return _balanced_r0(a, b)


def _series(a: float, b: float, c: float, r: float) -> float:
    """Direct hypergeometric series with Neumaier-compensated summation."""
    total = 1.0
    comp = 0.0
    term = 1.0
    n = 0
    while n < _SERIES_CAP:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * r
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        n += 1
        if abs(term) <= 1e-17 * abs(total) and n > 4:
            value = total + comp
            # an infinite term makes comp NaN: the terms have left the double range
            if math.isnan(value):
                raise OverflowSignal(f"F({a}, {b}; {c}; {r}) exceeds double precision")
            return value
    raise ConvergenceError(
        f"hypergeometric series did not converge within {_SERIES_CAP} terms at r = {r}"
    )


def _balanced_sums(a: float, b: float, w: float, log_w: float, r0: float) -> tuple[float, float]:
    """(F(a,b;a+b;w), B(a,b) F(a,b;a+b;1-w)) from one series, for w in [0, 1/2].

    The two sums share their coefficients c_n = (a,n)(b,n)/(n!)^2:

        S0 = sum_n c_n w^n,    S1 = sum_n c_n w^n [R_n - log w],
        R_n = 2 psi(n+1) - psi(a+n) - psi(b+n),

    S1 being the balanced connection formula (DLMF 15.8.10).  Both are added
    exactly with ``math.fsum``; ``log_w`` is passed separately so that it
    stays exact where w underflows, and ``r0`` = R(a,b) = R_0 so that a
    caller summing many series at one (a, b) evaluates it once.  A weight
    R_n - log w < 0 (R(a,b) < 0 for a, b above about 1) would cancel, so a
    term below -eps S1 raises :class:`ConvergenceError`; where a, b <= 1, as
    for a + b = 1, every weight is positive.
    """
    r_n = r0
    if math.isinf(r_n):
        raise OverflowSignal(f"R({a}, {b}) overflows double precision")
    coef, s0, s1 = 1.0, 1.0, r_n - log_w
    terms0, terms1 = [s0], [s1]
    for n in range(200):
        coef *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0)) * w
        r_n += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
        t1 = coef * (r_n - log_w)
        terms0.append(coef)
        terms1.append(t1)
        s0 += coef
        s1 += t1
        if abs(coef) <= 1e-17 * abs(s0) and abs(t1) <= 1e-17 * abs(s1) and n > 1:
            # R_n falls to 0 where a, b <= 1, so only a or b above 1 gives a negative
            # weight; a negative term above eps S1 is one, not rounding of R_n
            if (a > 1.0 or b > 1.0) and min(terms1) < -1e-16 * s1:
                raise ConvergenceError(f"zero-balanced connection series at ({a}, {b}) has a "
                                       "negative term R_n - log w and cancels")
            return math.fsum(terms0), math.fsum(terms1)
    raise ConvergenceError("zero-balanced connection series stalled")


def gauss_F_near_one(a: float, b: float, w: float) -> float:
    """Zero-balanced F(a,b;a+b;1-w) for w in (0, 1/2], from the complement directly.

    This is S1 / B(a,b) of :func:`_balanced_sums`, the connection formula
    whose n = 0 term is the R(a,b) - log(1-r) asymptotic.  Taking w as the
    argument keeps log w exact when 1-r is known to more digits than r.
    Where that series has a negative term or stalls (a, b above about 1),
    the direct series at 1 - w is summed instead, if its about 40 / w
    positive terms fit the series cap, and :class:`ConvergenceError` is
    raised otherwise.  Where the series or the beta normaliser leaves the
    double range (large a, b) :class:`OverflowSignal` is raised.
    """
    if not (0.0 < w <= 0.5):
        raise DomainError(f"gauss_F_near_one requires complement in (0, 0.5], got {w}")
    try:
        s1 = _balanced_sums(a, b, w, math.log(w), _balanced_r0(a, b))[1]
    except ConvergenceError:
        if w * _SERIES_CAP < 40.0:
            raise
        return _series(a, b, a + b, 1.0 - w)
    beta = beta_fn(a, b)
    if not (beta > 0.0 and math.isfinite(s1)):
        raise OverflowSignal(f"gauss_F_near_one({a}, {b}, {w}): the connection series or "
                             "B(a,b) leaves double precision")
    return s1 / beta


def gauss_F(p: HypergeomParams, r: float) -> float:
    """Gauss hypergeometric F(a,b;c;r) on [0,1).

    Direct series (relative error <= 1e-12 within its reach); zero-balanced
    arguments beyond 0.95 go through :func:`gauss_F_near_one`.  A value, or a
    term of the series, beyond the double range raises :class:`OverflowSignal`.
    """
    if not (0.0 <= r < 1.0):
        raise DomainError(f"gauss_F requires r in [0,1), got {r}")
    if r == 0.0:
        return 1.0
    if p.zero_balanced and r > _ZB_SWITCH:
        return gauss_F_near_one(p.a, p.b, 1.0 - r)
    return _series(p.a, p.b, p.c, r)


def hypergeom_boundary(p: HypergeomParams) -> AsymptoticClass:
    """Classify the r -> 1 behaviour of F(a,b;c;r) and return the case constant.

    Requires a, b, c > 0.  Case A's limit F(a,b;c;1) is evaluated by the Gauss
    formula Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).  A gamma ratio
    that leaves the double range raises :class:`OverflowSignal`.
    """
    if p.c <= 0:
        raise DomainError(f"hypergeom_boundary requires c > 0, got {p.c}")
    d = p.c - (p.a + p.b)
    if p.zero_balanced:
        return AsymptoticClass(BoundaryCase.B, _balanced_r0(p.a, p.b))
    try:
        if d > 0:
            # c > a + b forces c - a > b > 0 and c - b > a > 0, so this is total.
            if max(p.c, d) <= 171.0:
                # two quotients of finite gammas: the product of two gammas
                # overflows from c ~ 150 on where the ratio is finite
                const = gamma_fn(p.c) / gamma_fn(p.c - p.a) * (gamma_fn(d) / gamma_fn(p.c - p.b))
            else:
                const = math.exp(
                    math.lgamma(p.c) + math.lgamma(d) - math.lgamma(p.c - p.a) - math.lgamma(p.c - p.b)
                )
            return AsymptoticClass(BoundaryCase.A, const)
        return AsymptoticClass(BoundaryCase.C, beta_fn(p.c, -d) / beta_fn(p.a, p.b))
    except (OverflowError, ZeroDivisionError):
        raise OverflowSignal(f"boundary constant of F{(p.a, p.b, p.c)}: a gamma ratio "
                             "leaves double precision") from None
