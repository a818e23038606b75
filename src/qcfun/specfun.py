"""Gamma-family functions and the Gaussian hypergeometric series.

The hypergeometric function

    F(a,b;c;r) = sum_n (a,n)(b,n) / ((c,n) n!) r^n,    (a,0)=1, (a,n+1)=(a,n)(a+n)

is the kernel behind every ring modulus and distortion function in this
library.  Its boundary behaviour at r = 1 splits into three cases by the sign
of c - a - b; the balanced case c = a + b blows up logarithmically with the
constant

    R(a,b) = -psi(a) - psi(b) - 2*gamma_E,    R(1/2,1/2) = log 16,

and near r = 1 the balanced series is summed through the connection formula
whose leading term is (R(a,b) - log(1-r)) / B(a,b).  One loop,
:func:`_hyp_sums`, sums both series.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from collections import namedtuple
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

_SERIES_CAP = 4_500_000  # F(.5,.5;2;1-4.5e-6) needs 4.1e6 terms to a tail below 2^-55 of the sum
_EPS = 2.0 ** -55  # the series stops once a bound of its rest is below _EPS of each sum
_ZB_SWITCH = 0.95  # balanced series switches to the connection formula above this argument


class HypergeomParams(namedtuple("HypergeomParams", ("a", "b", "c"))):
    """Parameter triple (a, b, c) of F(a,b;c;r); a tuple, equal to the plain one.

    Requires a > 0, b > 0 and c not a non-positive integer (``_make`` and
    ``_replace`` check too).  Zero-balanced means c == a + b exactly.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float) -> "HypergeomParams":
        if not (a > 0 and math.isfinite(a)):
            raise DomainError(f"hypergeometric parameter a must be positive, got {a}")
        if not (b > 0 and math.isfinite(b)):
            raise DomainError(f"hypergeometric parameter b must be positive, got {b}")
        if not math.isfinite(c) or (c <= 0 and c == int(c)):
            raise DomainError(f"hypergeometric parameter c must avoid 0, -1, -2, ..., got {c}")
        return tuple.__new__(cls, (a, b, c))

    @classmethod
    def _make(cls, iterable) -> "HypergeomParams":
        # the namedtuple default skips __new__; route it (and _replace) through the checks
        return cls(*iterable)

    @property
    def zero_balanced(self) -> bool:
        return self.c == self.a + self.b


class BoundaryCase(Enum):
    A = "A"  # c > a + b: finite limit at 1
    B = "B"  # c = a + b: logarithmic blow-up
    C = "C"  # c < a + b: power blow-up


class AsymptoticClass(namedtuple("AsymptoticClass", ("case", "constant"))):
    """Boundary classification of F(a,b;c;r) as r -> 1 with its case constant.

    Case A: constant is the finite limit F(a,b;c;1).
    Case B: constant is R(a,b), governing B(a,b) F ~ R - log(1-r).
    Case C: constant is D = B(c, a+b-c)/B(a,b), governing F ~ D (1-r)^(c-a-b).
    """

    __slots__ = ()


def gamma_fn(x: float) -> float:
    """Gamma function on (0, 171].

    Relative error below 1e-15 (6.7e-16 measured against mpmath on 8000
    seeded x in [1e-300, 171]); arguments above 171, and below about
    5.6e-309 where Gamma(x) ~ 1/x, overflow and raise :class:`OverflowSignal`.
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
_PSI_TAIL = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0, -691.0 / 32760.0,
             1.0 / 12.0)


def digamma_fn(x: float) -> float:
    """Digamma psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    Absolute error within 1e-15 max(1, |psi(x)|) (5.6e-16 measured against
    mpmath on 8000 seeded x in [1e-300, 1e300] and about the root).  Upward
    recurrence psi(x+1) = psi(x) + 1/x to x >= 10, then the asymptotic
    expansion log x - 1/(2x) - sum B_{2k}/(2k x^{2k}); the recurrence terms,
    log x, -1/(2x) and the tail are added exactly with ``math.fsum``.  Below
    about 5.6e-309, where psi(x) ~ -1/x, it raises :class:`OverflowSignal`.
    """
    if not (x > 0 and math.isfinite(x)):
        raise DomainError(f"digamma_fn requires x > 0, got {x}")
    if 1.0 / x == math.inf:
        raise OverflowSignal(f"digamma_fn({x}) overflows double precision")
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


def _log_gamma_ratio(x: float, d: float) -> float:
    """log Gamma(x+d)/Gamma(x) for x > 0, d >= 0, with no lgamma-sized cancellation.

    For x >= 10, d log x + (x+d-1/2) log1p(d/x) - d + mu(x+d) - mu(x), mu the
    Stirling remainder 1/(12x) - 1/(360x^3) + ... (DiDonato & Morris, ACM
    TOMS 18, 1992, ``algdiv``); below 10 the lgamma difference.
    """
    if x < 10.0:
        return math.lgamma(x + d) - math.lgamma(x)

    def mu(y):
        s = 1.0 / (y * y)
        return (1.0 / 12.0 - s * (1.0 / 360.0 - s * (1.0 / 1260.0 - s / 1680.0))) / y

    return d * math.log(x) + (x + d - 0.5) * math.log1p(d / x) - d + (mu(x + d) - mu(x))


def beta_fn(a: float, b: float) -> float:
    """Euler beta B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b).

    Relative error within 8 eps max(1, |log B|, (a+b) log(a+b)), eps = 2^-52;
    the last term is rounding a + b (against mpmath on 4000 seeded pairs:
    1.2 eps of it for a + b <= 170, 3.0 eps max(1, |log B|) above).  Above
    170, B = Gamma(min)/(Gamma(a+b)/Gamma(max)) with the ratio from
    :func:`_log_gamma_ratio`.  A value beyond the double range, as where
    one argument is below about 5.6e-309, raises :class:`OverflowSignal`.
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"beta_fn requires finite positive arguments, got ({a}, {b})")
    lo, hi = sorted((a, b))
    try:
        if a + b <= 170.0:
            # the larger gamma over Gamma(a+b) first: Gamma(a)Gamma(b) overflows
            # where one argument is tiny, as at B(160, 1e-300) = 1e300
            return math.gamma(hi) / math.gamma(a + b) * math.gamma(lo)
        return math.exp(math.lgamma(lo) - _log_gamma_ratio(hi, lo))
    except OverflowError:
        raise OverflowSignal(f"beta_fn({a}, {b}) overflows double precision") from None


def _balanced_r0(a: float, b: float) -> float:
    """R(a,b) = 2 psi(1) - psi(a) - psi(b) for any a, b > 0; no (0,1) check, finite or OverflowSignal."""
    r0 = -digamma_fn(a) - digamma_fn(b) - 2.0 * EULER_GAMMA
    if math.isinf(r0):
        raise OverflowSignal(f"R({a}, {b}) overflows double precision")
    return r0


def ramanujan_R(a: float, b: float) -> float:
    """The balanced-case constant R(a,b) = -psi(a) - psi(b) - 2*gamma_E for a, b in (0,1)."""
    if not (0 < a < 1):
        raise DomainError(f"ramanujan_R requires a in (0,1), got {a}")
    if not (0 < b < 1):
        raise DomainError(f"ramanujan_R requires b in (0,1), got {b}")
    return _balanced_r0(a, b)


def _exact_ratio(p: float, q: float, r: float, s: float, t: float) -> float:
    """p q r / (s t) with no intermediate overflow or underflow; +-inf past the double range."""
    (fp, ep), (fq, eq), (fr, er), (fs, es), (ft, et) = map(math.frexp, (p, q, r, s, t))
    f, e = math.frexp(fp * fq * fr / (fs * ft))
    e += ep + eq + er - es - et
    return math.ldexp(f, e) if e <= 1024 else math.copysign(math.inf, f)


def _refuse_past_cap(a: float, b: float, c: float, z: float, n0: int, log_t0: float, s: float) -> None:
    """Raise where :func:`_hyp_sums` cannot stop from term n0 on, within N = _SERIES_CAP - n0.

    From n0 (0, or the first n with c + n > 0) the sum is t0 (s + sum_k u_k),
    u_k = (a',k)(b',k)/((c',k)(d,k)) z^k, with a', b', c' = a, b, c shifted by
    n0 and d = n0 + 1.  u_(k+1) >= u_k while (1-z) k^2 + (c'+d-z(a'+b')) k +
    c'd-za'b' <= 0: the largest term is u_0 = 1 or u_p, p one past the larger
    root, and no stop comes before p.  Past it u_k >= u_N, and for n0 = 0
    (k+1) u_(k+1) >= N u_N, so none comes before N while u_N > _EPS S G/(N z),
    with S = min(s + N u_p, F(a,b;c;1)) >= |S_k|/t0 and G = N(1-z) + |c'-a'-b'|
    + |(c'-a')(c'-b')|/(1+c') >= k - x.
    """
    cap, d = float(_SERIES_CAP - n0), n0 + 1.0
    a1, b1, c1 = a + n0, b + n0, c + n0
    g, h, k = 1.0 - z, c1 + d - z * (a1 + b1), c1 * d - z * a1 * b1
    root = math.sqrt(max(h * h - 4.0 * g * k, 0.0))
    root = -2.0 * k / (h + root) if h > 0.0 else (root - h) / (2.0 * g)
    p = 0.0 if not root >= 0.0 else cap if not root < cap else math.floor(root) + 1.0

    lgr = _log_gamma_ratio

    def log_term(n):
        return lgr(a1, n) + lgr(b1, n) - lgr(c1, n) - lgr(d, n) + n * math.log(z)

    peak = max(log_term(p), 0.0)
    if log_t0 + peak > 709.78:  # log of the largest double
        raise OverflowSignal(f"F({a}, {b}; {c}; {z}): a series term exceeds double precision")
    log_s = peak + math.log(cap + s * math.exp(-peak))
    if c > a + b:
        log_s = min(log_s, lgr(c - a, a) - lgr(c - a - b, a))
    spread = cap * g + abs(c1 - a1 - b1) + abs((c1 - a1) * (c1 - b1)) / (1.0 + c1)
    if p == cap or log_term(cap) > log_s + math.log(_EPS * spread / (cap * z)):
        raise ConvergenceError(f"F({a}, {b}; {c}; {z}) needs more than {_SERIES_CAP} series terms")


def _hyp_sums(a: float, b: float, c: float, z: float, r0: float | None = None,
              log_z: float = 0.0) -> tuple[float, float, int]:
    """(S0, S1, n): F(a,b;c;z) and, given r0 = R(a,b), the connection sum, in one pass.

    Kahan-compensated sums over t_n = (a,n)(b,n)/((c,n) n!) z^n; n counts the
    terms.  With r0 (c = 1, z = w <= 1/2), S1 = sum t_n (R_n - log w), R_n =
    2 psi(n+1) - psi(a+n) - psi(b+n), is B(a,b) F(a,b;a+b;1-w) (DLMF 15.8.10;
    ``log_z`` stays exact where w underflows), and a weight R_n - log w < 0
    (a or b above about 1) would cancel: it raises :class:`ConvergenceError`.
    Once rho = t_(n+1)/t_n < 1, the rest after t_n is at most t_n q/(1-q),
    q = max(rho, z), and for c > 0 also t_n x/(n-x) once x = (n+1) rho < n,
    as k t_k then falls by at least (n-x) t_k a step (the bound near z = 1
    where c > a + b).  The pass stops when either is below _EPS S0 and the
    first, times |R_(n+1)| - log w, below _EPS S1.  With a, b, |c| in
    [1e-100, 1e100] no quotient or product inside rho leaves the normal
    range unless rho does; outside, rho comes from :func:`_exact_ratio`.  A
    sum beyond the double range raises :class:`OverflowSignal`.

    Term budget: for c > 0, rho_k < z e^((a+b)/k) <= sqrt z from k = 2(a+b)/L
    on, L = log(1/z), so S0 stops within U = (2(a+b) - 2 log(_EPS (1 - sqrt z)))/L
    + 2 terms.  Where U exceeds _SERIES_CAP, :func:`_refuse_past_cap` runs
    before the loop; for c < 0 it runs once c + n > 0.  Inputs between its
    lower bound and U, as F(1, 1.662e7; 1.66e7; .999), still run to the cap.
    """
    eps, weighted, signed = _EPS, r0 is not None, c <= 0.0
    if not signed and (z > 0.5 or a + b > 1e6):  # else U <= 2.9 (a+b) + 120 < _SERIES_CAP
        if not z < 1.0:
            raise ConvergenceError(f"F({a}, {b}; {c}; {z}): the series does not converge at 1")
        if 2.0 * (a + b - math.log(eps * (1.0 - math.sqrt(z)))) > (2.0 - _SERIES_CAP) * math.log(z):
            _refuse_past_cap(a, b, c, z, 0, 0.0, 0.0)
    exact = not (1e-100 < a < 1e100 and 1e-100 < b < 1e100 and 1e-200 < c * c < 1e200)
    careful = signed or exact  # every step goes through the stop test
    r_n, term, s0, s1, e0, e1 = r0, 1.0, 0.0, 0.0, 0.0, 0.0
    for n in range(_SERIES_CAP):
        t = s0 + (y := term - e0)
        s0, e0 = t, (t - s0) - y
        m = n + 1.0
        if weighted:
            y = term * (r_n - log_z)
            if y < 0.0 and y < -eps * s1:
                raise ConvergenceError(f"zero-balanced connection series at ({a}, {b}) has a "
                                       "negative term R_n - log w and cancels")
            t = s1 + (y := y - e1)
            s1, e1 = t, (t - s1) - y
            r_n += 2.0 / m - 1.0 / (a + n) - 1.0 / (b + n)
        rho = (a + n) / m * ((b + n) / (c + n)) * z
        if careful or term * rho <= eps * s0:  # t_(n+1) <= eps S0 is needed for a stop
            if term == 0.0 or not math.isfinite(s0):  # 0 from here on, or past the double range
                break
            if exact:
                rho = _exact_ratio(a + n, b + n, z, c + n, m)
            q = rho if rho > z else z
            tol = eps * (1.0 - q)
            if signed:  # the terms keep one sign from n = -c on
                if n + c > 0.0 >= c + n - 1.0:
                    _refuse_past_cap(a, b, c, z, n, math.log(abs(term)), abs(s0 / term))
                done = abs(term) * q <= tol * abs(s0) and n + c > 0.0
            else:
                x = m * rho
                done = term * q <= tol * s0 or x < n and term * x <= eps * (n - x) * s0
            if done and (not weighted or term * q * (abs(r_n) - log_z) <= tol * s1):
                break
        term *= rho
    else:
        raise ConvergenceError(f"F({a}, {b}; {c}; {z}) did not converge within {_SERIES_CAP} terms")
    s0, s1 = s0 - e0, s1 - e1
    if not math.isfinite(s0 + s1):
        raise OverflowSignal(f"F({a}, {b}; {c}; {z}) exceeds double precision")
    return s0, s1, n + 1


def gauss_F_near_one(a: float, b: float, w: float) -> float:
    """Zero-balanced F(a,b;a+b;1-w) for a, b > 0 and w in (0, 1/2], from the complement directly.

    S1 / B(a,b) of :func:`_hyp_sums`, whose n = 0 term is the R(a,b) - log w
    asymptotic; log w stays exact when 1-r is known to more digits than r.
    Where S1 has a negative term (a, b above about 1) or overflows (R(a,b)
    at subnormal a), the direct series at 1 - w runs instead; where that
    fails too, the :class:`ConvergenceError` names both.  B(a,b), or S1 / B,
    beyond the double range raises :class:`OverflowSignal`, as does a + b
    (then min(a, b) > 1e291 and F > e^(min(a, b)/4)).
    """
    if not (0.0 < w <= 0.5 and a > 0.0 and b > 0.0):
        raise DomainError(f"gauss_F_near_one requires a, b > 0 and w in (0, 0.5], got ({a}, {b}, {w})")
    if not math.isfinite(a + b):
        raise OverflowSignal(f"gauss_F_near_one({a}, {b}, {w}): a + b exceeds double precision")
    try:
        s1 = _hyp_sums(a, b, 1.0, w, _balanced_r0(a, b), math.log(w))[1]
    except (ConvergenceError, OverflowSignal) as connection:
        try:
            return _hyp_sums(a, b, a + b, 1.0 - w)[0]
        except (ConvergenceError, OverflowSignal) as direct:
            raise ConvergenceError(f"{connection}; the direct series at 1 - w: {direct}") from None
    beta = beta_fn(a, b)
    if not (beta > 0.0 and math.isfinite(s1 / beta)):
        raise OverflowSignal(f"gauss_F_near_one({a}, {b}, {w}): the connection series or "
                             "B(a,b) leaves double precision")
    return s1 / beta


def gauss_F(p: HypergeomParams, r: float) -> float:
    """Gauss hypergeometric F(a,b;c;r) on [0,1).

    Direct series (:func:`_hyp_sums`); zero-balanced arguments beyond 0.95
    go through :func:`gauss_F_near_one`.  Relative error within
    2 eps max(1, 1/(1-r)), eps = 2^-52, from rounding in the term products
    (1.07 measured on 300 seeded (a, b, c, r), a, b in [.1, 4],
    |c - a - b| in [.1, 3], 1 - r down to 3e-5).  A series that provably
    needs more than _SERIES_CAP terms raises :class:`ConvergenceError` before
    it runs (:func:`_hyp_sums`), and a value or term beyond the double range
    :class:`OverflowSignal`.
    """
    if not (0.0 <= r < 1.0):
        raise DomainError(f"gauss_F requires r in [0,1), got {r}")
    if r == 0.0:
        return 1.0
    if p.zero_balanced and r > _ZB_SWITCH:
        return gauss_F_near_one(p.a, p.b, 1.0 - r)
    return _hyp_sums(p.a, p.b, p.c, r)[0]


def hypergeom_boundary(p: HypergeomParams) -> AsymptoticClass:
    """Classify the r -> 1 behaviour of F(a,b;c;r) and return the case constant.

    Requires a, b, c > 0.  Case A's limit F(a,b;c;1) is evaluated by the Gauss
    formula Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)), for c above 171 as
    exp of two :func:`_log_gamma_ratio` values.  A gamma ratio, or R(a,b),
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
                # Gamma(c)/Gamma(c-m) over Gamma(d+m)/Gamma(d), m = min(a, b); both ratios
                # overflow (inf - inf) only for a, b above about 1e305, where F(a,b;c;1) does too
                m = min(p.a, p.b)
                const = math.exp(_log_gamma_ratio(p.c - m, m) - _log_gamma_ratio(d, m))
                if math.isnan(const):
                    raise OverflowError
            return AsymptoticClass(BoundaryCase.A, const)
        return AsymptoticClass(BoundaryCase.C, beta_fn(p.c, -d) / beta_fn(p.a, p.b))
    except (OverflowError, ZeroDivisionError):
        raise OverflowSignal(f"boundary constant of F{(p.a, p.b, p.c)}: a gamma ratio "
                             "leaves double precision") from None
