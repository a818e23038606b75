"""Accuracy contracts: each row one claim the tests check, each reference written once.

A row draws its arguments from ``sample(random.Random(seed))``, an iterable
of argument tuples, and holds every ``call(*args)`` to within ``bound(want,
*args)`` of ``want = reference(*args)``, the bound an absolute distance.  A
call may return a tuple (a UnitRadius, or a value and its F factor); then
reference and bound are tuples too, checked entry by entry.  ``errors``, an
exception class or tuple, names the typed errors a call may raise in place of
a value; a round trip lets only its inverse raise them (:func:`round_trip`).

A reference is mpmath at ``dps`` digits, or, with ``dps`` None, a general
algorithm the library keeps as an oracle (the double AGM quotient, Newton on
the mu_a series, the series pass) or the input itself for a residual.  Rows
that need mpmath skip without it.  ``check(*names)`` runs rows;
``contract_test`` and ``contract_cases`` make the tests that do, and record
the rows they run in ``WIRED``, so a test can see that every row is run.
"""

import contextlib
import functools
import itertools
import math
import random
import sys
from collections import namedtuple
from fractions import Fraction

import pytest

from qcfun import (
    BoundId,
    ConvergenceError,
    HypergeomParams,
    MeanKind,
    OverflowSignal,
    QcfunError,
    UnitRadius,
    agm,
    agm_product_p,
    beta_fn,
    bound_value,
    digamma_fn,
    ellint_K,
    ellint_Kprime,
    eta_K2,
    gamma2_inv,
    gamma_fn,
    gauss_F,
    grotzsch_gamma2,
    hypergeom_boundary,
    lambda_of_K,
    linearized_g,
    mean_mod,
    mu,
    mu_a,
    mu_a_inv,
    mu_inv,
    phi_K,
    phi_aK,
    rho_disk,
    schottky_psi,
    tau2_inv,
    teichmuller_tau2,
)
from qcfun import modulus, specfun
from qcfun.distortion import _logit_conjugate
from qcfun.means import ellint_K_from_comp
from qcfun.identities import R_GRID, _SLOPE_ERR, _artanh_ratio, experiment
from qcfun.specfun import gauss_F_near_one

try:
    import mpmath as mp
except ImportError:
    mp = None

EPS = 2.0 ** -52

Row = namedtuple("Row", "seed sample call reference bound dps errors", defaults=(50, ()))


def check(*names):
    """Run the named rows: every sampled call within its bound of its reference, or an allowed error."""
    for name in names:
        row = ROWS[name]
        if row.dps is not None and mp is None:
            pytest.skip(f"{name} needs mpmath")
        with mp.workdps(row.dps) if row.dps is not None else contextlib.nullcontext():
            for args in row.sample(random.Random(row.seed)):
                try:
                    got = row.call(*args)
                except row.errors:
                    continue
                want = row.reference(*args)
                entries = (v if isinstance(v, tuple) else (v,) for v in (got, want, row.bound(want, *args)))
                for g, w, b in zip(*entries, strict=True):
                    assert abs(g - w) <= b, (name, args, g, w, b)


WIRED = set()


def contract_test(*names):
    """A test, as a function or a method, that runs the named rows."""
    WIRED.update(names)
    return lambda *_: check(*names)


def contract_cases(cases):
    """A test parametrized over ``cases``, a dict from each case's id to the rows it runs."""
    WIRED.update(itertools.chain(*cases.values()))

    def run(rows):  # a named function: pytest's marks leave a lambda unmarked
        check(*rows)
    return pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))(run)


def ulps(n):
    return lambda want, *args: n * math.ulp(float(want))


def rel(tol):
    """tol relative to the reference, entry by entry for a tuple of references."""
    return lambda want, *args: tuple(tol * abs(w) for w in want) if isinstance(want, tuple) else tol * abs(want)


def cond(n, kappa):
    """n eps kappa(*args) relative to the reference; kappa gives a tuple where the reference is one."""
    def bound(want, *args):
        k = kappa(*args)
        if isinstance(want, tuple):
            return tuple(n * EPS * c * abs(w) for c, w in zip(k, want))
        return n * EPS * k * abs(want)
    return bound


def residual(tol):
    """tol max(1, y) for a residual against the modulus y it was solved for."""
    return lambda want, *args: tol * max(1.0, want)


def identity(*args):
    return args[-1]


def refusal_as_zero(call):
    """call, with an OverflowSignal read as 0.0, which no call so wrapped returns as a value."""
    def run(*args):
        try:
            return call(*args)
        except OverflowSignal:
            return 0.0
    return run


def normal_or_zero(want):
    """want, or 0.0 where it lies outside the normal doubles [2^-1022, 2^1024): there a
    relative bound is 0, and only a refusal read by :func:`refusal_as_zero` meets it."""
    return want if mp.ldexp(1, -1022) <= abs(want) < mp.ldexp(1, 1024) else 0.0


def radius(x, complement=False):
    """The UnitRadius with x exact as r, or as r' where ``complement``."""
    return UnitRadius.from_comp(x) if complement else UnitRadius.from_r(x)


def round_trip(forward, *args):
    """forward at the radius an inverse returned, the last of args: a UnitRadius, which forward
    must take without error, so that a row's allowed errors excuse the inverse alone."""
    assert isinstance(args[-1], UnitRadius), args
    try:
        return forward(*args)
    except QcfunError as exc:
        raise AssertionError((forward.__name__, args)) from exc


def draws(rng, lo, hi, n, core=None):
    """n values in [lo, hi], in turn log-uniform (uniform from lo = 0), uniform and near hi;
    with ``core`` = (c0, c1), two in three are log-uniform over the core instead."""
    out = []
    for i in range(n):
        if core is not None and i % 3:
            x = math.exp(rng.uniform(math.log(core[0]), math.log(core[1])))
        elif i % 3 == 0:
            x = math.exp(rng.uniform(math.log(lo), math.log(hi))) if lo > 0 else rng.uniform(lo, hi)
        elif i % 3 == 1:
            x = rng.uniform(lo, hi)
        else:
            x = hi - (hi - lo) * 10.0 ** rng.uniform(-17.0, 0.0)
        out.append(min(max(x, lo), hi))
    return out


def log_uniform(n, *ranges):
    """n tuples, each entry log-uniform over its (lo, hi), drawn in order."""
    return lambda rng: [tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for lo, hi in ranges)
                        for _ in range(n)]


def after(*samplers):
    """The last sampler's draws, taken after the others' from the same generator."""
    return lambda rng: [list(sample(rng)) for sample in samplers][-1]


def box(n, *axes, extra=()):
    """n draws over the product of the axes, every corner, and the extra points; an axis is
    (lo, hi) or (lo, hi, core) for :func:`draws`, or a list of values to choose from."""
    def sample(rng):
        cols = [[rng.choice(ax) for _ in range(n)] if isinstance(ax, list) else draws(rng, *ax[:2], n, *ax[2:])
                for ax in axes]
        ends = itertools.product(*(ax if isinstance(ax, list) else ax[:2] for ax in axes))
        return list(zip(*cols)) + list(ends) + list(extra)
    return sample


def pair_mp(x, complement=False):
    """(r, r') at working precision, x exact as r or as r'; the other channel sqrt((1-x)(1+x))."""
    x = mp.mpf(x)
    other = mp.sqrt((1 - x) * (1 + x))
    return (other, x) if complement else (x, other)


def k_agm(comp, agm=agm, pi=math.pi):
    """K = pi / (2 AG(1, r')) from the complement alone; in doubles, or with mp.agm and mp.pi."""
    return pi / (2.0 * agm(1.0, comp))


def mu_agm(r, comp, agm=agm, pi=math.pi):
    """The AGM quotient mu = (pi/2) AG(1, r') / AG(1, r); in doubles, or with mp.agm and mp.pi."""
    return pi / 2.0 * agm(1.0, comp) / agm(1.0, r)


def k_mp(comp):
    return k_agm(comp, mp.agm, mp.pi)


def mu_mp(x, complement=False):
    """mu at x exact as r, or as r'; held exactly, either channel keeps its digits at any dps."""
    return mu_agm(*pair_mp(x, complement), mp.agm, mp.pi)


def mu_sq_mp(r_sq, comp_sq):
    """mu at r^2 = r_sq and r'^2 = comp_sq, each exact."""
    return mu_agm(mp.sqrt(r_sq), mp.sqrt(comp_sq), mp.agm, mp.pi)


def mu_inv_mp(y):
    """(r, r') with mu(r) = y, by theta functions at the nome of the larger of y and its dual."""
    if y < mp.pi / 2:
        comp, r = mu_inv_mp(mp.pi ** 2 / (4 * y))
        return r, comp
    q = mp.exp(-2 * y)
    t3 = mp.jtheta(3, 0, q)
    return (mp.jtheta(2, 0, q) / t3) ** 2, (mp.jtheta(4, 0, q) / t3) ** 2


def eta_of_modulus_mp(y):
    """(r/r')^2 at the radius with mu(r) = y."""
    r, comp = mu_inv_mp(y)
    return (r / comp) ** 2


def mu_inv_bisect_mp(y):
    """(r, r') with mu(r) = y, by bisection of the AGM quotient in the log of the smaller channel."""
    complement = y < mp.pi / 2  # solve for r', in which mu increases
    lo, hi = mp.mpf("1e-45"), mp.sqrt(mp.mpf(0.5))
    for _ in range(220):
        mid = mp.sqrt(lo * hi)
        if (mu_mp(mid, complement) > y) != complement:
            lo = mid
        else:
            hi = mid
    return pair_mp(mp.sqrt(lo * hi), complement)


def mu_a_mp(a, r_sq, comp_sq):
    """(mu_a, F(a,1-a;1;r^2)) at r^2 = r_sq, r'^2 = comp_sq, each exact: the hyp2f1 quotient."""
    a = mp.mpf(a)
    f = mp.hyp2f1(a, 1 - a, 1, r_sq)
    return mp.pi / (2 * mp.sin(mp.pi * a)) * mp.hyp2f1(a, 1 - a, 1, comp_sq) / f, f


def squares_mp(x):
    """(x^2, 1 - x^2) for an exact x."""
    x = mp.mpf(x)
    return x * x, (1 - x) * (1 + x)


def gamma_ratio_mp(num, den):
    """prod Gamma(num) / prod Gamma(den) from log-gammas, the arguments as given."""
    return +mp.exp(sum(mp.loggamma(x) for x in num) - sum(mp.loggamma(x) for x in den))


def signature_mp(a):
    """The exact signature 1/n of a double a near it."""
    return 1 / mp.mpf(round(1 / a))


def series_oracle(a, u):
    """(mu_a, F) at the pair u by the series pass at its smaller channel, the oracle of every row.

    The duality for r > r' is applied here, with this module's own y_sym and
    R, so the oracle does not share the forward duality it checks."""
    y_sym = math.pi / (2.0 * math.sin(math.pi * a))
    value, f = modulus._series_parts(a, min(u), y_sym, specfun._balanced_r0(a, 1.0 - a))
    if u.r <= u.comp:
        return value, f
    return y_sym * (y_sym / value), value * f / y_sym


def newton_oracle(a, y):
    """The radius with mu_a(r) = y by Newton on the series alone, the oracle of every inverse map.

    Below y_sym Newton solves at the dual target and the channels are
    exchanged here, with this module's own y_sym and R."""
    y_sym = math.pi / (2.0 * math.sin(math.pi * a))
    dual = y < y_sym
    r, comp = modulus._mu_a_newton(a, y_sym * y_sym / y if dual else y, y_sym, specfun._balanced_r0(a, 1.0 - a))
    return UnitRadius(comp, r) if dual else UnitRadius(r, comp)


def _nome_draws(rng):
    # log-spread down to 5e-324 and uniform, and the worst r of a 12000-value sweep,
    # where the larger channel's pi^2/(4 m) is 2.51 ulp off
    xs = [math.exp(rng.uniform(math.log(5e-324), 0.0)) for _ in range(150)]
    return [(x,) for x in xs + [rng.uniform(0.0, 1.0) for _ in range(150)] + [0.9546243998171448]]


def _nome_grid(rng):
    return [(10.0 ** (-323.0 + 323.0 * i / 150),) for i in range(150)] + [(i / 101,) for i in range(1, 101)]


def _agm_tail_pairs(lo, hi):
    # pairs (s, s (1 - g)) with g in [lo, hi] and s from e^-5 to e^5
    def sample(rng):
        for _ in range(200):
            g = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            s = math.exp(rng.uniform(-5.0, 5.0))
            yield s, s * (1.0 - g)
    return sample


def _gauss_f(a, b, c, r):
    return gauss_F(HypergeomParams(a, b, c), r)


def _hyp2f1_mp(a, b, c, r):
    return mp.hyp2f1(a, b, c, r)


_GAUSS_F_CLAIM = cond(2, lambda a, b, c, r: max(1, 1 / (1 - r)))  # gauss_F's 2 eps max(1, 1/(1-r)) relative


def _gauss_f_draws(rng):
    for _ in range(40):
        a, b = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
        c = a + b + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        r = 1.0 - math.exp(rng.uniform(math.log(3e-5), math.log(0.1))) if rng.random() < 0.8 else rng.uniform(0.0, 0.9)
        yield a, b, c, r


def _gauss_f_tail_draws(rng):
    for _ in range(8):
        a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        c = a + b + rng.uniform(1.5, 3.0)
        yield from ((a, b, c, r) for r in (0.99, 0.999, 0.9999))


def _beta_pairs(rng):
    # the overflow and cancellation points, then the gamma route below a + b = 170
    yield from [(1e3, 0.5), (1e10, 0.5), (1e15, 0.5), (1e17, 2.0), (1e308, 0.5), (160.0, 1e-300)]
    for _ in range(150):
        a = rng.uniform(1e-3, 169.0)
        yield a, rng.uniform(1e-3, 170.0 - a)
        yield from log_uniform(1, (85.0, 1e300), (1e-3, 1e300))(rng)  # the ratio route


def _beta_mp(a, b):
    with mp.workdps(40 + int(math.log10(max(a, b, 10.0)))):
        return normal_or_zero(gamma_ratio_mp((a, b), (mp.mpf(a) + b,)))


def _beta_bound(want, a, b):
    # 8 eps max(1, |log B|, (a+b) log(a+b)); 0 where B is not a normal double and beta_fn must refuse
    return 8 * EPS * max(1, abs(float(mp.log(want))), (a + b) * math.log(a + b)) * want if want else 0.0


def _digamma_bound(want, y):
    return 1e-15 * max(1, abs(want))


def _stirling_draws(d):
    # dyadic a, b make c - a - b = d exact
    def sample(rng):
        for _ in range(40):
            a, b = rng.randint(32, 128) / 64, rng.randint(170 * 64, 400 * 64) / 64
            yield a, b, a + b + d
    return sample


def _boundary_below_171(rng):
    for _ in range(300):
        c = rng.uniform(1.0, 171.0)
        d = rng.uniform(0.05, c - 0.1)
        a = rng.uniform(0.025, c - d - 0.025)
        yield a, c - d - a, c


def _case_a_mp(a, b, c):
    # Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), the differences as the library rounds them
    return gamma_ratio_mp((c, c - (a + b)), (c - a, c - b))


_boundary_constant = refusal_as_zero(lambda a, b, c: hypergeom_boundary(HypergeomParams(a, b, c)).constant)


def _lattice(x):
    """x on the lattice of 2^-20, at least 2^-20: sums and differences of a few such values below 2^32 are exact."""
    return max(round(x * 2 ** 20), 1) / 2 ** 20


def _boundary_draws(rng):
    # c above a + b (case A), at it (B) and below it (C), in turn, with a, b log-spread over
    # [1e-3, 1e5] on the lattice, so that c - a, c - b and c - a - b are exact; case B needs
    # no exact difference and spreads a, b over [1e-300, 1e300]
    for i in range(300):
        (a, b, d), = log_uniform(1, *[(1e-3, 1e5)] * 3)(rng)
        a, b = _lattice(a), _lattice(b)
        if i % 3 == 0:
            yield a, b, a + b + _lattice(d)
        elif i % 3 == 1:
            (a, b), = log_uniform(1, (1e-300, 1e300), (1e-300, 1e300))(rng)
            yield a, b, a + b
        else:
            yield a, b, _lattice((a + b) * rng.random())


def _boundary_mp(a, b, c):
    """The case constant: Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)) above c = a + b,
    R(a,b) = -psi(a) - psi(b) - 2 gamma at it, Gamma(c) Gamma(a+b-c) / (Gamma(a) Gamma(b)) below;
    above and below, 0.0 (a refusal) outside the normal doubles."""
    if c == a + b:  # the case as the library tells it, in doubles
        return -mp.digamma(a) - mp.digamma(b) - 2 * mp.euler
    a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
    num, den = ((c, c - a - b), (c - a, c - b)) if c > a + b else ((c, a + b - c), (a, b))
    return normal_or_zero(gamma_ratio_mp(num, den))


def _boundary_bound(want, a, b, c):
    # B: 4 eps (1 + |psi(a)| + |psi(b)|) absolute, as R vanishes at a = b = 1; A and C: 32 eps
    # max(1, m log x) relative, m = |max(p, q) - max(s, t)| the shift of Gamma(p)Gamma(q) /
    # (Gamma(s)Gamma(t)) (min(a,b) in A) and x the largest argument (c in A)
    if c == a + b:
        return 4 * EPS * (1 + abs(mp.digamma(a)) + abs(mp.digamma(b)))
    p, s = (c, max(c - a, c - b)) if c > a + b else (max(c, a + b - c), max(a, b))
    return 32 * EPS * max(1, abs(p - s) * math.log(max(p, s))) * want


def around(x, deltas=(1e-9, 1e-5, 1e-2), ulps=4):
    """1 to ``ulps`` ulp either side of x, and x (1 -+ delta), in increasing order."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return sorted(set(below + above + [x * (1.0 + d) for d in deltas] + [x * (1.0 - d) for d in deltas]))


def _beta_seam(rng):
    # a + b at the seams of a + b = 170, a on the 2^-10 lattice, so that b = s - a is exact
    for s in around(170.0, (1e-6,)):
        for _ in range(5):
            a = rng.randint(1, 169 * 2 ** 10) / 2 ** 10
            assert a + (s - a) == s
            yield a, s - a


def _boundary_seam(rng):
    # case A with c at the seams of c = 171, the gamma route's end
    for c in around(171.0, (1e-6,)):
        for _ in range(5):
            a, b = (_lattice(x) for x in log_uniform(1, (1e-3, 80.0), (1e-3, 80.0))(rng)[0])
            yield a, b, c


def _boundary_seam_c(rng):
    # case C with the largest of c, a+b-c, a, b at the seams of 171: c, then a, then a+b-c; c
    # has bits down to 2^-45, and u, v in [44, 80] on the 2^-20 lattice keep a + b below 256, so
    # that every sum here is exact
    for x in around(171.0, (1e-6,)):
        for _ in range(2):
            u, v = sorted(_lattice(rng.uniform(44.0, 80.0)) for _ in range(2))
            for a, b, c in ((x - u, x - v, x), (x, u, v), (x + u - v, v, u)):
                assert max(a, b, c, a + b - c) == x and Fraction(a) + Fraction(b) - Fraction(c) == a + b - c
                yield a, b, c


def _stirling_seam(rng):
    # case A with c above 171 and d = c - a - b at the seams of d = 10, where the Stirling
    # remainder of Gamma(d+m)/Gamma(d) starts; c in (171, 256) is a multiple of ulp(c) = 2^-45,
    # 16 ulp(10), and so is d: d steps by it (the ulps of 10 are for _log_gamma_ratio itself)
    step = 2.0 ** -45
    for d in (*(10.0 + k * step for k in range(-4, 5)), *(round(10.0 * (1 + e) / step) * step for e in (-1e-6, 1e-6))):
        for _ in range(5):
            a, b = _lattice(rng.uniform(1e-3, 40.0)), _lattice(rng.uniform(165.0, 200.0))
            assert (a + b + d) - (a + b) == d
            yield a, b, a + b + d


def _balanced_seam(rng):
    # balanced F at _ZB_SWITCH = 0.95, where the direct series hands over to the connection
    # formula; a, b on the lattice, so that c = a + b is exact
    for r in around(0.95, (1e-6,)):
        for _ in range(5):
            a, b = _lattice(rng.uniform(0.1, 4.0)), _lattice(rng.uniform(0.1, 4.0))
            yield a, b, a + b, r


def _exact_box_seam(edge):
    # one of a, b, c at an edge of _hyp_sums' exact-ratio box (c through c^2 at 1e-200 or 1e200),
    # the others inside it; at 1e100 the partner of a or c is 0.999 of it, so that F stays finite
    def sample(rng):
        for x in around(edge, (1e-6,)):
            for i in range(3):
                u, v, y = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0), 0.999 * x
                abc = ((x, u, v), (u, x, v), (u, v, x)) if edge < 1.0 else ((x, u, y), (u, x, y), (y, u, x))
                yield (*abc[i], rng.uniform(0.05, 0.95))
    return sample


def _hyp_series_mp(a, b, c, r):
    """F(a,b;c;r) for 0 <= r < 1 by the series at working precision, stopped once the term
    ratio is below 1 and a term below eps of the sum (mp.hyp2f1 does not converge at a = 1e100)."""
    a, b, c, r = map(mp.mpf, (a, b, c, r))
    total, term, n = mp.mpf(1), mp.mpf(1), 0
    while True:
        rho = (a + n) * (b + n) / ((c + n) * (n + 1)) * r
        term *= rho
        total += term
        n += 1
        if rho < 1 and abs(term) < mp.eps * abs(total):
            return total


def _log_gamma_ratio_seam(rng):
    return [(x, _lattice(rng.uniform(1e-3, 100.0))) for x in around(10.0, (1e-6,)) for _ in range(5)]


# signature -> the docstrings' figures on the classical route: mu_a, F where r <= r' and
# where r > r', and the inverse's residual over max(1, y) on its y range
CLASSICAL_FIGURES = {
    0.5: (3.5e-16, 2e-16, 4.5e-16, 5e-16, (0.0035, 709.7)),
    0.25: (4e-16, 3.5e-16, 6e-16, 5e-16, (0.007, 709.7)),
    1.0 / 6.0: (4e-16, 3.5e-16, 5e-16, 8e-16, (0.0139, 711.4)),
    1.0 / 3.0: (4.5e-16, 5.5e-16, 6e-16, 5e-16, (0.0047, 710.0)),
}
SIGNATURE_NAMES = {"half": 0.5, "quarter": 0.25, "sixth": 1.0 / 6.0, "third": 1.0 / 3.0}
CLOSED_FORM_SIGNATURES = (0.5, 0.25, 1.0 / 3.0, 1.0 / 6.0)


def _classical_draws(a):
    # x log-spread and uniform, each as r and as r'
    return lambda rng: [(a, x, c) for x in (10.0 ** rng.uniform(-12.0, 0.0) if rng.random() < 0.5
                                            else rng.uniform(1e-12, 1.0 - 1e-12) for _ in range(150))
                        for c in (False, True)]


def _classical_mp(a, x, complement):
    # each reference taken at the channel held exactly, the smaller
    u = radius(x, complement)
    s_sq, big_sq = squares_mp(min(u))
    return mu_a_mp(signature_mp(a), s_sq, big_sq) if u.r <= u.comp else mu_a_mp(signature_mp(a), big_sq, s_sq)


def _classical_bound(want, a, x, complement):
    mu_tol, f_le_tol, f_gt_tol = CLASSICAL_FIGURES[a][:3]
    u = radius(x, complement)
    return mu_tol * want[0], (f_le_tol if u.r <= u.comp else f_gt_tol) * want[1]


_experiment = functools.lru_cache(experiment)


def _artanh_points(rng):
    # the experiment's R grid and 30 seeded radii per K
    for K in (1.5, 3.0, 7.0, 20.0, 100.0):
        yield from ((K, r, i) for i, r in enumerate(R_GRID))
        yield from [(K, rng.uniform(1e-3, 0.999), None) for _ in range(30)]


def _artanh_ratio_mp(K, r, i):
    """artanh(phi_K(r)) / artanh(r^(1/K)), phi_K by theta functions on the well-conditioned side."""
    s, comp = mu_inv_mp(mu_mp(r) / K)
    return (mp.log1p(s) - mp.log(comp)) / mp.atanh(mp.exp(mp.log(r) / K))


def _linearized_slope_mp(a, K, i):
    """g'(x) of g = p o phi^a_K o p^-1, p = logit, by a central difference of the mpmath map.

    The closed forms run at the exact signature, the series at the double a."""
    sig = signature_mp(a) if a != 0.1 else mp.mpf(a)
    x = _experiment("linearize_phi_a", a=a, K=K)["x"][i]
    g0 = _logit_conjugate(lambda u: phi_aK(a, K, u), x)

    def mu_logit(s):
        # mu_a at r = 1/(1+e^-s), with r^2 and r'^2 formed from e^-s
        e = mp.exp(-s)
        return mu_a_mp(sig, 1 / (1 + e) ** 2, e * (2 + e) / (1 + e) ** 2)[0]

    def g(t):
        target = mu_logit(t) / K
        return mp.findroot(lambda s: mu_logit(s) - target, mp.mpf(g0))

    h = mp.mpf("1e-20")
    return (g(x + h) - g(x - h)) / (2 * h)


def _linearize_points(rng):
    # both ends of each (a, K)'s x grid and two seeded interior points
    for a, K in ((1 / 3, 2.0), (0.25, 3.0), (1 / 6, 1.5), (0.1, 5.0)):
        last = len(_experiment("linearize_phi_a", a=a, K=K)["x"]) - 1
        yield from ((a, K, i) for i in [0, last] + rng.sample(range(1, last), 2))


def _phi_draws(n):
    # K log-spread over [0.02, 50], x over [1e-12, 0.5], as r or as r'
    def sample(rng):
        for _ in range(n):
            (K, x), = log_uniform(1, (0.02, 50.0), (1e-12, 0.5))(rng)
            yield K, x, rng.random() < 0.5
    return sample


def _phi_kappa(K, x, complement):
    # max(1, y) for the radius and max(1, y*) for the complement, y = mu(r)/K and y* = pi^2/(4y)
    y = mu_mp(x, complement) / K
    return max(1, y), max(1, mp.pi ** 2 / (4 * y))


@functools.lru_cache(maxsize=8)
def _mu_a_slope_mp(sig, x):
    """(mu_a(x), (1 - x^2) F(x^2)^2) at an exact double x in (0,1): d log x / d mu_a is minus the second."""
    if x < 1e-30:  # the asymptote R/2 - log x and F = 1, off by O(x^2 log x)
        with mp.workdps(40):
            return (-2 * mp.euler - mp.digamma(sig) - mp.digamma(1 - sig)) / 2 - mp.log(x), mp.mpf(1)
    # F(1 - x^2) needs x^2 to survive the subtraction
    with mp.workdps(40 + max(0, int(-2 * math.log10(min(x, math.sqrt((1 - x) * (1 + x))))))):
        x_sq, comp_sq = squares_mp(x)
        value, f = mu_a_mp(sig, x_sq, comp_sq)
        return value, comp_sq * f * f


def _phi_a_moduli(a, K, x, complement):
    """(y, y*): the modulus mu_a(r)/K of the image and its dual y_sym^2/y."""
    sig = signature_mp(a)
    y_sym_sq = (mp.pi / (2 * mp.sin(mp.pi * sig))) ** 2
    m = _mu_a_slope_mp(sig, x)[0]
    y = (y_sym_sq / m if complement else m) / K
    return y, y_sym_sq / y


def _phi_a_mp(a, K, x, complement):
    """The exact pair is one Newton step in log s from the result's smaller channel s."""
    v = phi_aK(a, K, radius(x, complement))
    swap = v.r > v.comp
    y, y_star = _phi_a_moduli(a, K, x, complement)
    s, t = (v.comp, y_star) if swap else (v.r, y)
    value, slope = _mu_a_slope_mp(signature_mp(a), s)
    s_exact = s * mp.exp((value - t) * slope)
    big_exact = mp.sqrt(1 - s_exact * s_exact)
    return (big_exact, s_exact) if swap else (s_exact, big_exact)


_eta_draws = log_uniform(300, (1.0, 50.0), (1e-6, 1e6))


def _schottky_draws(rng):
    # M = (1+r)/(1-r) log-spread over [1, 50], r uniform on [0, 0.96] one time in five, and r = 0
    for i, (M, t) in enumerate(_eta_draws(rng)):
        yield (0.0 if i % 50 == 0 else rng.uniform(0.0, 0.96) if i % 5 == 0 else (M - 1.0) / (M + 1.0)), t


def _schottky_modulus_mp(r, t):
    """The modulus of u = sqrt(t/(1+t)) over M = (1+r)/(1-r), at the exact r."""
    r = mp.mpf(r)
    return _eta_modulus_mp((1 + r) / (1 - r), t)


def _linearized_draws(rng):
    # K log-spread over [1, 50]; x uniform on [-40, 40] two times in three, else of either
    # sign log-spread from 1e-300 to 700, past where q(x) or its complement underflows
    for i, (K,) in enumerate(log_uniform(300, (1.0, 50.0))(rng)):
        yield K, rng.uniform(-40.0, 40.0) if i % 3 else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 2.85)


def _linearized_mp(K, x):
    """logit(phi_K(q)) at q = 1/(1 + e^-x), through the theta pair of mu(q)/K."""
    e = mp.exp(-mp.mpf(x))
    s, comp = mu_inv_mp(mu_sq_mp(1 / (1 + e) ** 2, e * (2 + e) / (1 + e) ** 2) / K)
    return mp.log(s) + mp.log1p(s) - 2 * mp.log(comp)


def _eta_modulus_mp(K, t):
    """mu at r^2 = t/(1+t), r'^2 = 1/(1+t), over K."""
    t = mp.mpf(t)
    return mu_sq_mp(t / (1 + t), 1 / (1 + t)) / K


def _eta_kappa(K, t):
    # max(1, y, y*), with y the modulus of u = sqrt(t/(1+t)) over K and y* that of its complement
    y = _eta_modulus_mp(K, t)
    return max(1, y, mp.pi ** 2 / (4 * y))


def _capacity_draws(rng):
    # tau_2 with t log-spread on [1e-300, 1e300], gamma_2 with s - 1 log-spread from
    # 2^-52 to 1e100, and both at the ends of the doubles
    ts = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(1000)] + [5e-324, 1e-17, 1.0, 1.7976931348623157e308]
    ss = [1.0 + 2.0 ** rng.uniform(-52.0, math.log2(1e100)) for _ in range(1000)]
    return [(t,) for t in ts], [(s,) for s in ss + [1.0 + EPS, 1.0 + 1e-10, 1.7976931348623157e308]]


def _gamma2_mp(s):
    s = mp.mpf(s)
    return 2 * mp.pi / mu_sq_mp(1 / s ** 2, (s - 1) * (s + 1) / s ** 2)


def _balanced_draws(rng):
    # a, b log-spread over (0, 60]; for a, b above about 1 the connection series has negative terms
    for _ in range(300):
        (a, b), = log_uniform(1, (1e-3, 60.0), (1e-3, 60.0))(rng)
        w = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        yield a, b, w, 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)


def _on_circle(rng, radius):
    t = rng.uniform(0.0, 2.0 * math.pi)
    return radius * math.cos(t), radius * math.sin(t)


def _rho_pairs(rng):
    # interior pairs, pairs nearly on one diameter, pairs near the circle and close pairs
    for _ in range(200):
        t, e = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(-16.0, -10.0)
        s1, s2 = rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)
        a = _on_circle(rng, rng.uniform(0.0, 0.99))
        step = _on_circle(rng, 10.0 ** rng.uniform(-12.0, -4.0))
        yield _on_circle(rng, rng.uniform(0.0, 0.9)), _on_circle(rng, rng.uniform(0.0, 0.9))
        yield (s1 * math.cos(t), s1 * math.sin(t)), (s2 * math.cos(t + e), s2 * math.sin(t + e))
        yield (_on_circle(rng, 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)),
               _on_circle(rng, 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)))
        yield a, (a[0] + step[0], a[1] + step[1])


def _rho_mp(a, b):
    a, b = mp.mpc(*a), mp.mpc(*b)
    return 2 * mp.atanh(abs(a - b) / abs(1 - mp.conj(a) * b))


def _mean_mod_draws(log_t):
    # t log-spread over [10^-log_t, 10^log_t], x and y over [1e-300, 1e300], a fifth of y
    # close to x, and the ends of the doubles, where M_t is far below max(x, y) e^-708
    def point(rng):
        x = 10.0 ** rng.uniform(-300.0, 300.0)
        y = x * (1.0 + 10.0 ** rng.uniform(-15.0, 0.0)) if rng.random() < 0.2 else 10.0 ** rng.uniform(-300.0, 300.0)
        return 10.0 ** rng.uniform(-log_t, log_t), x, y

    def sample(rng):
        ends = [(1e-6, 1.7976931348623157e308, 5e-324), (1e-200, 1e308, 5e-324), (1e300, 1e308, 1e-308)]
        return [(kind, *p) for kind in (MeanKind.Arithmetic, MeanKind.Logarithmic, MeanKind.ArithmeticGeometric)
                for p in [point(rng) for _ in range(300)] + ends]
    return sample


def _mean_mod_mp(kind, t, x, y):
    """M_t(x, y) = hi M(1, e^u)^(1/t), u = t log(lo/hi), log M at digits enough that a small u keeps 40 of its own."""
    hi, lo = max(mp.mpf(x), mp.mpf(y)), min(mp.mpf(x), mp.mpf(y))
    u = t * mp.log(lo / hi)
    with mp.workdps(int(50 + max(0, -mp.log10(-u)))):
        if kind is MeanKind.Arithmetic:
            log_mean = +mp.log1p(mp.expm1(u) / 2)
        elif kind is MeanKind.Logarithmic:
            log_mean = +mp.log(mp.expm1(u) / u)
        else:
            log_mean = +mp.log(mp.agm(1, mp.exp(u)))
    return hi * mp.exp(log_mean / t)


def _public_quotient(a, r):
    p, u = HypergeomParams(a, 1.0 - a, 1.0), UnitRadius.from_r(r)
    f_den = gauss_F(p, r * r)
    return math.pi / (2.0 * math.sin(math.pi * a)) * gauss_F(p, u.comp * u.comp) / f_den, f_den


def _smaller_channel(u, y):
    # the smaller channel carries the digits: r above pi/2, the complement below
    return u.r if y >= 0.5 * math.pi else u.comp


def _theta_round_trip(a, y):
    try:
        u = mu_a_inv(a, y)
    except ConvergenceError:
        assert a == 0.25 and y < 0.007, (a, y)  # a = 1/4 refuses there, where its complement underflows
        raise
    return round_trip(mu_a, a, u)


_POSITIVE_Y = (5e-324, 1e6, (1e-3, 1e3))  # y over (0, 1e6], two in three where the inverses have values
_theta_y = box(150, (0.004, 700.0), extra=[(0.5 * math.pi,)])
_tau_y, _gamma_y = log_uniform(300, (0.009, 450.0)), log_uniform(300, (0.0089, 900.0))

ROWS = {
    # K at complement c is K'(c) = pi / (2 AG(1, c)), with no cancellation at any c
    "ellint_K.complement_grid": Row(0, lambda rng: [(10.0 ** (-8 - 292 * i / 400), 1.0) for i in range(401)] + [
        (c, 1.0) for c in (3e-300, 1e-300, 2.3e-308, 1e-320)], ellint_K_from_comp, lambda c, r: k_mp(c), rel(3e-16)),
    # mu within 2.5 ulp and K within 4 ulp on a grid from 1e-323 to 0.99, each x as r and as r'
    # (mu's docstring states 3 ulp, for the 2.51 ulp that mu.nome checks at r = 0.9546243998171448)
    "mu.nome_grid": Row(0, lambda rng: [(x, c) for (x,) in _nome_grid(rng) for c in (False, True)],
                        lambda x, c: mu(radius(x, c)), mu_mp, ulps(2.5)),
    "ellint_K.nome_grid": Row(0, _nome_grid, ellint_K, lambda x: k_mp(pair_mp(x)[1]), ulps(4)),
    "ellint_Kprime.nome_grid": Row(0, _nome_grid, ellint_Kprime, k_mp, ulps(4)),
    # mu and K on the nome route within 3 and 4 ulp of the AGM quotient at 50 digits
    "mu.nome": Row(1919, lambda rng: [(x, c) for (x,) in _nome_draws(rng) for c in (False, True)],
                   lambda x, c: mu(radius(x, c)), mu_mp, ulps(3)),
    "ellint_K.nome": Row(1919, _nome_draws, ellint_K, lambda x: k_mp(pair_mp(x)[1]), ulps(4)),
    "ellint_Kprime.nome": Row(1919, _nome_draws, ellint_Kprime, k_mp, ulps(4)),
    # both arguments log-spread over 1e-300...1e300: scaled by a power of two where a
    # product a_n b_n would leave the normal range, and the log route where y/x
    # underflows; 2.8 ulp was the worst over 4000 such pairs
    "agm.far": Row(1920, lambda rng: [(10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300))
                                      for _ in range(300)], agm, lambda x, y: mp.agm(x, y), ulps(4)),
    # the tail closes a gap below 4e-3 at once and after one step above, within 2 eps; with
    # the tail from a gap of 1e-2, its first dropped term, 11 d^6/256, reaches 3 eps in the upper band
    "agm.tail.lower": Row(1921, _agm_tail_pairs(1e-6, 1e-4), agm, lambda x, y: mp.agm(x, y), rel(2 * EPS)),
    "agm.tail.upper": Row(1921, _agm_tail_pairs(1e-4, 1e-2), agm, lambda x, y: mp.agm(x, y), rel(2 * EPS)),
    # rounding in the term products, and no truncated tail above 2^-55
    "gauss_F.condition": Row(1416, _gauss_f_draws, _gauss_f, _hyp2f1_mp, _GAUSS_F_CLAIM),
    # c - a - b in [1.5, 3]: what is left is the truncated tail; the last-term stop left
    # about 1e-17/(1-r) (7.7e-14 at .9999)
    "gauss_F.tail": Row(1415, _gauss_f_tail_draws, _gauss_f, _hyp2f1_mp, rel(2e-15)),
    "gamma_fn": Row(1417, lambda rng: [(x,) for x, _ in log_uniform(400, (1e-300, 171.0), (1e-300, 1e300))(rng)],
                    gamma_fn, lambda x: mp.gamma(x), rel(1e-15)),
    "digamma_fn": Row(1417, lambda rng: [(y,) for _, y in log_uniform(400, (1e-300, 171.0), (1e-300, 1e300))(rng)],
                      digamma_fn, lambda y: mp.digamma(y), _digamma_bound),
    # above a + b = 170 the lgamma difference was 101% off at (1e15, .5) and B(1e308, .5) overflowed
    # outside the normal doubles the call must refuse: there the reference, and the bound, are 0
    "beta_fn": Row(1418, _beta_pairs, refusal_as_zero(beta_fn), _beta_mp, _beta_bound),
    # Gamma(a)Gamma(b)/Gamma(a+b) within 1e-14 of the rounded arguments' value; the
    # lgamma route, about 1e-13 off near a + b = 170, fails this
    "beta_fn.gamma_route": Row(2024, lambda rng: [(a, rng.uniform(80.0, 170.0 - a))
                                                  for a in (rng.uniform(80.0, 85.0) for _ in range(200))],
                               beta_fn, lambda a, b: gamma_ratio_mp((a, b), (a + b,)), rel(1e-14)),
    # the case A constant for c up to 171, where products of two gammas overflow and
    # the lgamma route is about 3e-13 off
    "hypergeom_boundary.gamma_route": Row(7, _boundary_below_171, _boundary_constant, _case_a_mp, rel(1e-14)),
    # c > 171 takes Gamma(d+m)/Gamma(d) from the Stirling remainder at x = d; cut
    # after x^-7 it was up to 6.6e-13 off at d = 10
    **{f"hypergeom_boundary.stirling[{d}]": Row(1719, _stirling_draws(d), _boundary_constant, _case_a_mp, rel(1e-14))
       for d in (10.0, 10.5, 12.0, 40.0)},
    # the docstring's three case claims, with the differences of a, b, c exact, and a refusal
    # exactly where a case A or C constant is not a normal double
    "hypergeom_boundary": Row(3401, _boundary_draws, _boundary_constant, _boundary_mp, _boundary_bound),
    # each route switch of the gamma family, 1 to 4 ulp either side and at 1e-6 relative, within its claim
    "beta_fn.seam": Row(3402, _beta_seam, beta_fn, _beta_mp, _beta_bound),
    "hypergeom_boundary.seam[171]": Row(3403, _boundary_seam, _boundary_constant, _boundary_mp, _boundary_bound),
    "hypergeom_boundary.seam[171C]": Row(3406, _boundary_seam_c, _boundary_constant, _boundary_mp, _boundary_bound),
    "hypergeom_boundary.seam[10]": Row(3404, _stirling_seam, _boundary_constant, _boundary_mp, _boundary_bound),
    "log_gamma_ratio.seam": Row(3404, _log_gamma_ratio_seam, lambda x, m: math.exp(specfun._log_gamma_ratio(x, m)),
                                lambda x, m: gamma_ratio_mp((mp.mpf(x) + m,), (x,)),
                                lambda want, x, m: 32 * EPS * max(1, m * math.log(x + m)) * want),
    "digamma_fn.seam": Row(3405, lambda rng: [(x,) for x in around(10.0, (1e-6,))], digamma_fn, lambda y: mp.digamma(y),
                           _digamma_bound),
    # the series engine's seams, 1 to 4 ulp either side and at 1e-6 relative, within gauss_F's claim
    "gauss_F.seam[0.95]": Row(3407, _balanced_seam, _gauss_f, _hyp2f1_mp, _GAUSS_F_CLAIM),
    **{f"gauss_F.seam[{edge:g}]": Row(3408, _exact_box_seam(edge), _gauss_f, _hyp_series_mp, _GAUSS_F_CLAIM)
       for edge in (1e-100, 1e100)},
    # within 1e-12, or a typed error
    "gauss_F_near_one.balanced": Row(1313, _balanced_draws, lambda a, b, w, r: gauss_F_near_one(a, b, w),
                                     lambda a, b, w, r: mp.hyp2f1(a, b, a + b, 1 - mp.mpf(w)), rel(1e-12),
                                     errors=QcfunError),
    "gauss_F.balanced": Row(1313, _balanced_draws, lambda a, b, w, r: gauss_F(HypergeomParams(a, b, a + b), r),
                            lambda a, b, w, r: mp.hyp2f1(a, b, a + b, r), rel(1e-12), errors=QcfunError),
    **{f"mu_a.classical.{name}": Row(1606, _classical_draws(a), lambda a, x, c: modulus._mu_a_parts(a, radius(x, c)),
                                     _classical_mp, _classical_bound, dps=40) for name, a in SIGNATURE_NAMES.items()},
    # after the forward draws, y log-spread over the inverse's range
    **{f"mu_a_inv.classical.{name}": Row(1606, after(_classical_draws(a), log_uniform(300, CLASSICAL_FIGURES[a][4])),
                                         lambda y, a=a: mu_a(a, mu_a_inv(a, y)), identity,
                                         residual(CLASSICAL_FIGURES[a][3]), dps=None)
       for name, a in SIGNATURE_NAMES.items()},
    # the experiment's ratios within 1e-15: artanh from the complement channel where
    # phi_K(r) nears 1, and 1 - r^(1/K) from expm1
    "artanh_ratio": Row(1515, _artanh_points, lambda K, r, i: _artanh_ratio(K, r) if i is None
                        else _experiment("artanh_ratio", K=K)["g"][i], _artanh_ratio_mp, rel(1e-15)),
    # the closed-form slopes within their stated error of an mpmath difference quotient
    "linearize_phi_a": Row(1515, _linearize_points,
                           lambda a, K, i: _experiment("linearize_phi_a", a=a, K=K)["slope"][i],
                           _linearized_slope_mp, rel(_SLOPE_ERR), dps=60),
    # the docstrings' 4 eps max(1, y) on the radius and 4 eps max(1, y*) on the complement, on
    # both input channels; the radius or its complement may underflow
    "phi_K": Row(912, _phi_draws(300), lambda K, x, c: phi_K(K, radius(x, c)),
                 lambda K, x, c: mu_inv_mp(mu_mp(x, c) / K), cond(4, _phi_kappa), errors=ConvergenceError),
    **{f"phi_aK.{name}": Row(914, _phi_draws(250), lambda K, x, c, a=a: phi_aK(a, K, radius(x, c)),
                             lambda K, x, c, a=a: _phi_a_mp(a, K, x, c),
                             cond(4, lambda K, x, c, a=a: tuple(max(1, m) for m in _phi_a_moduli(a, K, x, c))),
                             dps=40, errors=ConvergenceError) for name, a in SIGNATURE_NAMES.items()},
    "eta_K2": Row(913, _eta_draws, eta_K2, lambda K, t: eta_of_modulus_mp(_eta_modulus_mp(K, t)),
                  cond(12, _eta_kappa)),
    "lambda_of_K": Row(913, after(_eta_draws, log_uniform(300, (1.0, 200.0))), lambda_of_K,
                       lambda K: eta_of_modulus_mp(mp.pi / (2 * mp.mpf(K))),
                       cond(12, lambda K: max(1, math.pi * K / 2))),
    # eta_K2's 12 eps max(1, y, y*), and the rounding of M, at the exact M = (1+r)/(1-r)
    "schottky_psi": Row(3406, _schottky_draws, schottky_psi,
                        lambda r, t: eta_of_modulus_mp(_schottky_modulus_mp(r, t)),
                        cond(14, lambda r, t: max(1, (y := _schottky_modulus_mp(r, t)), mp.pi ** 2 / (4 * y))),
                        errors=OverflowSignal),
    # an absolute bound: g vanishes where phi_K(q(x)) = 1/2
    "linearized_g": Row(3407, _linearized_draws, linearized_g, _linearized_mp,
                        lambda want, K, x: 16 * EPS * max(1, abs(want)), errors=ConvergenceError),
    # r e^mu(r), the product at signature 1/2, on both input channels
    "agm_product_p": Row(3408, lambda rng: [(x, c) for x in draws(rng, 1e-300, 1.0 - 2.0 ** -53, 300)
                                            for c in (False, True)],
                         lambda x, c: agm_product_p(radius(x, c)),
                         lambda x, c: pair_mp(x, c)[0] * mp.exp(mu_mp(x, c)), rel(4 * EPS)),
    "teichmuller_tau2": Row(1316, lambda rng: _capacity_draws(rng)[0], teichmuller_tau2,
                            lambda t: mp.pi / mu_sq_mp(1 / (1 + mp.mpf(t)), t / (1 + mp.mpf(t))), rel(2 * EPS)),
    "grotzsch_gamma2": Row(1316, lambda rng: _capacity_draws(rng)[1], grotzsch_gamma2, _gamma2_mp, rel(2 * EPS)),
    # against theta functions at the exact modulus pi/y, 2 pi/y or pi K/2
    "tau2_inv": Row(1318, _tau_y, tau2_inv, lambda y: 1 / eta_of_modulus_mp(mp.pi / mp.mpf(y)),
                    cond(12, lambda y: max(1, math.pi / y, y / math.pi))),
    "gamma2_inv": Row(1318, after(_tau_y, _gamma_y), gamma2_inv, lambda y: 1 / mu_inv_mp(2 * mp.pi / mp.mpf(y))[0],
                      cond(3, lambda y: max(1, 2 * math.pi / y))),
    # c(2,K) = 1 + tau2_inv(tau2(1)/K)
    "vuorinen_c2": Row(1318, after(_tau_y, _gamma_y, log_uniform(300, (1.0, 226.0))),
                       lambda K: bound_value(BoundId.VuorinenC2, [K]),
                       lambda K: 1 + 1 / eta_of_modulus_mp(mp.pi * mp.mpf(K) / 2),
                       cond(5, lambda K: max(1, math.pi * K / 2))),
    # 4 eps / min(1 - |a|^2, 1 - |b|^2)
    "rho_disk": Row(1314, _rho_pairs, rho_disk, _rho_mp, cond(4, lambda p, q: 1 / min(
        1 - mp.mpf(p[0]) ** 2 - mp.mpf(p[1]) ** 2, 1 - mp.mpf(q[0]) ** 2 - mp.mpf(q[1]) ** 2))),
    **{f"mean_mod[{log_t}]": Row(1317 + int(log_t), _mean_mod_draws(log_t), mean_mod, _mean_mod_mp,
                                 cond(2, lambda kind, t, x, y: 1 + abs(math.log(x) - math.log(y))))
       for log_t in (3.0, 300.0)},

    # -- against the general algorithms the library keeps, in doubles --
    # on 80000 random radii the nome route and the AGM quotient differed by at most
    # 5 ulp, where each is 2 to 3 ulp off mpmath in opposite directions
    "ellint_K.agm": Row(3301, box(400, (0.0, 1.0 - 2.0 ** -53)), ellint_K,
                        lambda r: k_agm(math.sqrt((1.0 - r) * (1.0 + r))), ulps(5), dps=None),
    "ellint_Kprime.agm": Row(3302, box(400, (5e-324, 1.0)), ellint_Kprime, k_agm, ulps(5), dps=None),
    "mu.agm": Row(3303, box(400, (5e-324, 1.0 - 2.0 ** -53), [False, True]), lambda x, c: mu(radius(x, c)),
                  lambda x, c: mu_agm(*radius(x, c)), ulps(5), dps=None),
    # the theta inverse against Newton on the series, at the smaller channel, which changes at y = pi/2
    "mu_inv.newton": Row(3304, _theta_y, lambda y: _smaller_channel(mu_inv(y), y),
                         lambda y: _smaller_channel(newton_oracle(0.5, y), y), rel(1e-11), dps=None),
    "mu_inv.theta_residual": Row(3304, _theta_y, lambda y: mu(mu_inv(y)), identity, residual(1e-14), dps=None),
    "mu_inv.unit_pair": Row(3304, _theta_y, lambda y: Fraction(mu_inv(y).r) ** 2 + Fraction(mu_inv(y).comp) ** 2,
                            lambda y: 1, lambda want, y: 1e-15, dps=None),
    "mu_inv.residual": Row(3305, box(300, _POSITIVE_Y), lambda y: round_trip(mu, mu_inv(y)), identity,
                           residual(1e-14), dps=None, errors=QcfunError),
    # r^2 and r'^2 both below the 0.95 seam: both F factors by the direct series
    "mu_a.fused_series": Row(3306, box(300, (sys.float_info.min, 0.5), (0.224, 0.974)),
                             lambda a, r: series_oracle(a, UnitRadius.from_r(r)), _public_quotient, rel(2e-15),
                             dps=None),
    # both channels: x is r, or x is r' so that r comes out near 1
    "mu_a.closed_forms": Row(3307, box(300, list(CLOSED_FORM_SIGNATURES), (1e-12, 1.0 - 1e-12), [False, True]),
                             lambda a, x, c: modulus._mu_a_parts(a, radius(x, c)),
                             lambda a, x, c: series_oracle(a, radius(x, c)), rel(2e-15), dps=None),
    "mu_a_inv.theta_round_trip": Row(3308, box(300, [0.5, 0.25], (0.004, 700.0),
                                               extra=[(0.25, math.nextafter(0.007, 0.0)), (0.25, 0.007)]),
                                     _theta_round_trip, identity, residual(1e-15), dps=None, errors=ConvergenceError),
    # a over (0, 1/2], two in three over [0.02, 1/2], where most y of the core have a radius
    "mu_a_inv.residual": Row(3309, box(300, (5e-324, 0.5, (0.02, 0.5)), _POSITIVE_Y),
                             lambda a, y: round_trip(mu_a, a, mu_a_inv(a, y)), identity, residual(2e-13),
                             dps=None, errors=QcfunError),
    # K over [1, 1e300], two in three over [1, 1e3], where phi_K(r) does not round to 1
    "phi_K.large_K": Row(3310, box(300, (1.0, 1e300, (1.0, 1e3)), (5e-324, 1.0 - 2.0 ** -53)),
                         lambda K, r: round_trip(mu, phi_K(K, r)), lambda K, r: mu(r) / K, residual(1e-15), dps=None,
                         errors=ConvergenceError),
}
