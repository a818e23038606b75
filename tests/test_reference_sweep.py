"""Cross-validation against a high-precision reference (skipped without mpmath).

The reference modulus is evaluated as the two-AGM quotient in whichever of
(r, r') is held exactly -- a naive high-precision transcription loses the
complement at fixed dps just like doubles do.
"""

import math
import random

import pytest

mp = pytest.importorskip("mpmath")

from qcfun import modulus, specfun
from qcfun.means import ellint_K_from_comp
from qcfun.specfun import gauss_F_near_one
from qcfun import (
    BoundId,
    ConvergenceError,
    HypergeomParams,
    beta_fn,
    bound_value,
    hypergeom_boundary,
    UnitRadius,
    agm,
    agm_product_p,
    digamma_fn,
    gamma_fn,
    ellint_K,
    ellint_Kprime,
    eta_K2,
    gamma2_inv,
    gauss_F,
    grotzsch_gamma2,
    lambda_of_K,
    MeanKind,
    mean_mod,
    mu,
    mu_a,
    mu_a_inv,
    mu_inv,
    phi_K,
    phi_aK,
    QcfunError,
    rho_disk,
    tau2_inv,
    teichmuller_tau2,
)

mp.mp.dps = 50


def agm_mp(a, b):
    for _ in range(300):
        a, b = (a + b) / 2, mp.sqrt(a * b)
        if abs(a - b) < mp.mpf(10) ** -48 * a:
            break
    return a


def mu_mp_from_r(r):
    r = mp.mpf(r)
    comp = mp.sqrt((1 - r) * (1 + r))
    return mp.pi / 2 * agm_mp(mp.mpf(1), comp) / agm_mp(mp.mpf(1), r)


def mu_mp_from_comp(c):
    c = mp.mpf(c)
    r = mp.sqrt((1 - c) * (1 + c))
    return mp.pi / 2 * agm_mp(mp.mpf(1), c) / agm_mp(mp.mpf(1), r)


def rel(got, want):
    return abs(mp.mpf(got) - want) / max(1, abs(want))


def ulps(got, want):
    return abs(mp.mpf(got) - want) / math.ulp(float(want))


@pytest.mark.parametrize("r", [1e-8, 9.9e-6, 1.01e-5, 1e-3, 0.1, 0.5, 0.9, 0.999,
                               1 - 1e-6, 1 - 1e-8])
def test_mu_radius_channel(r):
    assert rel(mu(r), mu_mp_from_r(r)) < 2e-13


@pytest.mark.parametrize("c", [1.5e-4, 1.4e-4, 2e-7, 0.99e-7, 1e-9, 1e-50, 1e-150])
def test_mu_complement_channel(c):
    assert rel(mu(UnitRadius.from_comp(c)), mu_mp_from_comp(c)) < 2e-13


@pytest.mark.parametrize("gap", [9e-9, 4e-9, 1e-9, 2e-10, 5e-11, 1e-11, 1e-13, 2 ** -52])
def test_ellint_k_near_one(gap):
    r = 1.0 - gap
    assert rel(ellint_K(r), mp.ellipk(mp.mpf(r) ** 2)) < 1e-15


def test_ellint_k_complement_expansion():
    # K at complement c is K'(c) = pi / (2 AG(1, c)), with no cancellation at any c
    cs = [10.0 ** (-8 - 292 * i / 400) for i in range(401)] + [3e-300, 1e-300, 2.3e-308, 1e-320]
    for c in cs:
        reference = mp.pi / (2 * agm_mp(mp.mpf(1), mp.mpf(c)))
        assert rel(ellint_K_from_comp(c, 1.0), reference) < 3e-16, c


def test_nome_route_within_docstring_ulps():
    # mu within 2.5 ulp and K within 4 ulp on this grid, with each double x
    # taken as the radius and as the complement, from 1e-323 to 0.99 (mu's
    # docstring states 3 ulp, for the 2.51 ulp that the seeded sweep below
    # checks at r = 0.9546243998171448)
    xs = [10.0 ** (-323.0 + 323.0 * i / 150) for i in range(150)] + [i / 101 for i in range(1, 101)]
    worst_mu = worst_k = 0
    for x in xs:
        k_x = mp.pi / (2 * agm_mp(mp.mpf(1), mp.sqrt((1 - mp.mpf(x)) * (1 + mp.mpf(x)))))
        k_xc = mp.pi / (2 * agm_mp(mp.mpf(1), mp.mpf(x)))
        worst_mu = max(worst_mu, ulps(mu(UnitRadius.from_r(x)), mp.pi / 2 * k_xc / k_x),
                       ulps(mu(UnitRadius.from_comp(x)), mp.pi / 2 * k_x / k_xc))
        worst_k = max(worst_k, ulps(ellint_K(x), k_x), ulps(ellint_Kprime(x), k_xc))
    assert worst_mu <= 2.5 and worst_k <= 4.0, (float(worst_mu), float(worst_k))


def test_nome_route_seeded_sweep():
    # the docstrings' bounds, mu within 3 ulp and K within 4 ulp, on seeded radii
    # log-spread down to 5e-324 and uniform on (0,1), each as r and as r', and at
    # the worst r of a 12000-value sweep, where the larger channel's pi^2/(4 m) is 2.51 ulp off
    rng = random.Random(1919)
    xs = [math.exp(rng.uniform(math.log(5e-324), 0.0)) for _ in range(150)]
    xs += [rng.uniform(0.0, 1.0) for _ in range(150)] + [0.9546243998171448]
    for x in xs:
        k_x = mp.pi / (2 * agm_mp(mp.mpf(1), mp.sqrt((1 - mp.mpf(x)) * (1 + mp.mpf(x)))))
        k_xc = mp.pi / (2 * agm_mp(mp.mpf(1), mp.mpf(x)))
        assert ulps(mu(UnitRadius.from_r(x)), mp.pi / 2 * k_xc / k_x) <= 3.0, x
        assert ulps(mu(UnitRadius.from_comp(x)), mp.pi / 2 * k_x / k_xc) <= 3.0, x
        assert ulps(ellint_K(x), k_x) <= 4.0 and ulps(ellint_Kprime(x), k_xc) <= 4.0, x


def test_agm_far_from_one():
    # both arguments log-spread over 1e-300...1e300: scaled by a power of two
    # where a product a_n b_n would leave the normal range, and the log route
    # where y/x underflows; 2.8 ulp was the worst over 4000 such pairs
    rng = random.Random(1920)
    for _ in range(300):
        x, y = 10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300)
        assert ulps(agm(x, y), mp.agm(x, y)) <= 4.0, (x, y)


@pytest.mark.parametrize("gaps", [(1e-6, 1e-4), (1e-4, 1e-2)])
def test_agm_quadratic_tail(gaps):
    # pairs (s, s (1 - g)) with g in each band and s from e^-5 to e^5: the tail
    # closes them at once below 4e-3 and after one step above, within 2 eps
    # relative.  With the tail from a gap of 1e-2 a, its first dropped term,
    # 11 d^6/256, reaches 3 eps in the upper band
    rng = random.Random(1921)
    for _ in range(200):
        g = math.exp(rng.uniform(math.log(gaps[0]), math.log(gaps[1])))
        s = math.exp(rng.uniform(-5.0, 5.0))
        assert _rel_err(agm(s, s * (1.0 - g)), mp.agm(s, s * (1.0 - g))) <= 2 * EPS, (s, g)


@pytest.mark.parametrize("y", [0.004, 0.05, 1.0, 1.58, 20.0, 500.0])
def test_mu_inv_against_reference_modulus(y):
    u = mu_inv(y)
    back = mu_mp_from_comp(u.comp) if u.comp < 0.8 else mu_mp_from_r(u.r)
    assert rel(float(back), mp.mpf(y)) < 3e-13


@pytest.mark.parametrize("abc", [(0.5, 0.5, 1.0), (0.3, 0.9, 1.2), (1.5, 0.7, 1.1)])
@pytest.mark.parametrize("r", [0.5, 0.9499, 0.9501])
def test_gauss_f_seam(abc, r):
    a, b, c = abc
    want = mp.hyp2f1(mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(r))
    assert rel(gauss_F(HypergeomParams(a, b, c), r), want) < 1e-12


def test_gauss_f_condition_scaled_accuracy():
    # the docstring's 2 eps max(1, 1/(1-r)): rounding in the term products, and no
    # truncated tail above 2^-55 of the sum
    rng = random.Random(1416)
    for _ in range(40):
        a, b = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
        c = a + b + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        r = 1.0 - math.exp(rng.uniform(math.log(3e-5), math.log(0.1))) if rng.random() < 0.8 else rng.uniform(0.0, 0.9)
        want = mp.hyp2f1(a, b, c, r)
        assert _rel_err(gauss_F(HypergeomParams(a, b, c), r), want) <= 2 * EPS * max(1, 1 / (1 - r)), (a, b, c, r)


def test_gauss_f_no_truncated_tail_near_one():
    # c - a - b in [1.5, 3]: the terms' rounding stays small, so what is left is the
    # truncated tail; the last-term stop left about 1e-17/(1-r) (7.7e-14 at .9999)
    rng = random.Random(1415)
    for _ in range(8):
        a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        c = a + b + rng.uniform(1.5, 3.0)
        for r in (0.99, 0.999, 0.9999):
            assert _rel_err(gauss_F(HypergeomParams(a, b, c), r), mp.hyp2f1(a, b, c, r)) < 2e-15, (a, b, c, r)


@pytest.mark.parametrize("call, want", [
    (lambda: gauss_F(HypergeomParams(1.0, 1.0, 100.0), 1 - 1e-8), lambda: mp.hyp2f1(1, 1, 100, 1 - 1e-8)),
    (lambda: gauss_F(HypergeomParams(2.0, 3.0, 40.0), 1 - 1e-12), lambda: mp.hyp2f1(2, 3, 40, 1 - 1e-12)),
    (lambda: gauss_F(HypergeomParams(0.3, 0.4, 1.2), 1 - 2e-5), lambda: mp.hyp2f1(0.3, 0.4, 1.2, 1 - 2e-5)),
    (lambda: gauss_F_near_one(150.0, 150.0, 2e-5), lambda: mp.hyp2f1(150, 150, 300, 1 - mp.mpf(2e-5))),
    (lambda: gauss_F_near_one(1000.0, 1000.0, 0.5), lambda: mp.hyp2f1(1000, 1000, 2000, 0.5)),
], ids=["c-large-1e-8", "c-large-1e-12", "1.2-million-terms", "direct-fallback-1.4-million-terms", "1000-1000"])
def test_gauss_f_reach_against_reference(call, want):
    # inputs the 1e-17 last-term rule answered stay answered: the term budget counts
    # the polynomial factor n^(a+b-c-1) of the first two, and the rest fit the cap
    value, reference = call(), want()
    assert _rel_err(value, reference) <= 2 * EPS * max(1, 5e4), float(reference)


def _tails(a, b, w, n):
    """mpmath sum over k >= n of t_k and of t_k (R_k - log w), t_k = (a,k)(b,k)/(k!)^2 w^k."""
    a, b, w = mp.mpf(a), mp.mpf(b), mp.mpf(w)
    term, k, rest0, rest1 = mp.rf(a, n) * mp.rf(b, n) / mp.factorial(n) ** 2 * w ** n, n, 0, 0
    while term > mp.mpf(10) ** -45:
        rest0 += term
        rest1 += term * (2 * mp.digamma(k + 1) - mp.digamma(a + k) - mp.digamma(b + k) - mp.log(w))
        term *= (a + k) * (b + k) / (k + 1) ** 2 * w
        k += 1
    return rest0, rest1


def test_balanced_pass_bounds_the_rest_of_both_sums():
    # a = b = 1.24: the weights R_n - log w rise from 0.03 to 0.8, so S1's rest outlasts
    # S0's; a stop on S0 alone would leave 1.9 times the tolerance in S1
    a, w = 1.24, 0.45
    s0, s1, n = specfun._hyp_sums(a, a, 1.0, w, specfun._balanced_r0(a, a), math.log(w))
    rest0, rest1 = _tails(a, a, w, n)
    assert rest0 <= specfun._EPS * s0 and rest1 <= specfun._EPS * s1, (float(rest0 / s0), float(rest1 / s1))


def test_gamma_and_digamma_claims():
    # gamma_fn: 1e-15 relative; digamma_fn: 1e-15 max(1, |psi|) absolute
    rng = random.Random(1417)
    for _ in range(400):
        x = math.exp(rng.uniform(math.log(1e-300), math.log(171.0)))
        assert _rel_err(gamma_fn(x), mp.gamma(x)) < 1e-15, x
        y = math.exp(rng.uniform(math.log(1e-300), math.log(1e300)))
        want = mp.digamma(y)
        assert abs(digamma_fn(y) - want) < 1e-15 * max(1, abs(want)), y


def _beta_mp(a, b):
    with mp.workdps(40 + int(math.log10(max(a, b, 10.0)))):
        a, b = mp.mpf(a), mp.mpf(b)
        return +mp.exp(mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b))


def test_beta_condition_scaled_accuracy():
    # the docstring's 8 eps max(1, |log B|, (a+b) log(a+b)); above a + b = 170 the
    # lgamma difference was 101% off at (1e15, .5) and B(1e308, .5) overflowed
    rng = random.Random(1418)
    pairs = [(1e3, 0.5), (1e10, 0.5), (1e15, 0.5), (1e17, 2.0), (1e308, 0.5), (160.0, 1e-300)]
    for _ in range(150):
        a = rng.uniform(1e-3, 169.0)  # the gamma route
        pairs.append((a, rng.uniform(1e-3, 170.0 - a)))
        pairs.append((math.exp(rng.uniform(math.log(85.0), math.log(1e300))),  # the ratio route
                      math.exp(rng.uniform(math.log(1e-3), math.log(1e300)))))
    for a, b in pairs:
        want = _beta_mp(a, b)
        if not 1e-300 < want < 1e300:
            continue
        bound = 8 * EPS * max(1, abs(float(mp.log(want))), (a + b) * math.log(a + b))
        assert _rel_err(beta_fn(a, b), want) <= bound, (a, b)


@pytest.mark.parametrize("abc", [(2.0, 3.0, 1e14), (0.5, 0.5, 1e10), (0.5, 0.5, 1e308), (3.0, 150.0, 400.0)])
def test_boundary_gamma_ratio_above_171(abc):
    # the lgamma difference was 6.1e-5 off at (.5, .5, 1e10), 65% at (2, 3, 1e14), overflowed at 1e308
    a, b, c = map(mp.mpf, abc)
    with mp.workdps(40 + int(math.log10(abc[2]))):
        want = +mp.exp(mp.loggamma(c) + mp.loggamma(c - a - b) - mp.loggamma(c - a) - mp.loggamma(c - b))
    assert _rel_err(hypergeom_boundary(HypergeomParams(*abc)).constant, want) < 1e-14


@pytest.mark.parametrize("d", [10.0, 10.5, 12.0, 40.0])
def test_boundary_case_a_stirling_remainder(d):
    # c > 171 takes Gamma(d+m)/Gamma(d) from the Stirling remainder at x = d; cut
    # after x^-7 it was up to 6.6e-13 off at d = 10.  Dyadic a, b make c - a - b = d exact.
    rng = random.Random(1719)
    for _ in range(40):
        a, b = rng.randint(32, 128) / 64, rng.randint(170 * 64, 400 * 64) / 64
        c = a + b + d
        with mp.workdps(50):
            A, B, C = map(mp.mpf, (a, b, c))
            want = mp.exp(mp.loggamma(C) + mp.loggamma(C - A - B) - mp.loggamma(C - A) - mp.loggamma(C - B))
            assert _rel_err(hypergeom_boundary(HypergeomParams(a, b, c)).constant, want) < 1e-14, (a, b, c)


def test_log_gamma_ratio_route_switch():
    # below x = 10 the lgamma difference is within 2.7e-15 here, where the Stirling
    # remainder's first dropped term, 1/(156 x^13), is 1.2e-14 at x = 8
    for x in (8.0, 9.9375, 10.0):
        for d in (1.5, 2.0, 3.0):
            want = mp.loggamma(mp.mpf(x) + d) - mp.loggamma(x)
            assert abs(specfun._log_gamma_ratio(x, d) - want) < 5e-15, (x, d)


def mu_a_mp(a, r):
    a_m, r_m = mp.mpf(a), mp.mpf(r)
    return mp.pi / (2 * mp.sin(mp.pi * a_m)) * mp.hyp2f1(
        a_m, 1 - a_m, 1, (1 - r_m) * (1 + r_m)) / mp.hyp2f1(a_m, 1 - a_m, 1, r_m * r_m)


@pytest.mark.parametrize("a", [0.01, 1.0 / 6.0, 0.49])
@pytest.mark.parametrize("r", [0.01, 0.5, 0.999])
def test_mu_a_extreme_signatures(a, r):
    assert rel(mu_a(a, r), mu_a_mp(a, r)) < 1e-11


@pytest.mark.parametrize("a", [1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 1e-3])
@pytest.mark.parametrize("r_sq", [0.3, 0.5, 0.7, 0.94, 0.96])
def test_mu_a_fused_series(a, r_sq):
    # both sides of r = r', where the single series pass changes formula
    r = math.sqrt(r_sq)
    want = mu_a_mp(a, r)
    assert abs(mp.mpf(mu_a(a, r)) - want) / want < 1e-15


@pytest.mark.parametrize("a", [0.5, 0.25, 1.0 / 3.0, 1.0 / 6.0])
@pytest.mark.parametrize("r", [1e-12, 1e-8, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12])
def test_mu_a_closed_forms(a, r):
    # the closed-form routes: mu, mu at the Landen radius, and mu at the
    # signature-6 Legendre radius, reached at 1/3 by the cubic-to-sextic map
    want = mu_a_mp(a, r)
    assert abs(mp.mpf(mu_a(a, r)) - want) / want < 1.5e-15
    f_want = mp.hyp2f1(mp.mpf(a), 1 - mp.mpf(a), 1, mp.mpf(r) ** 2)
    f = modulus._mu_a_parts(a, UnitRadius.from_r(r))[1]
    assert abs(mp.mpf(f) - f_want) / f_want < 1.5e-15


# signature -> the docstrings' figures on the classical route: mu_a, F where r <= r' and
# where r > r', and the inverse's residual over max(1, y) on its y range
CLASSICAL_FIGURES = {
    0.5: (3.5e-16, 2e-16, 4.5e-16, 5e-16, (0.0035, 709.7)),
    0.25: (4e-16, 3.5e-16, 6e-16, 5e-16, (0.007, 709.7)),
    1.0 / 6.0: (4e-16, 3.5e-16, 5e-16, 8e-16, (0.0139, 711.4)),
    1.0 / 3.0: (4.5e-16, 5.5e-16, 6e-16, 5e-16, (0.0047, 710.0)),
}


@pytest.mark.parametrize("a", list(CLASSICAL_FIGURES), ids=["half", "quarter", "sixth", "third"])
def test_classical_route_seeded_sweep(a):
    # mu_a and F on both channels, each reference taken at the channel held
    # exactly, and the inverse's residual
    mu_tol, f_le_tol, f_gt_tol, inv_tol, (y_lo, y_hi) = CLASSICAL_FIGURES[a]
    rng = random.Random(1606)
    sig = 1 / mp.mpf(round(1 / a))
    with mp.workdps(40):
        y_sym = mp.pi / (2 * mp.sin(mp.pi * sig))
        for _ in range(150):
            x = 10.0 ** rng.uniform(-12.0, 0.0) if rng.random() < 0.5 else rng.uniform(1e-12, 1.0 - 1e-12)
            for u in (UnitRadius.from_r(x), UnitRadius.from_comp(x)):
                small = mp.mpf(min(u))
                f_small = mp.hyp2f1(sig, 1 - sig, 1, small * small)
                f_big = mp.hyp2f1(sig, 1 - sig, 1, (1 - small) * (1 + small))
                value, f = modulus._mu_a_parts(a, u)
                if u.r <= u.comp:
                    want, f_want, f_tol = y_sym * f_big / f_small, f_small, f_le_tol
                else:
                    want, f_want, f_tol = y_sym * f_small / f_big, f_big, f_gt_tol
                assert _rel_err(value, want) <= mu_tol, u
                assert _rel_err(f, f_want) <= f_tol, u
    for _ in range(300):
        y = math.exp(rng.uniform(math.log(y_lo), math.log(y_hi)))
        assert abs(mu_a(a, mu_a_inv(a, y)) - y) <= inv_tol * max(1.0, y), y


def _artanh_ratio_mp(Kd, r):
    """artanh(phi_K(r)) / artanh(r^(1/K)), phi_K by theta functions on the well-conditioned side."""
    y = mu_mp_from_r(r) / Kd
    if y >= mp.pi / 2:
        q = mp.exp(-2 * y)
        s = (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 2
        comp = mp.sqrt((1 - s) * (1 + s))
    else:
        q = mp.exp(-mp.pi ** 2 / (2 * y))
        comp = (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 2
        s = mp.sqrt((1 - comp) * (1 + comp))
    return (mp.log1p(s) - mp.log(comp)) / mp.atanh(mp.exp(mp.log(r) / Kd))


def test_artanh_ratio_seeded_sweep():
    # the experiment's ratios within 1e-15 relative: artanh from the complement
    # channel where phi_K(r) nears 1, and 1 - r^(1/K) from expm1
    from qcfun.identities import R_GRID, _artanh_ratio, experiment

    rng = random.Random(1515)
    for Kd in (1.5, 3.0, 7.0, 20.0, 100.0):
        g = experiment("artanh_ratio", K=Kd)["g"]
        for r, value in zip(R_GRID, g):
            assert _rel_err(value, _artanh_ratio_mp(Kd, mp.mpf(r))) <= 1e-15, (Kd, r)
        for r in (rng.uniform(1e-3, 0.999) for _ in range(30)):
            assert _rel_err(_artanh_ratio(Kd, r), _artanh_ratio_mp(Kd, mp.mpf(r))) <= 1e-15, (Kd, r)


def _linearized_slope_mp(sig, K, x, g0):
    """g'(x) of g = p o phi^a_K o p^-1, p = logit, by a central difference of the mpmath map."""
    y_sym = mp.pi / (2 * mp.sin(mp.pi * sig))

    def mu_logit(s):
        # mu_a at r = 1/(1+e^-s), with r^2 and r'^2 formed from e^-s
        e = mp.exp(-s)
        return y_sym * mp.hyp2f1(sig, 1 - sig, 1, e * (2 + e) / (1 + e) ** 2) / mp.hyp2f1(sig, 1 - sig, 1, 1 / (1 + e) ** 2)

    def g(t):
        target = mu_logit(t) / K
        return mp.findroot(lambda s: mu_logit(s) - target, mp.mpf(g0))

    h = mp.mpf("1e-20")
    return (g(x + h) - g(x - h)) / (2 * h)


def test_linearize_phi_a_slopes_seeded():
    # the closed-form slopes within their stated error of an mpmath difference quotient
    from qcfun.distortion import _logit_conjugate
    from qcfun.identities import _SLOPE_ERR, experiment

    rng = random.Random(1515)
    with mp.workdps(60):
        for a, K in ((1.0 / 3.0, 2.0), (0.25, 3.0), (1.0 / 6.0, 1.5), (0.1, 5.0)):
            # the closed forms run at the exact signature, the series at the double a
            sig = mp.mpf(1) / round(1.0 / a) if a != 0.1 else mp.mpf(a)
            obs = experiment("linearize_phi_a", a=a, K=K)
            for i in [0, len(obs["x"]) - 1] + rng.sample(range(1, len(obs["x"]) - 1), 2):
                x = obs["x"][i]
                g0 = _logit_conjugate(lambda u: phi_aK(a, K, u), x)
                want = _linearized_slope_mp(sig, mp.mpf(K), mp.mpf(x), g0)
                assert _rel_err(obs["slope"][i], want) <= _SLOPE_ERR, (a, K, x)


def test_mu_a_inv_scaled_to_signature():
    for a in (0.01, 1.0 / 3.0):
        y_sym = math.pi / (2.0 * math.sin(math.pi * a))
        for scale in (0.5, 1.0, 3.0):
            y = y_sym * scale
            assert abs(mu_a(a, mu_a_inv(a, y)) - y) <= 1e-11 * max(1.0, y)


def _phi_mp(Kd, r):
    target = mu_mp_from_r(r) / Kd
    lo, hi = mp.mpf("1e-45"), 1 - mp.mpf("1e-45")
    for _ in range(220):
        mid = (lo + hi) / 2
        if mu_mp_from_r(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("Kd", [0.2, 2.7])
def test_phi_against_reference_bisection(Kd):
    for r in (0.05, 0.5):
        want = _phi_mp(mp.mpf(Kd), r)
        assert rel(phi_K(Kd, r).r, want) < 5e-12


EPS = 2.0 ** -52


def _inv_mp(y):
    """(r, r') with mu(r) = y, by theta functions at the nome of the larger of y and its dual."""
    if y < mp.pi / 2:
        comp, r = _inv_mp(mp.pi ** 2 / (4 * y))
        return r, comp
    q = mp.exp(-2 * y)
    t3 = mp.jtheta(3, 0, q)
    return (mp.jtheta(2, 0, q) / t3) ** 2, (mp.jtheta(4, 0, q) / t3) ** 2


def _rel_err(got, want):
    return abs(mp.mpf(got) / want - 1)


def _mu_mp_of_m(m):
    """mu at the radius sqrt(m), for an exact m in (0,1)."""
    return mp.pi / 2 * mp.ellipk(1 - m) / mp.ellipk(m)


def test_phi_condition_scaled_accuracy():
    # phi_K's docstring: radius within 4 eps max(1, y), complement within
    # 4 eps max(1, y*), y = mu(r)/K and y* = pi^2/(4y), on both input channels
    rng = random.Random(912)
    for _ in range(300):
        K = math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
        x = math.exp(rng.uniform(math.log(1e-12), math.log(0.5)))
        if rng.random() < 0.5:
            u, y = UnitRadius.from_comp(x), mu_mp_from_comp(x) / K
        else:
            u, y = UnitRadius.from_r(x), mu_mp_from_r(x) / K
        try:
            v = phi_K(K, u)
        except ConvergenceError:  # the radius or its complement underflows
            continue
        r, comp = _inv_mp(y)
        assert _rel_err(v.r, r) <= 4 * EPS * max(1, y), (K, x)
        assert _rel_err(v.comp, comp) <= 4 * EPS * max(1, mp.pi ** 2 / (4 * y)), (K, x)


def _mu_a_slope_mp(sig, x):
    """(mu_a(x), (1 - x^2) F(x^2)^2) at an exact double x in (0,1): d log x / d mu_a is minus the second."""
    if x < 1e-30:  # the asymptote R/2 - log x and F = 1, off by O(x^2 log x)
        return (-2 * mp.euler - mp.digamma(sig) - mp.digamma(1 - sig)) / 2 - mp.log(x), mp.mpf(1)
    # F(1 - x^2) needs x^2 to survive the subtraction
    with mp.workdps(40 + max(0, int(-2 * math.log10(min(x, math.sqrt((1 - x) * (1 + x))))))):
        x = mp.mpf(x)
        x_sq, comp_sq = x * x, (1 - x) * (1 + x)
        f, f_comp = mp.hyp2f1(sig, 1 - sig, 1, x_sq), mp.hyp2f1(sig, 1 - sig, 1, comp_sq)
        return mp.pi / (2 * mp.sin(mp.pi * sig)) * f_comp / f, comp_sq * f * f


@pytest.mark.parametrize("a", [0.5, 0.25, 1.0 / 3.0, 1.0 / 6.0], ids=["half", "quarter", "third", "sixth"])
def test_phi_a_condition_scaled_accuracy(a):
    # phi_aK's docstring: radius within 4 eps max(1, y), complement within 4 eps max(1, y*),
    # y = mu_a(r)/K and y* = y_sym^2 / y; the exact pair is one Newton step in log s from
    # the result's smaller channel s
    rng = random.Random(914)
    sig = 1 / mp.mpf(round(1 / a))
    with mp.workdps(40):
        y_sym_sq = (mp.pi / (2 * mp.sin(mp.pi * sig))) ** 2
        for _ in range(250):
            K = math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
            x = math.exp(rng.uniform(math.log(1e-12), math.log(0.5)))
            complement = rng.random() < 0.5
            u = UnitRadius.from_comp(x) if complement else UnitRadius.from_r(x)
            m = _mu_a_slope_mp(sig, x)[0]
            y = (y_sym_sq / m if complement else m) / K
            try:
                v = phi_aK(a, K, u)
            except ConvergenceError:  # the radius or its complement underflows
                continue
            swap = v.r > v.comp
            s, t = (v.comp, y_sym_sq / y) if swap else (v.r, y)
            value, slope = _mu_a_slope_mp(sig, s)
            s_exact = s * mp.exp((value - t) * slope)
            big_exact = mp.sqrt(1 - s_exact * s_exact)
            r, comp = (big_exact, s_exact) if swap else (s_exact, big_exact)
            assert _rel_err(v.r, r) <= 4 * EPS * max(1, y), (K, x, complement)
            assert _rel_err(v.comp, comp) <= 4 * EPS * max(1, y_sym_sq / y), (K, x, complement)


def test_eta_and_lambda_condition_scaled_accuracy():
    # the docstrings' 12 eps max(1, y, y*), with y the modulus of u and y* of its complement
    rng = random.Random(913)
    for _ in range(300):
        K = math.exp(rng.uniform(0.0, math.log(50.0)))
        t = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        y = _mu_mp_of_m(mp.mpf(t) / (1 + mp.mpf(t))) / K
        r, comp = _inv_mp(y)
        bound = 12 * EPS * max(1, y, mp.pi ** 2 / (4 * y))
        assert _rel_err(eta_K2(K, t), (r / comp) ** 2) <= bound, (K, t)
    for _ in range(300):
        K = math.exp(rng.uniform(0.0, math.log(200.0)))
        r, comp = _inv_mp(mp.pi / (2 * mp.mpf(K)))
        assert _rel_err(lambda_of_K(K), (r / comp) ** 2) <= 12 * EPS * max(1, mp.pi * K / 2), K


def _mu_mp_of_squares(r_sq, comp_sq):
    """mu at the radius with r^2 = r_sq and r'^2 = comp_sq, each given exactly."""
    return mp.pi / 2 * agm_mp(mp.mpf(1), mp.sqrt(comp_sq)) / agm_mp(mp.mpf(1), mp.sqrt(r_sq))


def test_capacities_seeded_sweep():
    # the docstrings' 2 eps: tau_2 with t log-spread on [1e-300, 1e300], gamma_2
    # with s - 1 log-spread from 2^-52 to 1e100, and both at the ends of the doubles
    rng = random.Random(1316)
    ts = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(1000)] + [5e-324, 1e-17, 1.0, 1.7976931348623157e308]
    for t in ts:
        tm = mp.mpf(t)
        assert _rel_err(teichmuller_tau2(t), mp.pi / _mu_mp_of_squares(1 / (1 + tm), tm / (1 + tm))) <= 2 * EPS, t
    ss = [1.0 + 2.0 ** rng.uniform(-52.0, math.log2(1e100)) for _ in range(1000)]
    for s in ss + [1.0 + EPS, 1.0 + 1e-10, 1.7976931348623157e308]:
        sm = mp.mpf(s)
        want = 2 * mp.pi / _mu_mp_of_squares(1 / sm ** 2, (sm - 1) * (sm + 1) / sm ** 2)
        assert _rel_err(grotzsch_gamma2(s), want) <= 2 * EPS, s


def test_capacity_inverses_condition_scaled_accuracy():
    # the docstrings' claims: tau2_inv within 12 eps max(1, pi/y, y/pi), gamma2_inv within
    # 3 eps max(1, 2 pi/y), c(2,K) = 1 + tau2_inv(tau2(1)/K) within 5 eps max(1, pi K/2),
    # against theta functions at the exact modulus pi/y, 2 pi/y or pi K/2
    rng = random.Random(1318)
    for _ in range(300):
        y = math.exp(rng.uniform(math.log(0.009), math.log(450.0)))
        r, comp = _inv_mp(mp.pi / mp.mpf(y))
        assert _rel_err(tau2_inv(y), (comp / r) ** 2) <= 12 * EPS * max(1, math.pi / y, y / math.pi), y
    for _ in range(300):
        y = math.exp(rng.uniform(math.log(0.0089), math.log(900.0)))
        r, _ = _inv_mp(2 * mp.pi / mp.mpf(y))
        assert _rel_err(gamma2_inv(y), 1 / r) <= 3 * EPS * max(1, 2 * math.pi / y), y
    for _ in range(300):
        K = math.exp(rng.uniform(0.0, math.log(226.0)))
        r, comp = _inv_mp(mp.pi * mp.mpf(K) / 2)
        got = bound_value(BoundId.VuorinenC2, [K])
        assert _rel_err(got, 1 + (comp / r) ** 2) <= 5 * EPS * max(1, math.pi * K / 2), K


def test_eta_large_t_complement_reference():
    Kd, t = 4.0, 10.0
    target = mu_mp_from_r(math.sqrt(t / (1.0 + t))) / Kd
    lo, hi = mp.mpf("1e-45"), mp.mpf("0.99")
    for _ in range(220):
        mid = mp.sqrt(lo * hi)
        if mu_mp_from_comp(mid) < target:
            lo = mid
        else:
            hi = mid
    c_star = mp.sqrt(lo * hi)
    want = (1 - c_star * c_star) / (c_star * c_star)
    assert rel(eta_K2(Kd, t), want) < 1e-10


def test_digamma_reference():
    for x in (1e-3, 0.07, 2.345, 9.99, 10.01, 170.0):
        assert rel(digamma_fn(x), mp.digamma(mp.mpf(x))) < 1e-13


def test_beta_gamma_route_below_170():
    # Gamma(a)Gamma(b)/Gamma(a+b) is within 1e-15 of the rounded arguments'
    # value; the lgamma route, about 1e-13 off near a + b = 170, fails this
    rng = random.Random(2024)
    for _ in range(200):
        a = rng.uniform(80.0, 85.0)
        b = rng.uniform(80.0, 170.0 - a)
        want = mp.gamma(a) * mp.gamma(b) / mp.gamma(a + b)  # a + b as rounded
        assert abs(beta_fn(a, b) / want - 1) < 1e-14


def test_boundary_gamma_route_below_171():
    # case A constant Gamma(c)Gamma(d)/(Gamma(c-a)Gamma(c-b)), d = c-a-b, for
    # c up to 171, where products of two gammas overflow and the lgamma
    # route is about 3e-13 off
    rng = random.Random(7)
    for _ in range(300):
        c = rng.uniform(1.0, 171.0)
        d = rng.uniform(0.05, c - 0.1)
        a = rng.uniform(0.025, c - d - 0.025)
        p = HypergeomParams(a, c - d - a, c)
        d = p.c - (p.a + p.b)  # the differences as the library rounds them
        want = mp.gamma(p.c) * mp.gamma(d) / (mp.gamma(p.c - p.a) * mp.gamma(p.c - p.b))
        assert abs(hypergeom_boundary(p).constant / want - 1) < 1e-14


def test_product_reference():
    for r in (0.01, 0.7071067811865476, 0.9999):
        r_m = mp.mpf(r)
        rn = mp.sqrt((1 - r_m) * (1 + r_m))
        logp = mp.mpf(0)
        for n in range(400):
            logp += mp.log(1 + rn) / 2 ** n
            if abs(rn - 1) < mp.mpf(10) ** -48:
                logp += mp.log(2) / 2 ** n
                break
            rn = 2 * mp.sqrt(rn) / (1 + rn)
        assert rel(agm_product_p(r), mp.e ** logp) < 1e-12


def test_balanced_gauss_f_sweep():
    # a, b log-spread over (0, 60]: within 1e-12, or a typed error; for a, b
    # above about 1 the connection series has negative terms R_n - log w
    rng = random.Random(1313)
    for _ in range(300):
        a = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
        b = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
        w = 10.0 ** rng.uniform(-12.0, math.log10(0.5))
        r = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
        p = HypergeomParams(a, b, a + b)
        for got, want in ((lambda: gauss_F_near_one(a, b, w), lambda: mp.hyp2f1(a, b, p.c, 1 - mp.mpf(w))),
                          (lambda: gauss_F(p, r), lambda: mp.hyp2f1(a, b, p.c, r))):
            try:
                value = got()
            except QcfunError:
                continue
            assert abs(value / want() - 1) < 1e-12, (a, b, w, r)


def _rho_mp(a, b):
    a, b = mp.mpc(*a), mp.mpc(*b)
    return 2 * mp.atanh(abs(a - b) / abs(1 - mp.conj(a) * b))


def _on_circle(rng, radius):
    t = rng.uniform(0.0, 2.0 * math.pi)
    return radius * math.cos(t), radius * math.sin(t)


def test_rho_disk_condition_scaled_accuracy():
    # the docstring's 4 eps / min(1 - |a|^2, 1 - |b|^2), on interior pairs,
    # pairs nearly on one diameter, pairs near the circle and close pairs
    rng = random.Random(1314)
    for _ in range(200):
        t, e = rng.uniform(0.0, 2.0 * math.pi), 10.0 ** rng.uniform(-16.0, -10.0)
        s1, s2 = rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)
        a = _on_circle(rng, rng.uniform(0.0, 0.99))
        step = _on_circle(rng, 10.0 ** rng.uniform(-12.0, -4.0))
        for p, q in ((_on_circle(rng, rng.uniform(0.0, 0.9)), _on_circle(rng, rng.uniform(0.0, 0.9))),
                     ((s1 * math.cos(t), s1 * math.sin(t)), (s2 * math.cos(t + e), s2 * math.sin(t + e))),
                     (_on_circle(rng, 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)),
                      _on_circle(rng, 1.0 - 10.0 ** rng.uniform(-12.0, -2.0))),
                     (a, (a[0] + step[0], a[1] + step[1]))):
            want = _rho_mp(p, q)
            gap = min(1 - mp.mpf(p[0]) ** 2 - mp.mpf(p[1]) ** 2, 1 - mp.mpf(q[0]) ** 2 - mp.mpf(q[1]) ** 2)
            assert abs(rho_disk(p, q) / want - 1) <= 4 * EPS / gap, (p, q)


def _log_mean_of_one_mp(kind, u):
    """log M(1, e^u) at enough digits that the 1 + O(u) of a small u keeps 40 of its own."""
    with mp.workdps(int(50 + max(0, -mp.log10(-u)))):
        if kind is MeanKind.Arithmetic:
            return +mp.log1p(mp.expm1(u) / 2)
        if kind is MeanKind.Logarithmic:
            return +mp.log(mp.expm1(u) / u)
        return +mp.log(mp.agm(1, mp.exp(u)))


def _mean_mod_point(rng, log_t):
    """(t, x, y): t log-spread over [10^-log_t, 10^log_t], x and y over [1e-300, 1e300], a fifth of y close to x."""
    x = 10.0 ** rng.uniform(-300.0, 300.0)
    y = x * (1.0 + 10.0 ** rng.uniform(-15.0, 0.0)) if rng.random() < 0.2 else 10.0 ** rng.uniform(-300.0, 300.0)
    return 10.0 ** rng.uniform(-log_t, log_t), x, y


@pytest.mark.parametrize("log_t", [3.0, 300.0])
def test_mean_mod_seeded_sweep(log_t):
    # the docstring's 2 eps (1 + |log(x/y)|), with t over [1e-3, 1e3] and over
    # [1e-300, 1e300], and at the ends of the doubles, where M_t is far below max(x, y) e^-708
    rng = random.Random(1317 + int(log_t))
    ends = [(1e-6, 1.7976931348623157e308, 5e-324), (1e-200, 1e308, 5e-324), (1e300, 1e308, 1e-308)]
    for kind in (MeanKind.Arithmetic, MeanKind.Logarithmic, MeanKind.ArithmeticGeometric):
        for t, x, y in [_mean_mod_point(rng, log_t) for _ in range(300)] + ends:
            hi, lo = max(mp.mpf(x), mp.mpf(y)), min(mp.mpf(x), mp.mpf(y))
            want = hi * mp.exp(_log_mean_of_one_mp(kind, t * mp.log(lo / hi)) / t)
            bound = 2 * EPS * (1 + abs(math.log(x) - math.log(y)))
            assert _rel_err(mean_mod(kind, t, x, y), want) <= bound, (kind, t, x, y)
