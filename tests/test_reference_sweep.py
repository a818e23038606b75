"""Cross-validation against a high-precision reference (skipped without mpmath).

The seeded sweeps are rows of ``contracts.py``, run by ``test_contracts.py``;
the tests here check named points, each at its row's claim, and seams, route
switches, the series engine and its reach, with their own bounds.  The reference modulus is evaluated as the
two-AGM quotient in whichever of (r, r') is held exactly -- a naive
high-precision transcription loses the complement at fixed dps just like
doubles do.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from contracts import EPS, SIGNATURE_NAMES, check, gamma_ratio_mp, mu_a_mp, mu_inv_bisect_mp, mu_mp, squares_mp
from qcfun import specfun
from qcfun.specfun import gauss_F_near_one
from qcfun import HypergeomParams, agm_product_p, eta_K2, gauss_F, hypergeom_boundary, mu_a, mu_a_inv, mu_inv, phi_K

mp.mp.dps = 50


def rel(got, want):
    return abs(mp.mpf(got) - want) / max(1, abs(want))


def _rel_err(got, want):
    return abs(mp.mpf(got) / want - 1)


def mu_a_at(a, r):
    return mu_a_mp(a, *squares_mp(r))[0]


@pytest.mark.parametrize("r", [1e-8, 9.9e-6, 1.01e-5, 1e-3, 0.1, 0.5, 0.9, 0.999,
                               1 - 1e-6, 1 - 1e-8])
def test_mu_radius_channel(r):
    check("mu.nome", [(r, False)])


@pytest.mark.parametrize("c", [1.5e-4, 1.4e-4, 2e-7, 0.99e-7, 1e-9, 1e-50, 1e-150])
def test_mu_complement_channel(c):
    check("mu.nome", [(c, True)])


@pytest.mark.parametrize("gap", [9e-9, 4e-9, 1e-9, 2e-10, 5e-11, 1e-11, 1e-13, 2 ** -52])
def test_ellint_k_near_one(gap):
    # r' = sqrt((1 - r)(1 + r)) holds all of K's digits down to a gap of 2^-52
    check("ellint_K.nome", [(1.0 - gap,)])


@pytest.mark.parametrize("y", [0.004, 0.05, 1.0, 1.58, 20.0, 500.0])
def test_mu_inv_against_reference_modulus(y):
    u = mu_inv(y)
    back = mu_mp(u.comp, True) if u.comp < 0.8 else mu_mp(u.r)
    assert rel(float(back), mp.mpf(y)) < 3e-13


@pytest.mark.parametrize("abc", [(0.5, 0.5, 1.0), (0.3, 0.9, 1.2), (1.5, 0.7, 1.1)])
@pytest.mark.parametrize("r", [0.5, 0.9499, 0.9501])
def test_gauss_f_seam(abc, r):
    a, b, c = abc
    want = mp.hyp2f1(mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(r))
    assert rel(gauss_F(HypergeomParams(a, b, c), r), want) < 1e-12


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


@pytest.mark.parametrize("abc", [(2.0, 3.0, 1e14), (0.5, 0.5, 1e10), (0.5, 0.5, 1e308), (3.0, 150.0, 400.0)])
def test_boundary_gamma_ratio_above_171(abc):
    # the lgamma difference was 6.1e-5 off at (.5, .5, 1e10), 65% at (2, 3, 1e14), overflowed at 1e308
    a, b, c = map(mp.mpf, abc)
    with mp.workdps(40 + int(math.log10(abc[2]))):
        want = gamma_ratio_mp((c, c - a - b), (c - a, c - b))
    assert _rel_err(hypergeom_boundary(HypergeomParams(*abc)).constant, want) < 1e-14


def test_log_gamma_ratio_route_switch():
    # below x = 10 the lgamma difference is within 2.7e-15 here, where the Stirling
    # remainder's first dropped term, 1/(156 x^13), is 1.2e-14 at x = 8
    for x in (8.0, 9.9375, 10.0):
        for d in (1.5, 2.0, 3.0):
            want = mp.loggamma(mp.mpf(x) + d) - mp.loggamma(x)
            assert abs(specfun._log_gamma_ratio(x, d) - want) < 5e-15, (x, d)


@pytest.mark.parametrize("a", [0.01, 1.0 / 6.0, 0.49])
@pytest.mark.parametrize("r", [0.01, 0.5, 0.999])
def test_mu_a_extreme_signatures(a, r):
    assert rel(mu_a(a, r), mu_a_at(a, r)) < 1e-11


@pytest.mark.parametrize("a", [1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 1e-3])
@pytest.mark.parametrize("r_sq", [0.3, 0.5, 0.7, 0.94, 0.96])
def test_mu_a_fused_series(a, r_sq):
    # both sides of r = r', where the single series pass changes formula
    r = math.sqrt(r_sq)
    want = mu_a_at(a, r)
    assert abs(mp.mpf(mu_a(a, r)) - want) / want < 1e-15


@pytest.mark.parametrize("a", [0.01, 0.1, 0.2, 0.3, 0.45])
def test_off_grid_seams_against_mpmath(a):
    # 1e-6 either side of r = r' (the forward duality) and of y = y_sym (the dual target);
    # 5.9e-16 was the worst of these twenty
    y_sym = 0.5 * math.pi / math.sin(math.pi * a)
    for x in (1.0 - 1e-6, 1.0 + 1e-6):
        r = math.sqrt(0.5) * x
        assert abs(mp.mpf(mu_a(a, r)) / mu_a_at(a, r) - 1) <= 6.7e-16, r
        y = y_sym * x
        assert abs(mu_a_at(a, mu_a_inv(a, y).r) / y - 1) <= 6.7e-16, y


@pytest.mark.parametrize("a", [0.5, 0.25, 1.0 / 3.0, 1.0 / 6.0])
@pytest.mark.parametrize("r", [1e-12, 1e-8, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12])
def test_mu_a_closed_forms(a, r):
    # the closed-form routes: mu, mu at the Landen radius, and mu at the
    # signature-6 Legendre radius, reached at 1/3 by the cubic-to-sextic map; value and F
    name = next(n for n, s in SIGNATURE_NAMES.items() if s == a)
    check(f"mu_a.classical.{name}", [(a, r, False)])


def test_mu_a_inv_scaled_to_signature():
    for a in (0.01, 1.0 / 3.0):
        y_sym = math.pi / (2.0 * math.sin(math.pi * a))
        for scale in (0.5, 1.0, 3.0):
            y = y_sym * scale
            assert abs(mu_a(a, mu_a_inv(a, y)) - y) <= 1e-11 * max(1.0, y)


@pytest.mark.parametrize("Kd", [0.2, 2.7])
def test_phi_against_reference_bisection(Kd):
    for r in (0.05, 0.5):
        want = mu_inv_bisect_mp(mu_mp(r) / Kd)[0]
        assert rel(phi_K(Kd, r).r, want) < 5e-12


def test_eta_large_t_complement_reference():
    Kd, t = 4.0, 10.0
    r, comp = mu_inv_bisect_mp(mu_mp(math.sqrt(t / (1.0 + t))) / Kd)
    assert rel(eta_K2(Kd, t), (r / comp) ** 2) < 1e-10


def test_digamma_reference():
    check("digamma_fn", [(x,) for x in (1e-3, 0.07, 2.345, 9.99, 10.01, 170.0)])


def test_agm_far_outlier():
    # 4.18 ulp off by the AGM steps, where the ratio is 1.2e-90; 0.18 by the asymptote
    check("agm.far", [(3.50744446825575e+100, 41658135739.51491)])


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
