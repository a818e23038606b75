"""Cross-validation against a high-precision reference (skipped without mpmath).

The reference modulus is evaluated as the two-AGM quotient in whichever of
(r, r') is held exactly -- a naive high-precision transcription loses the
complement at fixed dps just like doubles do.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from qcfun import (
    HypergeomParams,
    UnitRadius,
    agm_product_p,
    digamma_fn,
    ellint_K,
    eta_K2,
    gauss_F,
    mu,
    mu_a,
    mu_a_inv,
    mu_inv,
    phi_K,
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


@pytest.mark.parametrize("y", [0.004, 0.05, 1.0, 1.58, 20.0, 500.0])
def test_mu_inv_against_reference_modulus(y):
    u = mu_inv(y)
    back = mu_mp_from_comp(u.comp) if u.comp < 0.8 else mu_mp_from_r(u.r)
    assert rel(float(back), mp.mpf(y)) < 3e-13


@pytest.mark.parametrize("abc", [(0.5, 0.5, 1.0), (0.3, 0.9, 1.2), (1.5, 0.7, 1.1)])
@pytest.mark.parametrize("r", [0.5, 0.9499, 0.9501])
def test_gauss_f_seam(abc, r):
    a, b, c = abc
    balanced = abs(c - a - b) < 1e-12
    if not balanced and r > 0.95:
        pytest.skip("direct series only below the seam for unbalanced parameters")
    want = mp.hyp2f1(mp.mpf(a), mp.mpf(b), mp.mpf(c), mp.mpf(r))
    assert rel(gauss_F(HypergeomParams(a, b, c), r), want) < 1e-12


@pytest.mark.parametrize("a", [0.01, 1.0 / 6.0, 0.49])
@pytest.mark.parametrize("r", [0.01, 0.5, 0.999])
def test_mu_a_extreme_signatures(a, r):
    a_m, r_m = mp.mpf(a), mp.mpf(r)
    want = mp.pi / (2 * mp.sin(mp.pi * a_m)) * mp.hyp2f1(
        a_m, 1 - a_m, 1, (1 - r_m) * (1 + r_m)) / mp.hyp2f1(a_m, 1 - a_m, 1, r_m * r_m)
    assert rel(mu_a(a, r), want) < 1e-11


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
