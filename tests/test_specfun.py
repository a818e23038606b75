"""Gamma family and hypergeometric series tests.

Derived expected values were computed with independent oracles (AGM iteration,
raw partial sums, closed reflection formulas) and frozen here.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcfun import (
    EULER_GAMMA,
    BoundaryCase,
    ConvergenceError,
    DomainError,
    HypergeomParams,
    OverflowSignal,
    beta_fn,
    digamma_fn,
    gamma_fn,
    gauss_F,
    hypergeom_boundary,
    ramanujan_R,
)
from qcfun import specfun
from qcfun.specfun import gauss_F_near_one

# frozen oracle values
DIGAMMA_HALF = -1.9635100260214235  # -gamma_E - 2 log 2
BETA_THIRDS = 3.6275987284684357    # 2 pi / sqrt 3 via reflection
R_THIRDS = 3.2958368660043291       # -psi(1/3) - psi(2/3) - 2 gamma_E = 3 ln 3
F_HALF_QUARTER = 1.0731820071493644  # (2/pi) K(0.5) via AGM oracle


def agm_oracle(a, b):
    # independent two-term iteration, run to the float fixed point
    for _ in range(80):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        if a == b:
            break
    return a


def series_oracle(a, b, c, r, n_terms):
    total, term = 1.0, 1.0
    for n in range(n_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * r
        total += term
    return total


class TestGamma:
    def test_factorial_points(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    def test_overflow_signal(self):
        with pytest.raises(OverflowSignal):
            gamma_fn(172.0)

    def test_accuracy_range(self):
        for x in (1e-3, 0.1, 2.5, 17.0, 170.0):
            assert gamma_fn(x) == pytest.approx(math.exp(math.lgamma(x)), rel=1e-13)


class TestDigamma:
    def test_at_one(self):
        assert digamma_fn(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_two(self):
        assert digamma_fn(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_at_half(self):
        assert digamma_fn(0.5) == pytest.approx(DIGAMMA_HALF, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma_fn(0.0)
        with pytest.raises(DomainError):
            digamma_fn(-3.0)

    @given(st.floats(min_value=0.01, max_value=60.0))
    @settings(max_examples=50, deadline=None)
    def test_recurrence(self, x):
        assert digamma_fn(x + 1.0) - digamma_fn(x) == pytest.approx(1.0 / x, rel=1e-10, abs=1e-12)


class TestBeta:
    def test_ones(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_halves(self):
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_thirds_reflection(self):
        assert beta_fn(1.0 / 3.0, 2.0 / 3.0) == pytest.approx(BETA_THIRDS, rel=1e-12)

    def test_symmetry(self):
        assert beta_fn(0.3, 1.7) == pytest.approx(beta_fn(1.7, 0.3), rel=1e-15)

    @pytest.mark.parametrize("a,b", [(160.0, 1e-300), (1e-300, 160.0)])
    def test_one_tiny_argument(self, a, b):
        # Gamma(160) Gamma(1e-300) overflows though B = 1e300 (mpmath 9.99999999999999975e299)
        assert beta_fn(a, b) == pytest.approx(1e300, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_fn(1.0, -2.0)


class TestRamanujanR:
    def test_half_half_is_log16(self):
        assert ramanujan_R(0.5, 0.5) == pytest.approx(math.log(16.0), abs=1e-12)

    def test_half_half_via_digamma(self):
        # algebraic identity: -2 psi(1/2) - 2 gamma_E = 4 log 2
        assert -2.0 * digamma_fn(0.5) - 2.0 * EULER_GAMMA == pytest.approx(4.0 * math.log(2.0), abs=1e-12)

    def test_thirds(self):
        assert ramanujan_R(1.0 / 3.0, 2.0 / 3.0) == pytest.approx(R_THIRDS, abs=1e-12)

    @pytest.mark.parametrize("a,closed", [(0.5, math.log(16.0)), (1.0 / 3.0, 3.0 * math.log(3.0)),
                                          (0.25, math.log(64.0)), (1.0 / 6.0, math.log(432.0))])
    def test_signature_closed_forms_within_one_ulp(self, a, closed):
        # R(a, 1-a) is the leading term of the fused mu_a series: its error moves mu_a(1/sqrt 2)
        assert abs(ramanujan_R(a, 1.0 - a) - closed) <= math.ulp(closed)

    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.5)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            ramanujan_R(a, b)


class TestGaussF:
    def test_at_zero(self):
        assert gauss_F(HypergeomParams(0.7, 1.3, 2.1), 0.0) == 1.0

    def test_at_zero_with_overflowing_coefficients(self, monkeypatch):
        # (a)(b) = inf and inf * 0 = nan: the series would run to its cap
        monkeypatch.setattr(specfun, "_SERIES_CAP", 2000)
        assert gauss_F(HypergeomParams(1e308, 1e308, 1.0), 0.0) == 1.0

    def test_elliptic_value(self):
        assert gauss_F(HypergeomParams(0.5, 0.5, 1.0), 0.25) == pytest.approx(F_HALF_QUARTER, rel=1e-12)

    def test_elliptic_value_against_agm_oracle(self):
        k_half = math.pi / (2.0 * agm_oracle(1.0, math.sqrt(0.75)))
        assert gauss_F(HypergeomParams(0.5, 0.5, 1.0), 0.25) == pytest.approx(
            2.0 / math.pi * k_half, rel=1e-12)

    def test_log_closed_form(self):
        # F(1,1;2;r) = -log(1-r)/r
        assert gauss_F(HypergeomParams(1.0, 1.0, 2.0), 0.5) == pytest.approx(
            -math.log(0.5) / 0.5, rel=1e-13)

    @pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            gauss_F(HypergeomParams(0.5, 0.5, 1.0), r)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            HypergeomParams(-0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            HypergeomParams(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            HypergeomParams(0.5, 0.5, -2.0)

    def test_balanced_branch_matches_series_oracle(self):
        # validates the near-1 connection coefficients against raw summation at 0.97
        for a in (0.5, 1.0 / 3.0, 1.0 / 6.0):
            p = HypergeomParams(a, 1.0 - a, 1.0)
            direct = series_oracle(a, 1.0 - a, 1.0, 0.97, 3000)
            assert gauss_F(p, 0.97) == pytest.approx(direct, rel=1e-12)

    def test_balanced_branch_continuity_at_switch(self):
        p = HypergeomParams(0.25, 0.75, 1.0)
        below = gauss_F(p, 0.9499999999)
        above = gauss_F(p, 0.9500000001)
        assert below == pytest.approx(above, rel=1e-9)

    @pytest.mark.parametrize("w", [0.0, -1e-300, 0.5000001, math.nan])
    def test_near_one_domain(self, w):
        with pytest.raises(DomainError):
            gauss_F_near_one(0.5, 0.5, w)

    @pytest.mark.parametrize("a,b,w,want", [
        # 30-digit mpmath; the connection series has a negative term R_n - log w in each
        (50.0, 50.0, 1.0 - 0.951, 3392045799965546791862.89706597),
        (10.0, 10.0, 0.5, 24.0747365657313657616414247408),
        (20.0, 20.0, 0.5, 571.610378148181545100583722713),
        (1000.0, 1000.0, 0.5, 3.50833628904319072591749372607e+137),
        (0.1, 50.0, 0.3, 1.12743319477258610815565259722),  # only R_1 < log w
    ])
    def test_near_one_negative_connection_terms(self, a, b, w, want):
        assert gauss_F_near_one(a, b, w) == pytest.approx(want, rel=1e-14)

    def test_balanced_large_parameters_past_the_seam(self):
        # F(50, 50; 100; .951) by the connection series was 3e3 relative off
        value = gauss_F(HypergeomParams(50.0, 50.0, 100.0), 0.951)
        assert value == pytest.approx(3392045799965546791862.89706597, rel=1e-14)

    def test_near_one_refuses_a_direct_series_past_the_cap(self):
        # R(1000, 1000) = -15.0 < log w: about 40 / w = 4e7 direct terms, refused up front
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="negative term"):
            gauss_F_near_one(1000.0, 1000.0, 1e-6)
        assert time.perf_counter() - start < 0.5

    def test_near_one_complement_channel(self):
        # log(1-r) supplied through the complement stays exact for tiny complements
        value = gauss_F_near_one(0.5, 0.5, 1e-30)
        expected = (math.log(16.0) + 30.0 * math.log(10.0)) / math.pi
        assert value == pytest.approx(expected, rel=1e-13)


class TestBoundary:
    def test_case_a_constant(self):
        cls = hypergeom_boundary(HypergeomParams(0.5, 0.5, 2.0))
        assert cls.case is BoundaryCase.A
        assert cls.constant == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_case_a_against_summation_oracle(self):
        # raw partial sums near 1, extrapolated with the F(1) + C w log w + D w
        # defect shape (the log term appears because c - a - b is an integer here)
        def f(r):
            total, term, n = 1.0, 1.0, 0
            while True:
                term *= (0.5 + n) * (0.5 + n) / ((2.0 + n) * (n + 1.0)) * r
                total += term
                n += 1
                if term < 1e-17 * total:
                    return total

        import numpy as np

        ws = np.array([1e-4, 2e-4, 4e-4])
        rhs = np.array([f(1.0 - w) for w in ws])
        design = np.column_stack([np.ones(3), ws * np.log(ws), ws])
        extrapolated = np.linalg.solve(design, rhs)[0]
        cls = hypergeom_boundary(HypergeomParams(0.5, 0.5, 2.0))
        assert cls.constant == pytest.approx(extrapolated, abs=1e-6)

    def test_case_b_constant(self):
        cls = hypergeom_boundary(HypergeomParams(0.5, 0.5, 1.0))
        assert cls.case is BoundaryCase.B
        assert cls.constant == pytest.approx(math.log(16.0), abs=1e-12)

    def test_case_c_constant(self):
        cls = hypergeom_boundary(HypergeomParams(0.5, 0.5, 0.5))
        assert cls.case is BoundaryCase.C
        assert cls.constant == pytest.approx(1.0, rel=1e-13)

    def test_domain(self):
        # the check names hypergeom_boundary; without it beta_fn rejects its own arguments
        with pytest.raises(DomainError, match="hypergeom_boundary requires c > 0"):
            hypergeom_boundary(HypergeomParams(0.5, 0.5, -1.5))


class TestBalancedAsymptotics:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0 / 3.0, 2.0 / 3.0), (0.25, 0.25)])
    def test_limit_constant(self, a, b):
        # B F + log(1-r) -> R(a,b) as r -> 1
        r = 1.0 - 1e-6
        value = beta_fn(a, b) * gauss_F(HypergeomParams(a, b, a + b), r) + math.log(1.0 - r)
        assert abs(value - ramanujan_R(a, b)) < 1e-4

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.25, 0.5)])
    def test_monotone_refinement(self, a, b):
        big_b = beta_fn(a, b)
        p = HypergeomParams(a, b, a + b)

        def f(r):
            return big_b * gauss_F(p, r) + math.log(1.0 - r) / r

        grid = [i / 101.0 for i in range(1, 101)]
        values = [f(r) for r in grid]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
        assert abs(f(1e-8) - (big_b - 1.0)) < 1e-6
        assert abs(f(1.0 - 1e-8) - ramanujan_R(a, b)) < 1e-6

    def test_landen_inequality_grid(self):
        # upper Landen bound for balanced parameters with a + b <= 1
        for a, b in ((0.25, 0.25), (1.0 / 3.0, 0.5)):
            p = HypergeomParams(a, b, a + b)
            for i in range(1, 10):
                r = i / 10.0
                lhs = gauss_F(p, (2.0 * math.sqrt(r) / (1.0 + r)) ** 2)
                rhs = (1.0 + r) * gauss_F(p, r * r)
                assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.0 / 3.0, 0.25])
    def test_derivative_cross_identity(self, a):
        # relative residual of the two-route derivative identity
        r = 0.3
        p1 = HypergeomParams(1.0 + a, 2.0 - a, 2.0)
        p2 = HypergeomParams(a, 1.0 - a, 1.0)
        lhs = gauss_F(p1, 1.0 - r) * gauss_F(p2, r) + gauss_F(p1, r) * gauss_F(p2, 1.0 - r)
        rhs = math.sin(math.pi * a) / (math.pi * a * (1.0 - a) * r * (1.0 - r))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_series_cap_signal():
    with pytest.raises(ConvergenceError):
        # non-balanced series cannot reach 1e-17 tails this close to 1
        gauss_F(HypergeomParams(0.5, 0.5, 2.0), 1.0 - 1e-9)
