"""Gamma family and hypergeometric series tests.

Derived expected values were computed with independent oracles (AGM iteration,
raw partial sums, closed reflection formulas) and frozen here.
"""

import itertools
import math
import random
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
    QcfunError,
    beta_fn,
    digamma_fn,
    gamma_fn,
    gauss_F,
    hypergeom_boundary,
    mu_a,
    mu_a_derivative,
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

    @pytest.mark.parametrize("x", [5e-324, 1e-320, 5.5e-309])
    def test_pole_overflow_is_typed(self, x):
        # psi(x) ~ -1/x leaves the double range below about 5.6e-309
        with pytest.raises(OverflowSignal, match="digamma_fn"):
            digamma_fn(x)

    def test_last_finite_near_pole(self):
        assert digamma_fn(1e-308) == pytest.approx(-1e308, rel=1e-15)

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

    @pytest.mark.parametrize("a,b", [(500.0, 800.0), (1e155, 2.0), (2.0, 1e155)])
    def test_below_the_normal_range_is_typed(self, a, b):
        # B(500, 800) = 9.7e-378 (mpmath) and B(1e155, 2) = 1e-310 lie below the normal doubles
        with pytest.raises(OverflowSignal, match="beta_fn"):
            beta_fn(a, b)

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

    @pytest.mark.parametrize("a,b", [(1e-320, 0.5), (0.5, 1e-320), (1e-308, 1e-308)])
    def test_overflow_is_typed(self, a, b):
        # each psi is finite at 1e-308, but R ~ 1/a + 1/b is not
        with pytest.raises(OverflowSignal):
            ramanujan_R(a, b)

    @pytest.mark.parametrize("call", [lambda: mu_a(1e-320, 0.5), lambda: mu_a_derivative(1e-320, 0.5),
                                      lambda: hypergeom_boundary(HypergeomParams(1e-320, 0.5, 0.5))])
    def test_subnormal_signature_overflows(self, call):
        # the forward series and case B need R(a, b), which overflows here
        with pytest.raises(OverflowSignal):
            call()


class TestGaussF:
    def test_at_zero(self):
        assert gauss_F(HypergeomParams(0.7, 1.3, 2.1), 0.0) == 1.0

    def test_at_zero_with_overflowing_coefficients(self):
        # (a)(b) = inf and inf * 0 = nan: the series would run to its cap
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

    def test_params_tuple_validates_every_constructor(self):
        p = HypergeomParams(0.5, 0.5, 1.0)
        assert p == (0.5, 0.5, 1.0) and repr(p) == "HypergeomParams(a=0.5, b=0.5, c=1.0)"
        assert p._replace(c=2.0) == (0.5, 0.5, 2.0) and HypergeomParams._make((1.0, 2.0, 3.0)).c == 3.0
        with pytest.raises(DomainError):
            p._replace(c=-1.0)
        with pytest.raises(DomainError):
            HypergeomParams._make((0.5, math.nan, 1.0))
        with pytest.raises(AttributeError):
            p.a = 2.0
        with pytest.raises(AttributeError):
            p.d = 2.0

    def test_zero_balanced_is_exact(self):
        assert HypergeomParams(0.25, 0.75, 1.0).zero_balanced
        # c - a - b = 0.5 here, yet within 1e-12 c: the balanced route gave 859894.17
        # against the true 1000011.06; the direct series is refused before it runs
        p = HypergeomParams(0.5, 1e12, 1e12)
        assert not p.zero_balanced
        with pytest.raises(ConvergenceError):
            gauss_F(p, 1.0 - 1e-12)

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

    @pytest.mark.parametrize("a,b", [(1e-320, -1.0), (-1.0, 1e-320), (0.5, 0.0), (math.nan, 0.5)])
    def test_near_one_parameter_domain(self, a, b):
        # an overflowing R(1e-320, .) must not send b = -1 to the direct series
        with pytest.raises(DomainError):
            gauss_F_near_one(a, b, 0.25)

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


class TestSeriesBudget:
    # each needs far more than _SERIES_CAP terms; the last-term rule summed 2 million
    # of them first (1.2-2.1 s) and then raised
    @pytest.mark.parametrize("abc, r", [((0.3, 0.4, 1.2), 1.0 - 1e-8), ((0.5, 0.5, 2.0), 1.0 - 1e-12),
                                        ((1.0, 1.0, 2.5), 1.0 - 1e-8), ((0.7, 0.8, 1.2), 1.0 - 1e-9),
                                        ((1e-12, 0.5, 1.0), 1.0 - 1e-12)])
    def test_refused_before_the_loop(self, abc, r):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="needs more than"):
            gauss_F(HypergeomParams(*abc), r)
        assert time.perf_counter() - start < 0.05

    def test_budget_keeps_the_polynomial_factor(self):
        # z^n alone would refuse both: n^(a+b-c-1) ends the series in a few hundred terms
        assert gauss_F(HypergeomParams(1.0, 1.0, 100.0), 1.0 - 1e-8) == pytest.approx(1.0102040815285083, rel=1e-15)
        assert gauss_F(HypergeomParams(2.0, 3.0, 40.0), 1.0 - 1e-12) == pytest.approx(1.1761904761902686, rel=1e-15)

    def test_tiny_terms_end_the_series(self):
        # t_n ~ 1e-12 / n^2 with z = 1 - 1e-12: the bound t_n x/(n - x) stops the series after
        # about 1e4 terms, where t_n z/(1 - z) alone would need 1e8; terms ~ 1e-320 stop at once
        assert gauss_F(HypergeomParams(1.0, 1e-12, 2.0), 1.0 - 1e-12) == pytest.approx(1.000000000001, rel=1e-15)
        assert gauss_F(HypergeomParams(2.0, 1e-320, 1.0), 1.0 - 1e-12) == 1.0

    @pytest.mark.parametrize("abc", [(1e308, 1e-320, 1e12), (1e-320, 1e308, 1e12)])
    def test_extreme_ratio_is_formed_exactly(self, abc):
        # b/c = 1e-332 is not a double, but t_1 = 5e-25 and t_2 = 1.25e271 are: t_3 overflows
        with pytest.raises(OverflowSignal):
            gauss_F(HypergeomParams(*abc), 0.5)

    @pytest.mark.parametrize("abc, r, want", [
        # F(a, b; a; r) = (1-r)^-b; b/c = .5/1e-320 is not a double, t_1 = a b r/c is
        ((1e-320, 0.5, 1e-320), 0.5, math.sqrt(2.0)),
        ((1e-320, 1000.0, 1e-320), 0.5, 2.0 ** 1000),
        ((1e-320, 1e12, 1e-320), 1e-12, 2.7182818284604044),
        # F = 1 + a b r/c + ... with a b r/c = 5e-13 (mpmath: 1.0000000000005)
        ((1e-12, 0.5, 1e-320), 1e-320, 1.0000000000005),
    ])
    def test_subnormal_c_ratio(self, abc, r, want):
        assert gauss_F(HypergeomParams(*abc), r) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("abc, r, want", [
        # 30-digit mpmath; the terms change sign until c + n > 0
        ((0.5, 0.5, -0.5), 0.3, 0.68298777676251067307557425409),
        ((0.5, 0.5, -2.5), 0.3, 0.92551813014348383140746899903),
        ((1.5, 0.7, -1.3), 0.6, 75.7882410381700167584686522428),
    ])
    def test_negative_c(self, abc, r, want):
        assert gauss_F(HypergeomParams(*abc), r) == pytest.approx(want, rel=1e-15)

    def test_terms_past_the_double_range(self):
        # F(1, 1000; 1; .9) = 10^1000: the terms overflow inside the loop
        with pytest.raises(OverflowSignal):
            gauss_F(HypergeomParams(1.0, 1000.0, 1.0), 0.9)

    def test_overflowing_coefficients_pair_in_the_ratio(self):
        # (a+n)(b+n) and (c+n)(n+1) overflow alike: F(2, b; b; z) = (1-z)^-2
        assert gauss_F(HypergeomParams(2.0, 1e308, 1e308), 0.5) == 4.0
        # the connection series has a negative term; F(1/2, b; b; 1/2) = sqrt 2
        assert gauss_F_near_one(0.5, 1e308, 0.5) == pytest.approx(math.sqrt(2.0), rel=2e-16)

    @pytest.mark.parametrize("a, b", [(1e-310, 10.0), (1e-320, 1000.0), (1000.0, 1e-320)])
    def test_near_one_falls_back_where_r_overflows(self, a, b):
        # R(a, b) ~ 1/a is not a double, so neither is S1; F(a, b; b; 1/2) = 2^a = 1.  At
        # (1e-320, 1000) the terms of S0 stall at 5e-324 and S1 could not stop before the cap
        start = time.perf_counter()
        assert gauss_F_near_one(a, b, 0.5) == 1.0
        assert time.perf_counter() - start < 0.05

    def test_near_one_at_subnormal_complement_is_bounded(self):
        # 1 - 1e-320 rounds to 1: the direct fallback is refused, not run to the cap
        grid = (1e-320, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 2.0, 1e3, 1e12, 1e308)
        for a, b in itertools.product(grid, repeat=2):
            start = time.perf_counter()
            try:
                gauss_F_near_one(a, b, 1e-320)
            except QcfunError:
                pass
            assert time.perf_counter() - start < 0.05, (a, b)

    @pytest.mark.parametrize("w", [0.5, 1e-12])
    def test_near_one_with_a_plus_b_past_the_double_range(self, w):
        # a + b = inf made (b+n)/(c+n) = 0 and the direct fallback returned 1.0; F(1e308, 1e308;
        # 2e308; 1-w) > e^(2.5e307) overflows
        with pytest.raises(OverflowSignal):
            gauss_F_near_one(1e308, 1e308, w)

    def test_budget_agrees_with_the_loop(self, monkeypatch):
        # at a 400-term cap: a refusal means the loop needs more terms, and where the check is
        # skipped the loop stops within the cap
        calls, check = [], specfun._refuse_past_cap
        monkeypatch.setattr(specfun, "_refuse_past_cap", lambda *args: calls.append(args) or check(*args))
        rng = random.Random(14)
        for _ in range(300):
            a, b = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
            c = a + b + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
            if c <= 0.0:
                c = -rng.uniform(0.05, 2.95)  # the terms change sign until c + n > 0
            z = 1.0 - 10.0 ** rng.uniform(-3.5, -0.5)
            monkeypatch.setattr(specfun, "_SERIES_CAP", 400)
            calls.clear()
            try:
                specfun._hyp_sums(a, b, c, z)
                outcome = "value"
            except ConvergenceError as exc:
                outcome = "refused" if "needs more than" in str(exc) else "capped"
            checked = bool(calls)
            monkeypatch.setattr(specfun, "_SERIES_CAP", 10**6)
            n = specfun._hyp_sums(a, b, c, z)[2]
            assert (outcome == "value") == (n <= 400), (a, b, c, z, outcome, n)
            assert checked or outcome == "value", (a, b, c, z, n)

    def test_cap_exhausted_is_typed(self, monkeypatch):
        # no stop comes before c + n > 0, past a 50-term cap: the loop reaches its cap exit
        monkeypatch.setattr(specfun, "_SERIES_CAP", 50)
        with pytest.raises(ConvergenceError, match="did not converge within 50 terms"):
            gauss_F(HypergeomParams(0.5, 0.5, -60.5), 0.5)

    @pytest.mark.parametrize("abc, r", [((0.5, 0.5, -0.5), 1.0 - 1e-8), ((0.5, 0.5, -2.5), 1.0 - 1e-9),
                                        ((1.5, 0.7, -1.3), 1.0 - 1e-7)])
    def test_negative_c_refused_once_the_terms_keep_one_sign(self, abc, r):
        # the budget runs on the rest from c + n > 0; before it, these ran all 4.5 million terms
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=r"F\(%s, %s; %s; .*needs more than" % abc):
            gauss_F(HypergeomParams(*abc), r)
        assert time.perf_counter() - start < 0.05


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

    def test_case_a_shift_is_min_ab_itself(self):
        # c - min(a,b) and c - a - b round here: a shift taken as c - (c - min(a,b)) leaves
        # 2.4e-9, min(a,b) itself 7.3e-10, the rounding of c - a - b (50-digit mpmath of
        # the exact Gauss quotient)
        a, b, c = 78892.86573571073, 0.001290358260520588, 78892.86990799762
        want = 1.4700431999884728974
        assert abs(hypergeom_boundary(HypergeomParams(a, b, c)).constant / want - 1) < 1e-9

    def test_case_c_where_both_betas_underflow_against_mpmath(self):
        # B(500, 800) = 9.7e-378 and B(1000, 300) leave the doubles, D does not: 50-digit mpmath,
        # within 32 eps max(1, m log x), shift m = 1000 - 800 and largest argument x = 1000
        want = 5.7293686882493507430e-72
        got = hypergeom_boundary(HypergeomParams(1000.0, 300.0, 500.0)).constant
        assert abs(got - want) <= 32 * 2.0 ** -52 * 200 * math.log(1000.0) * want

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
