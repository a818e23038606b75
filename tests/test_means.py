"""Mean values and the complete elliptic integral."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracts import contract_test, k_agm
from qcfun import (
    DivergenceError,
    DomainError,
    MeanKind,
    agm,
    ellint_K,
    ellint_Kprime,
    mean,
    mean_mod,
)

# frozen oracle values (two-term AGM iteration run by hand / high precision)
AGM_1_HALF = 0.72839551552345343
K_HALF = 1.6857503548125960
K_INV_SQRT2 = 1.8540746773013719
L32_1_2 = 1.4569364997441582

positive = st.floats(min_value=1e-3, max_value=1e3)


class TestMeans:
    def test_ag_fixed_point(self):
        assert mean(MeanKind.ArithmeticGeometric, 1.0, 1.0) == 1.0

    def test_log_mean_of_e(self):
        assert mean(MeanKind.Logarithmic, math.e, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_log_mean_equal_args(self):
        assert mean(MeanKind.Logarithmic, 2.7, 2.7) == 2.7

    def test_agm_recorded_value(self):
        assert mean(MeanKind.ArithmeticGeometric, 1.0, 0.5) == pytest.approx(AGM_1_HALF, rel=1e-15)

    def test_arithmetic_geometric_basics(self):
        assert mean(MeanKind.Arithmetic, 2.0, 4.0) == 3.0
        assert mean(MeanKind.Geometric, 2.0, 8.0) == pytest.approx(4.0, rel=1e-15)

    def test_far_from_one(self):
        # the sum, the product and the ratio leave the double range here
        assert mean(MeanKind.Arithmetic, 1e308, 1e308) == 1e308
        assert mean(MeanKind.Geometric, 1e200, 1e200) == pytest.approx(1e200, rel=1e-15)
        assert mean(MeanKind.Geometric, 1e-200, 1e-200) == pytest.approx(1e-200, rel=1e-15, abs=0.0)
        assert mean(MeanKind.Logarithmic, 1e308, 1e-308) == pytest.approx(1e308 / (616 * math.log(10.0)), rel=1e-14)
        # the halves of a subnormal round, where the sum keeps its last bit
        assert mean(MeanKind.Arithmetic, 5e-324, 5e-324) == 5e-324
        # log hi - log lo, each rounded near 690, would be 2.5e-15 off the log of the exact ratio 2^10
        assert mean(MeanKind.Logarithmic, 2.0 ** 1000, 2.0 ** 990) == pytest.approx(
            (2.0 ** 1000 - 2.0 ** 990) / (10.0 * math.log(2.0)), rel=1e-15)

    @pytest.mark.parametrize("kind", list(MeanKind))
    def test_infinite_argument(self, kind):
        # L(inf, y) was (inf - y)/log(inf) = inf/inf = NaN
        assert mean(kind, math.inf, 1.0) == math.inf
        assert mean(kind, 1.0, math.inf) == math.inf
        assert mean(kind, math.inf, math.inf) == math.inf

    def test_domain(self):
        for kind in MeanKind:
            with pytest.raises(DomainError):
                mean(kind, 0.0, 1.0)
            with pytest.raises(DomainError):
                mean(kind, 1.0, -2.0)

    @pytest.mark.parametrize("lo, gap", [(0.7, 1e-9), (3.0, 3e-7), (1.3, 1e-12), (2.0, 1e-4)])
    def test_log_mean_close_arguments(self, lo, gap):
        # hi/lo rounds to about 1e-16 relative, which log(hi/lo) would carry into the
        # 1e-9 logarithm; log1p((hi - lo)/lo) keeps the difference exact
        hi = lo * (1.0 + gap)
        d = Fraction(hi) - Fraction(lo)  # exact
        x = d / Fraction(lo)
        # log1p(x) = x - x^2/2 + x^3/3 - ..., summed exactly far past double precision
        log_ratio = sum((-1) ** (k + 1) * x ** k / k for k in range(1, 80))
        expected = float(d / log_ratio)
        assert mean(MeanKind.Logarithmic, lo, hi) == pytest.approx(expected, rel=2e-16)
        assert mean(MeanKind.Logarithmic, hi, lo) == mean(MeanKind.Logarithmic, lo, hi)

    @given(positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_betweenness(self, x, y):
        for kind in MeanKind:
            m = mean(kind, x, y)
            assert m == pytest.approx(mean(kind, y, x), rel=1e-12)
            assert min(x, y) * (1 - 1e-12) <= m <= max(x, y) * (1 + 1e-12)

    @given(positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_ordering_chain(self, x, y):
        g = mean(MeanKind.Geometric, x, y)
        l = mean(MeanKind.Logarithmic, x, y)
        ag = mean(MeanKind.ArithmeticGeometric, x, y)
        l32 = mean_mod(MeanKind.Logarithmic, 1.5, x, y)
        a = mean(MeanKind.Arithmetic, x, y)
        eps = 1e-12 * a
        assert g <= l + eps and l <= ag + eps and ag <= l32 + eps and l32 <= a + eps
        if abs(x - y) > 1e-6 * a:
            assert g < l < ag < l32 < a


class TestMeanMod:
    def test_identity_exponent(self):
        assert mean_mod(MeanKind.Arithmetic, 1.0, 2.0, 4.0) == pytest.approx(3.0, rel=1e-15)

    def test_geometric_invariant_under_t(self):
        g = mean(MeanKind.Geometric, 0.7, 3.1)
        for t in (0.5, 1.0, 2.0, 3.5):
            assert mean_mod(MeanKind.Geometric, t, 0.7, 3.1) == pytest.approx(g, rel=1e-13)

    def test_recorded_value(self):
        assert mean_mod(MeanKind.Logarithmic, 1.5, 1.0, 2.0) == pytest.approx(L32_1_2, rel=1e-13)

    @pytest.mark.parametrize("kind", [MeanKind.Arithmetic, MeanKind.Logarithmic,
                                      MeanKind.ArithmeticGeometric])
    def test_monotone_in_t(self, kind):
        for x, y in ((1.0, 2.0), (0.5, 5.0), (2.0, 2.5)):
            values = [mean_mod(kind, t, x, y) for t in (0.5, 1.0, 1.5, 2.0, 3.0)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mean_mod(MeanKind.Arithmetic, 0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            mean_mod(MeanKind.Arithmetic, -1.0, 1.0, 2.0)

    @pytest.mark.parametrize("t", [math.nextafter(1e300, math.inf), 1e301, 1e308, math.inf, math.nan])
    def test_t_past_the_stated_range(self, t):
        # t log(x/y) may overflow above 1e300; the bound is stated up to there
        with pytest.raises(DomainError, match="0 < t <= 1e300"):
            mean_mod(MeanKind.Arithmetic, t, 1.0, 2.0)

    def test_unknown_kind(self):
        for call in (lambda: mean_mod("A", 1e-320, 2.0, 8.0), lambda: mean("A", 2.0, 8.0)):
            with pytest.raises(DomainError, match="unknown mean kind"):
                call()

    @pytest.mark.parametrize("kind", list(MeanKind))
    def test_no_power_overflows(self, kind):
        # x^t and y^t overflow (or underflow) here, the homogeneous form does not
        value = mean_mod(kind, 2.0, 1e200, 1.0)
        assert 1.0 < value < 1e200
        assert mean_mod(kind, 2.0, 1e-200, 1.0) == pytest.approx(value * 1e-200, rel=1e-15)

    def test_no_power_overflows_arithmetic_values(self):
        assert mean_mod(MeanKind.Arithmetic, 2.0, 1e200, 1.0) == pytest.approx(1e200 / math.sqrt(2.0), rel=1e-15)
        # ((2^1000 + 8^1000)/2)^(1/1000) = 8 ((1 + 4^-1000)/2)^(1/1000)
        assert mean_mod(MeanKind.Arithmetic, 1e3, 2.0, 8.0) == pytest.approx(8.0 * 2.0 ** -1e-3, rel=1e-15)

    @pytest.mark.parametrize("kind", list(MeanKind))
    @pytest.mark.parametrize("t", [1e-12, 1e-300, 2.2e-308, 1e-320, 5e-324])
    def test_tiny_t_tends_to_the_geometric_mean(self, kind, t):
        # M_t -> G as t -> 0; x^t rounded to 1 + t log x lost it (1.0 at t = 1e-320)
        assert mean_mod(kind, t, 2.0, 8.0) == pytest.approx(4.0, rel=1e-15)

    @pytest.mark.parametrize("kind", list(MeanKind))
    def test_equal_and_infinite_arguments(self, kind):
        assert mean_mod(kind, 0.5, 3.0, 3.0) == 3.0
        assert mean_mod(kind, 0.5, math.inf, 3.0) == math.inf

    @pytest.mark.parametrize("x, y", [(-1.0, 1.0), (1.0, -2.0), (0.0, 1.0), (math.nan, 1.0)])
    def test_positive_arguments(self, x, y):
        # an even power would hide the sign: (-1)^2 = 1
        with pytest.raises(DomainError):
            mean_mod(MeanKind.Arithmetic, 2.0, x, y)


class TestAgm:
    @given(positive, st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, x, s):
        assert agm(s * x, s * 2.0) == pytest.approx(s * agm(x, 2.0), rel=1e-13)

    def test_known_value(self):
        assert agm(1.0, 0.5) == pytest.approx(AGM_1_HALF, rel=1e-15)

    def test_tiny_argument(self):
        assert agm(1.0, 1e-280) > 0.0

    @pytest.mark.parametrize("x, y", [(1e200, 2e200), (1e-200, 2e-200), (1e-170, 3e-170), (1e300, 1e-5)])
    def test_far_from_one_by_homogeneity(self, x, y):
        # a product a_n b_n over- or underflows here: agm(1e200, 2e200) was inf,
        # agm(1e-200, 2e-200) 49% off and agm(1e-170, 3e-170) a ConvergenceError
        assert agm(x, y) == pytest.approx(x * agm(1.0, y / x), rel=1e-15, abs=0.0)

    def test_infinite_and_subnormal_pairs(self):
        # the quadratic tail would give inf/inf = NaN at infinity
        assert agm(math.inf, 1.0) == math.inf
        assert agm(math.inf, math.inf) == math.inf
        assert agm(5e-324, 5e-324) == 5e-324
        # y/x underflows: AG(x, y) = x pi / (2 log(4x/y))
        assert agm(1.0, 5e-324) == pytest.approx(math.pi / (2.0 * (math.log(4.0) + 1074 * math.log(2.0))),
                                                  rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x, y", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -4.0), (math.nan, 1.0)])
    def test_domain(self, x, y):
        with pytest.raises(DomainError):
            agm(x, y)


class TestEllintK:
    def test_at_zero(self):
        assert ellint_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_lemniscatic_point(self):
        assert ellint_K(1.0 / math.sqrt(2.0)) == pytest.approx(K_INV_SQRT2, rel=1e-14)

    def test_half(self):
        assert ellint_K(0.5) == pytest.approx(K_HALF, rel=1e-14)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            ellint_K(1.0)

    @pytest.mark.parametrize("r", [-0.1, 1.0000001, 2.0])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            ellint_K(r)

    def test_near_one_branch_inside_bracket(self):
        r = 1.0 - 1e-9
        comp = math.sqrt((1.0 - r) * (1.0 + r))
        log_term = math.log(4.0 / comp)
        k = ellint_K(r)
        assert 9.0 / (8.0 + r * r) * log_term < k * (1 + 1e-9)
        assert k < 4.0 / (3.0 + r * r) * log_term * (1 + 1e-9)

    def test_kuhnau_carlson_bracket_strict(self):
        for i in range(1, 20):
            r = i / 20.0
            comp = math.sqrt((1.0 - r) * (1.0 + r))
            log_term = math.log(4.0 / comp)
            k = ellint_K(r)
            assert 9.0 / (8.0 + r * r) * log_term < k < 4.0 / (3.0 + r * r) * log_term

    def test_landen_identity(self):
        for i in range(1, 20):
            r = i / 20.0
            k = ellint_K(r)
            assert ellint_K(2.0 * math.sqrt(r) / (1.0 + r)) == pytest.approx(
                (1.0 + r) * k, rel=1e-12)

    def test_quotient_decreasing(self):
        def quotient(r):
            comp = math.sqrt((1.0 - r) * (1.0 + r))
            return ellint_K(r) / math.log(4.0 / comp)

        values = [quotient(i / 40.0) for i in range(1, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestNomeRoute:
    """K from the Jacobi nome against the public AGM: K(r) = pi / (2 AG(1, r'))."""

    test_ellint_k_against_agm_quotient = contract_test("ellint_K.agm")
    test_ellint_kprime_against_agm_quotient = contract_test("ellint_Kprime.agm")

    @pytest.mark.parametrize("r", [0.0, 1e-300, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-12])
    def test_duality_switch(self, r):
        # taken at the larger channel the nome series are wrong far beyond
        # rounding, so forcing the r <= r' switch either way fails here
        comp = math.sqrt((1.0 - r) * (1.0 + r))
        assert abs(ellint_K(r) - k_agm(comp)) <= 5.0 * math.ulp(ellint_K(r))
        assert abs(ellint_Kprime(comp) - ellint_K(r)) <= 5.0 * math.ulp(ellint_K(r))


class TestEllintKprime:
    def test_at_one(self):
        assert ellint_Kprime(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_symmetric_point(self):
        s = 1.0 / math.sqrt(2.0)
        assert ellint_Kprime(s) == pytest.approx(ellint_K(s), rel=1e-13)

    def test_complement_identity(self):
        assert ellint_Kprime(0.8) == pytest.approx(ellint_K(0.6), rel=1e-13)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            ellint_Kprime(0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            ellint_Kprime(1.2)
