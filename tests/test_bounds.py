"""Catalog of explicit constants and bounds."""

import decimal
import itertools
import math
from fractions import Fraction

import pytest

from qcfun import (
    BoundId,
    DomainError,
    OverflowSignal,
    QcfunError,
    UnsupportedDimensionError,
    bound_value,
    eta_K2,
    gehring_d,
    gehring_d2_composite,
    lambda_of_K,
    mu,
    phi_K,
    schottky_psi,
    surface_area,
    vuorinen_c,
)
from qcfun.bounds import bound_signature


class TestClosedForms:
    def test_gehring_at_one(self):
        assert bound_value(BoundId.GehringD2, [1.0]) == pytest.approx(math.exp(math.pi), rel=1e-14)
        assert bound_value(BoundId.GehringD2, [1.0]) == pytest.approx(23.1406926, abs=1e-6)

    @pytest.mark.parametrize("K", [1.0, 1.5, 2.0, 3.0])
    def test_gehring_composite_self_check(self, K):
        direct = bound_value(BoundId.GehringD2, [K])
        assert abs(gehring_d2_composite(K) - direct) <= 1e-10 * direct

    def test_vuorinen_at_one(self):
        assert bound_value(BoundId.VuorinenC2, [1.0]) == pytest.approx(2.0, rel=1e-11)

    def test_mori(self):
        assert bound_value(BoundId.MoriConstant, [2.0]) == pytest.approx(8.0, rel=1e-12)
        assert bound_value(BoundId.MoriConstant, [1.0]) == pytest.approx(1.0, rel=1e-14)

    def test_beurling_ahlfors(self):
        assert bound_value(BoundId.BeurlingAhlforsK, [4.0]) == pytest.approx(7.0, rel=1e-14)
        # crossover: M^(3/2) wins below it
        assert bound_value(BoundId.BeurlingAhlforsK, [1.5]) == pytest.approx(1.5 ** 1.5, rel=1e-14)

    def test_kuhnau_triangle(self):
        assert bound_value(BoundId.KuhnauTriangleK, [1.0 / 3.0]) == pytest.approx(
            math.sqrt(5.0), rel=1e-12)
        assert bound_value(BoundId.KuhnauTriangleK, [0.2]) == pytest.approx(3.0, rel=1e-12)

    def test_agard_gehring(self):
        assert bound_value(BoundId.AgardGehringLower, [1.5]) == pytest.approx(1.125, rel=1e-14)
        for bad in (1.0, 2.0, 0.5, 3.0):
            with pytest.raises(DomainError):
                bound_value(BoundId.AgardGehringLower, [bad])

    def test_seittenranta(self):
        assert bound_value(BoundId.SeittenrantaS, [1.0]) == pytest.approx(1.0, rel=1e-14)
        assert bound_value(BoundId.SeittenrantaS, [2.0]) == pytest.approx(
            math.exp(54.0), rel=1e-12)

    def test_surface_area(self):
        assert bound_value(BoundId.SurfaceArea, [2.0]) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert surface_area(3.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert surface_area(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_hayman(self):
        assert bound_value(BoundId.HaymanSchottky, [0.0, 1.0]) == pytest.approx(
            math.exp(math.pi), rel=1e-13)
        assert bound_value(BoundId.HaymanSchottky, [0.5, math.e]) == pytest.approx(
            math.exp((math.pi + 1.0) * 3.0), rel=1e-13)


class TestEtaKnUpper:
    def test_branch_at_one(self):
        expected = math.exp(6.0 * 9.0 * 1.0)
        assert bound_value(BoundId.EtaKnUpper, [2.0, 1.0, 2.0]) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("K", [1.5, 2.0])
    def test_dominates_exact_plane_value(self, K, t):
        assert bound_value(BoundId.EtaKnUpper, [K, t, 2.0]) >= eta_K2(K, t)

    def test_higher_dimension_uses_power_bracket(self):
        v3 = bound_value(BoundId.EtaKnUpper, [2.0, 0.5, 3.0])
        assert v3 > 0.0
        v3_big = bound_value(BoundId.EtaKnUpper, [2.0, 4.0, 3.0])
        assert v3_big > bound_value(BoundId.EtaKnUpper, [2.0, 1.0, 3.0])

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_value(BoundId.EtaKnUpper, [2.0, 0.0, 2.0])
        with pytest.raises(DomainError):
            bound_value(BoundId.EtaKnUpper, [2.0, 1.0, 2.5])

    @pytest.mark.parametrize("t", [1e-6, 0.3, 0.9])
    def test_plane_branch_below_one_k2_closed_form(self, t):
        # phi_2(t) = 2 sqrt(t) / (1 + t)
        expected = math.exp(54.0) * 2.0 * math.sqrt(t) / (1.0 + t)
        assert bound_value(BoundId.EtaKnUpper, [2.0, t, 2.0]) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("t", [1.1, 4.0, 1e6])
    def test_plane_branch_above_one_k2_closed_form(self, t):
        # phi_{1/2}(s) is the u with 2 sqrt(u) / (1 + u) = s: sqrt(u) = (1 - sqrt(1 - s^2)) / s
        s = 1.0 / t
        root_u = s / (1.0 + math.sqrt((1.0 - s) * (1.0 + s)))
        expected = math.exp(54.0) / (root_u * root_u)
        assert bound_value(BoundId.EtaKnUpper, [2.0, t, 2.0]) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_power_bracket_in_space(self, t):
        K, n = 2.0, 3.0
        eta1, lam, alpha = math.exp(54.0), 2.0 * math.exp(n - 1.0), K ** (-0.5)
        power = alpha if t < 1.0 else 1.0 / alpha
        expected = eta1 * lam ** abs(power - 1.0) * t ** power
        assert bound_value(BoundId.EtaKnUpper, [K, t, n]) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("params, expected", [
        ([7.0, 1e-320, 3.0], 1.8969889576440808e288),  # s(7) ~ e^941 is past the double range
        ([2.0, 0.5, 1000.0], 2.8327953605410976e23),  # so is lam = 2 e^999
        ([2.0, 0.5, 1e12], 2.8307533032767340e23),  # 1 - p ~ 7e-13 without cancellation
        ([1.5, 1e-300, 3.0], 6.0482020941882097e-234),
    ])
    def test_power_bracket_beyond_overflowing_factors(self, params, expected):
        # 50-digit mpmath values of s(K) lam^|p-1| t^p; the exp of a logarithm
        # near 660 keeps about 13 digits
        assert bound_value(BoundId.EtaKnUpper, params) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("K, t", [(6.5, 1e-300), (6.5, 1e-250), (6.3, 1e-100)])
    def test_plane_branch_beyond_overflowing_seittenranta(self, K, t):
        # s(K) alone is past the double range from K ~ 6.25; the product is not.
        # Reference: s(K) in 40 decimal digits times the library's phi_K(t)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            k = decimal.Decimal(K)
            s = (6 * (k + 1) ** 2 * (k - 1).sqrt()).exp()
            expected = float(s * decimal.Decimal(phi_K(K, t).r))
        assert bound_value(BoundId.EtaKnUpper, [K, t, 2.0]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("K, t", [(2.965570334907797, 0.7734442303215842),
                                      (2.93212639138825, 0.7435805396535033)])
    def test_plane_branch_keeps_phi_rounding(self, K, t):
        # phi_K(t) lies near 1 here, where the mu residual needs its last digits;
        # exp(log s(K) + log phi) rounded a sum near 132 and moved the value by
        # 61 and 49 ulp (1.1e-14 relative).  Reference: the exp of the same
        # float log s(K), in 40 decimal digits, times the library's phi_K(t)
        log_s = 6.0 * (K + 1.0) ** 2 * math.sqrt(K - 1.0)
        phi = phi_K(K, t).r
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            s = decimal.Decimal(log_s).exp()
            expected = float(s * decimal.Decimal(phi))
        value = bound_value(BoundId.EtaKnUpper, [K, t, 2.0])
        assert value == pytest.approx(expected, rel=2e-15)
        # the mu residual of the radius the value implies, as phi_K promises it
        assert abs(mu(float(decimal.Decimal(value) / s)) - mu(t) / K) <= 1e-13

    @pytest.mark.parametrize("params", [
        [2.0, math.inf, 2.0], [2.0, -1.0, 2.0], [2.0, math.nan, 2.0],
        [2.0, 0.0, 3.0], [2.0, -1.0, 3.0], [2.0, math.inf, 3.0], [2.0, math.nan, 3.0],
        [2.0, 0.5, 1.0], [2.0, 0.5, math.nan], [2.0, 0.5, math.inf], [0.5, 0.5, 2.0],
    ])
    def test_domain_checks(self, params):
        with pytest.raises(DomainError):
            bound_value(BoundId.EtaKnUpper, params)


class TestConsistency:
    @pytest.mark.parametrize("K", [1.0, 1.5, 2.0, 3.0, 5.0])
    def test_domination(self, K):
        c = bound_value(BoundId.VuorinenC2, [K])
        d = bound_value(BoundId.GehringD2, [K])
        assert c < d / 10.0

    def test_limits_at_one(self):
        K = 1.0 + 1e-8
        assert abs(bound_value(BoundId.VuorinenC2, [K]) - 2.0) < 1e-6
        assert abs(bound_value(BoundId.MoriConstant, [K]) - 1.0) < 1e-6
        # s(K) - 1 ~ 24 sqrt(K-1), so the sqrt rate sets what K reaches 1e-6
        assert abs(bound_value(BoundId.SeittenrantaS, [K]) - 1.0) < 25.0 * math.sqrt(K - 1.0)
        assert abs(bound_value(BoundId.SeittenrantaS, [1.0 + 1e-16]) - 1.0) < 1e-6

    @pytest.mark.parametrize("K", [1.1, 1.5, 2.0])
    def test_lambda_inside_seittenranta_envelope(self, K):
        # the plane linear-dilatation bound sits far below the all-dimension one
        assert lambda_of_K(K) <= bound_value(BoundId.SeittenrantaS, [K])

    def test_eta_upper_vs_schottky(self):
        # Hayman's Schottky bound dominates the exact value too
        for r, t in ((0.2, 1.0), (0.4, 2.0)):
            assert schottky_psi(r, t) <= bound_value(BoundId.HaymanSchottky, [r, t])


class TestErrors:
    def test_arity(self):
        with pytest.raises(DomainError):
            bound_value(BoundId.GehringD2, [1.0, 2.0])
        with pytest.raises(DomainError):
            bound_value(BoundId.HaymanSchottky, [0.5])

    def test_k_domain(self):
        for bid in (BoundId.GehringD2, BoundId.VuorinenC2, BoundId.SeittenrantaS,
                    BoundId.MoriConstant):
            with pytest.raises(DomainError):
                bound_value(bid, [0.5])

    def test_triangle_domain(self):
        with pytest.raises(DomainError):
            bound_value(BoundId.KuhnauTriangleK, [0.4])
        with pytest.raises(DomainError):
            bound_value(BoundId.KuhnauTriangleK, [0.0])

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            gehring_d(3.0, 2.0)
        with pytest.raises(UnsupportedDimensionError):
            vuorinen_c(4.0, 1.5)
        assert gehring_d(2.0, 2.0) == pytest.approx(math.exp(2.0 * math.pi), rel=1e-13)
        assert vuorinen_c(2.0, 1.0) == pytest.approx(2.0, rel=1e-11)

    def test_string_id_accepted(self):
        assert bound_value("MoriConstant", [2.0]) == pytest.approx(8.0, rel=1e-12)
        with pytest.raises(ValueError):
            bound_value("NoSuchBound", [1.0])

    def test_unknown_id_lists_known_ids(self):
        with pytest.raises(DomainError, match="known ids: GehringD2, VuorinenC2"):
            bound_value("NoSuchBound", [1.0])

    @pytest.mark.parametrize("params", [["abc"], [None], [1j], 2.0])
    def test_non_numeric_parameter(self, params):
        with pytest.raises(DomainError, match="numeric"):
            bound_value(BoundId.MoriConstant, params)

    @pytest.mark.parametrize("M", [0.5, math.inf, math.nan])
    def test_beurling_ahlfors_domain(self, M):
        with pytest.raises(DomainError):
            bound_value(BoundId.BeurlingAhlforsK, [M])

    @pytest.mark.parametrize("r, t", [(1.0, 1.0), (-0.1, 1.0), (math.nan, 1.0),
                                      (0.5, 0.0), (0.5, math.inf), (0.5, math.nan)])
    def test_hayman_domain(self, r, t):
        with pytest.raises(DomainError):
            bound_value(BoundId.HaymanSchottky, [r, t])

    @pytest.mark.parametrize("n", [0.5, -1.0, math.inf, math.nan])
    def test_surface_area_domain(self, n):
        with pytest.raises(DomainError):
            surface_area(n)


class TestCatalogTable:
    def test_signatures(self):
        assert {b: bound_signature(b) for b in BoundId} == {
            BoundId.GehringD2: ("K",), BoundId.VuorinenC2: ("K",), BoundId.SeittenrantaS: ("K",),
            BoundId.MoriConstant: ("K",), BoundId.BeurlingAhlforsK: ("M",),
            BoundId.KuhnauTriangleK: ("alpha",), BoundId.AgardGehringLower: ("M",),
            BoundId.EtaKnUpper: ("K", "t", "n"), BoundId.HaymanSchottky: ("r", "t"),
            BoundId.SurfaceArea: ("n",),
        }

    def test_beurling_ahlfors_linear_branch_past_power_overflow(self):
        # M^(3/2) overflows above ~2.2e205 while min(M^(3/2), 2M - 1) = 2M - 1 is finite
        for M in (3e205, 1e206, 1e300):
            assert bound_value(BoundId.BeurlingAhlforsK, [M]) == 2.0 * M - 1.0
        assert bound_value(BoundId.BeurlingAhlforsK, [3.0]) == 5.0
        assert bound_value(BoundId.BeurlingAhlforsK, [2.0]) == 2.0 ** 1.5
        assert bound_value(BoundId.BeurlingAhlforsK, [4.0]) == 7.0

    def test_kuhnau_exact_and_correctly_rounded(self):
        assert bound_value(BoundId.KuhnauTriangleK, [0.2]) == 3.0
        assert bound_value(BoundId.KuhnauTriangleK, [0.25]) == math.sqrt(7.0)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for alpha in (0.1, 0.3, 1.0 / 3.0, 0.01, 1e-9):
                a = Fraction(alpha)  # the double exactly
                exact = (decimal.Decimal((2 - a).numerator * a.denominator)
                         / decimal.Decimal((2 - a).denominator * a.numerator)).sqrt()
                assert bound_value(BoundId.KuhnauTriangleK, [alpha]) == float(exact), alpha

    @pytest.mark.parametrize("alpha", [1e-12, 1e-100, 1e-310, 1e-320, 5e-324])
    def test_kuhnau_small_alpha(self, alpha):
        # sqrt((2 - alpha)/alpha) is finite for every positive double alpha
        expected = math.sqrt(2.0 - alpha) / math.sqrt(alpha)
        assert bound_value(BoundId.KuhnauTriangleK, [alpha]) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("bound_id, params", [
        (BoundId.SeittenrantaS, [7.0]),
        (BoundId.GehringD2, [1000.0]),
        (BoundId.GehringD2, [1e308]),  # pi K is already inf: no OverflowError on the way
        (BoundId.EtaKnUpper, [7.0, 1.0, 2.0]),
        (BoundId.EtaKnUpper, [7.0, 0.5, 1000.0]),  # s(K) lam^|p-1| t^p ~ 1.1e409
        (BoundId.HaymanSchottky, [1.0 - 1e-16, 1.0]),
        (BoundId.BeurlingAhlforsK, [1e308]),
        (BoundId.VuorinenC2, [300.0]),
        (BoundId.SurfaceArea, [2000.0]),
    ])
    def test_overflow_is_typed(self, bound_id, params):
        with pytest.raises(OverflowSignal, match=bound_id.value if bound_id is not BoundId.SurfaceArea
                           else "gamma_fn"):
            bound_value(bound_id, params)

    def test_overflow_names_entry_and_parameters(self):
        with pytest.raises(OverflowSignal, match=r"SeittenrantaS\(K=7\.0\) exceeds double precision"):
            bound_value(BoundId.SeittenrantaS, [7.0])

    def test_seittenranta_last_finite(self):
        assert math.isfinite(bound_value(BoundId.SeittenrantaS, [6.2]))

    def test_surface_area_gamma_before_power(self):
        # pi^(n/2) alone overflows from n ~ 1240; Gamma(1 + n/2) is checked first
        for n in (341.0, 2000.0, 1e12):
            with pytest.raises(OverflowSignal):
                surface_area(n)
        assert surface_area(340.0) > 0.0

    def test_gehring_composite_overflow(self):
        with pytest.raises(OverflowSignal, match="gehring_d2_composite"):
            gehring_d2_composite(1000.0)


FUZZ = (1e-320, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 2.0, 1e3, 1e12, 1e308, math.inf, math.nan, -1.0, 0.0)


@pytest.mark.parametrize("bound_id", list(BoundId))
def test_every_entry_value_or_typed_error(bound_id):
    """A finite float or a QcfunError at every point of the fuzz grid."""
    for params in itertools.product(FUZZ, repeat=len(bound_signature(bound_id))):
        try:
            value = bound_value(bound_id, list(params))
        except QcfunError:
            continue
        assert isinstance(value, float) and math.isfinite(value), (params, value)
