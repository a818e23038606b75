"""Distortion functions, quasisymmetry, linear dilatation, Schottky, linearization."""

import math
import random

import pytest

from contracts import around, box
from qcfun import modulus
from qcfun import (
    ConvergenceError,
    DomainError,
    OverflowSignal,
    QcfunError,
    SQRT_HALF,
    UnitRadius,
    eta_K2,
    gamma2_inv,
    grotzsch_gamma2,
    lambda_of_K,
    linearized_g,
    mu,
    mu_inv,
    phi_K,
    phi_aK,
    schottky_psi,
)

# frozen oracle values
PHI2_HALF = 0.94280904158206337      # closed form 2 sqrt(0.5)/1.5
PHI4_QUARTER = 0.99380798999990653   # phi2(phi2(0.25)) closed form
PHI_THIRD_HALF = 0.009637370372580321
PHI3_SQRT_HALF = 0.9993546122061841
LAMBDA_11 = 1.5194644045602387
LAMBDA_15 = 6.4685874610114259
LAMBDA_2 = 32.970562748477141
LAMBDA_3 = 773.97808886918852
LAMBDA_5 = 414725.99995900927
ETA_2_HALF = 12.928203230275509
G2_AT_0 = 2.8024679448790040
PHI_A_THIRD_2_06 = 0.97897313219721859

R_GRID = [i / 20.0 for i in range(1, 20)]


class TestPhiK:
    def test_identity_at_one(self):
        for r in (0.1, 0.5, 0.9):
            assert phi_K(1.0, r).r == r

    def test_degree_two_closed_form(self):
        assert phi_K(2.0, 0.5).r == pytest.approx(PHI2_HALF, rel=1e-12)
        for r in R_GRID:
            assert phi_K(2.0, r).r == pytest.approx(2.0 * math.sqrt(r) / (1.0 + r), rel=1e-11)

    def test_multiplicativity_closed_form(self):
        assert phi_K(4.0, 0.25).r == pytest.approx(PHI4_QUARTER, rel=1e-10)
        assert phi_K(4.0, 0.25).r == pytest.approx(
            2.0 * math.sqrt(0.8) / 1.8, rel=1e-10)  # phi2(phi2(1/4)), phi2(1/4) = 0.8

    def test_sub_unit_dilatation_is_inverse(self):
        assert phi_K(1.0 / 3.0, 0.5).r == pytest.approx(PHI_THIRD_HALF, rel=1e-10)
        for r in (0.2, 0.6, 0.9):
            assert phi_K(0.5, phi_K(2.0, r)).r == pytest.approx(r, rel=1e-10)

    def test_fixed_point_value(self):
        assert phi_K(3.0, SQRT_HALF).r == pytest.approx(PHI3_SQRT_HALF, rel=1e-11)

    def test_monotone_in_r_and_K(self):
        values = [phi_K(2.0, r).r for r in R_GRID]
        assert all(b > a for a, b in zip(values, values[1:]))
        by_k = [phi_K(K, 0.4).r for K in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert all(b > a for a, b in zip(by_k, by_k[1:]))

    def test_range(self):
        for K in (0.5, 1.0, 2.0, 10.0):
            v = phi_K(K, 0.7)
            assert 0.0 < v.r < 1.0 or (v.r == 1.0 and v.comp < 1e-7)

    def test_complement_law(self):
        # phi_K(r)^2 + phi_{1/K}(r')^2 = 1
        for K in (1.5, 2.0, 5.0):
            for r in (0.1, 0.5, 0.9):
                u = UnitRadius.from_r(r)
                assert phi_K(K, u).r ** 2 + phi_K(1.0 / K, u.swapped).r ** 2 == pytest.approx(
                    1.0, abs=1e-10)

    def test_power_bracket(self):
        # 4^(1-K) r^K <= phi_{1/K}(r) <= phi_K(r) <= 4^(1-1/K) r^(1/K)
        for K in (1.1, 2.0, 4.0):
            for r in R_GRID:
                lo = 4.0 ** (1.0 - K) * r ** K
                hi = 4.0 ** (1.0 - 1.0 / K) * r ** (1.0 / K)
                small = phi_K(1.0 / K, r).r
                big = phi_K(K, r).r
                assert lo <= small * (1 + 1e-12)
                assert small <= big * (1 + 1e-12)
                assert big <= hi * (1 + 1e-12)

    def test_capacity_route_consistency(self):
        # phi_K(r) = 1 / gamma2^-1(K gamma2(1/r))
        for K in (1.5, 2.0, 3.0):
            for r in (0.2, 0.5, 0.8):
                via_capacity = 1.0 / gamma2_inv(K * grotzsch_gamma2(1.0 / r))
                assert phi_K(K, r).r == pytest.approx(via_capacity, rel=1e-9)

    def test_tiny_modulus_clamp(self):
        # mu(r)/K below the normal range of the dual nome: no clamped 1 - ulp value
        with pytest.raises(ConvergenceError):
            phi_K(1e16, 0.9)
        with pytest.raises(ConvergenceError):
            phi_K(1e15, 0.5)
        with pytest.raises(ConvergenceError):
            phi_aK(1.0 / 3.0, 1e15, 0.5)

    def test_overflowing_target_signalled(self):
        # mu(0.5)/1e-310 is inf: the radius underflows, not a domain error
        with pytest.raises(ConvergenceError, match="underflows"):
            phi_K(1e-310, 0.5)
        with pytest.raises(ConvergenceError, match="underflows"):
            phi_aK(1.0 / 3.0, 1e-310, 0.5)

    def test_result_below_normal_range_signalled(self):
        # mu(0.5)/0.001 ~ 2009: the inverse lies far below the smallest double
        with pytest.raises(ConvergenceError):
            phi_K(0.001, 0.5)

    def test_sub_unit_dilatation_radius_or_typed_error(self):
        # K over (0, 1), its ends the least double and 1 - ulp, r over [1e-6, 1 - 1e-6]; the
        # extra draws take K = 1 - ulp, where phi_K(r) is closest to r, at inner radii
        k_top = math.nextafter(1.0, 0.0)
        points = box(200, (5e-324, k_top), (1e-6, 0.999999), extra=[(k_top, r) for r in (1e-3, 0.5, SQRT_HALF.r, 0.9)])
        for K, r in points(random.Random(3706)):
            try:
                v = phi_K(K, r)
            except QcfunError:
                continue
            assert isinstance(v, UnitRadius)
            assert v.r <= r * (1.0 + 1e-12), (K, r)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_K(0.0, 0.5)
        with pytest.raises(DomainError):
            phi_K(-2.0, 0.5)
        with pytest.raises(DomainError):
            phi_K(2.0, 1.5)


class TestNomePass:
    """The one nome pass of phi_K against mu_inv(mu(r)/K), the public composition."""

    EPS = 2.0 ** -52
    HALF_PI = 0.5 * math.pi

    def check(self, K, u):
        # each channel within the sum of the two routes' 4 eps max(1, y) bounds
        got = modulus._phi_pair(K, u.r, u.comp)
        assert phi_K(K, u) == got
        r, comp = got
        y = mu(u) / K
        want = mu_inv(y)
        assert abs(r / want.r - 1.0) <= 8.0 * self.EPS * max(1.0, y), (K, u)
        assert abs(comp / want.comp - 1.0) <= 8.0 * self.EPS * max(1.0, 0.25 * math.pi ** 2 / y), (K, u)
        # which of the four cases ran: the smaller input channel, and the side of pi/2
        return u.r <= u.comp, y >= self.HALF_PI

    def test_four_cases_seeded(self):
        rng = random.Random(1717)
        seen = {}
        for _ in range(4000):
            # y and y* stay below 700, so neither route underflows
            K = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            x = math.exp(rng.uniform(math.log(1e-12), math.log(0.5)))
            u = UnitRadius.from_comp(x) if rng.random() < 0.5 else UnitRadius.from_r(x)
            case = self.check(K, u)
            seen[case] = seen.get(case, 0) + 1
        assert len(seen) == 4 and min(seen.values()) > 200, seen

    def test_seam_r_equals_complement(self):
        seen = set()
        for r in around(math.sqrt(0.5), (1e-9, 1e-5, 1e-2, 0.25)):
            u = UnitRadius.from_r(r)
            for K in (0.3, 1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52, 1.5, 7.0):
                seen.add(self.check(K, u))
        assert len(seen) == 4

    def test_seam_target_at_half_pi(self):
        # K = 2 mu(r) / pi puts the target modulus at pi/2, on either input channel
        seen = set()
        for x in (1e-12, 1e-3, 0.3, 0.7):
            for u in (UnitRadius.from_r(x), UnitRadius.from_comp(x)):
                for K in around(mu(u) / self.HALF_PI, (1e-9, 1e-5, 1e-2, 0.25)):
                    seen.add(self.check(K, u))
        assert len(seen) == 4


class TestPhiAK:
    @staticmethod
    def outcome(f, *args):
        """The pair f returns, or the type and message of the typed error it raises."""
        try:
            return tuple(f(*args))
        except QcfunError as e:
            return type(e), str(e)

    def test_reduces_to_phi_K(self):
        # one route: phi^(1/2)_K is phi_K's nome pass, so the two agree to the bit, errors alike
        rng = random.Random(31)
        for _ in range(4000):
            K = math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
            x = 10.0 ** rng.uniform(-300.0, 0.0) if rng.random() < 0.5 else rng.random()
            if not 0.0 < x < 1.0:
                continue
            for u in (x, UnitRadius.from_r(x), UnitRadius.from_comp(x)):
                assert self.outcome(phi_aK, 0.5, K, u) == self.outcome(phi_K, K, u), (K, u)
        for K, r in ((1e-310, 0.5), (1e16, 0.9), (1e15, 0.5), (1.0, 0.3)):  # the errors and the identity
            assert self.outcome(phi_aK, 0.5, K, r) == self.outcome(phi_K, K, r)

    def test_identity_at_one(self):
        assert phi_aK(1.0 / 3.0, 1.0, 0.37).r == 0.37
        # the radius itself, to the bit, where mu_a_inv(mu_a(r)) rounds off it
        for a in (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5, 0.2):
            for u in (UnitRadius.from_r(1e-9), UnitRadius.from_r(0.9), UnitRadius.from_comp(1e-12)):
                assert phi_aK(a, 1.0, u) == u

    def test_cubic_identity_oracle(self):
        # solve the signature-1/3 degree-2 relation (alpha beta)^(1/3)
        # + ((1-alpha)(1-beta))^(1/3) = 1 by bisection against alpha = 0.36
        alpha = 0.36

        def g(beta):
            return (alpha * beta) ** (1.0 / 3.0) + ((1.0 - alpha) * (1.0 - beta)) ** (1.0 / 3.0) - 1.0

        lo, hi = alpha + 1e-12, 1.0 - 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        beta_root = 0.5 * (lo + hi)
        assert phi_aK(1.0 / 3.0, 2.0, 0.6).r == pytest.approx(math.sqrt(beta_root), rel=1e-9)
        assert phi_aK(1.0 / 3.0, 2.0, 0.6).r == pytest.approx(PHI_A_THIRD_2_06, rel=1e-10)

    def test_monotone_in_r(self):
        values = [phi_aK(0.25, 2.0, r).r for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_signature_domain(self):
        with pytest.raises(DomainError):
            phi_aK(0.7, 2.0, 0.5)


class TestEtaK2:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_identity_dilatation(self, t):
        assert eta_K2(1.0, t) == pytest.approx(t, rel=1e-14)

    def test_zero(self):
        assert eta_K2(2.0, 0.0) == 0.0

    def test_at_one_equals_lambda(self):
        for K in (1.5, 2.0, 3.0):
            assert eta_K2(K, 1.0) == pytest.approx(lambda_of_K(K), rel=1e-12)

    def test_recorded_value(self):
        assert eta_K2(2.0, 1.0) == pytest.approx(LAMBDA_2, rel=1e-12)
        assert eta_K2(2.0, 0.5) == pytest.approx(ETA_2_HALF, rel=1e-12)

    def test_closed_form_oracle(self):
        # u = phi_2(1/sqrt 2) = 2 * 2^(-1/4) / (1 + 2^(-1/2)) by the degree-2 closed form
        u = 2.0 * 2.0 ** -0.25 / (1.0 + 2.0 ** -0.5)
        assert eta_K2(2.0, 1.0) == pytest.approx(u * u / (1.0 - u * u), rel=1e-12)

    def test_increasing_in_both(self):
        by_t = [eta_K2(2.0, t) for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(by_t, by_t[1:]))
        by_k = [eta_K2(K, 1.0) for K in (1.0, 1.5, 2.0, 3.0)]
        assert all(b > a for a, b in zip(by_k, by_k[1:]))

    def test_overflow_signal(self):
        with pytest.raises(OverflowSignal):
            eta_K2(5.0, 1e140)

    def test_at_one_equals_lambda_exactly(self):
        for K in (1.5, 2.0, 5.0, 30.0, 100.0):
            assert eta_K2(K, 1.0) == lambda_of_K(K)

    def test_overflow_names_the_call(self):
        # the inversion underflows and the signal names the public function
        with pytest.raises(OverflowSignal, match=r"eta_K2\(1e\+16, 1.0\)"):
            eta_K2(1e16, 1.0)
        with pytest.raises(OverflowSignal, match=r"lambda_of_K\(1e\+16\)"):
            lambda_of_K(1e16)

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_K2(0.5, 1.0)
        with pytest.raises(DomainError):
            eta_K2(2.0, -1.0)

    @pytest.mark.parametrize("K, message", [(0.5, "satisfy K >= 1, got 0.5"), (0.0, "positive, got 0.0"),
                                            (-2.0, "positive"), (math.inf, "positive"), (math.nan, "positive")])
    def test_dilatation_messages(self, K, message):
        # the functions that need K >= 1 name what K breaks: the bound 1, or positivity
        for call in (lambda: eta_K2(K, 1.0), lambda: lambda_of_K(K), lambda: linearized_g(K, 0.0)):
            with pytest.raises(DomainError, match=message):
                call()


class TestLambda:
    def test_at_one(self):
        assert lambda_of_K(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_recorded_values(self):
        assert lambda_of_K(1.1) == pytest.approx(LAMBDA_11, rel=1e-12)
        assert lambda_of_K(1.5) == pytest.approx(LAMBDA_15, rel=1e-12)
        assert lambda_of_K(2.0) == pytest.approx(LAMBDA_2, rel=1e-12)
        assert lambda_of_K(3.0) == pytest.approx(LAMBDA_3, rel=1e-12)
        assert lambda_of_K(5.0) == pytest.approx(LAMBDA_5, rel=1e-11)

    def test_paper_bracket_at_three(self):
        value = lambda_of_K(3.0)
        assert math.exp(2.0 * math.pi) <= value <= math.exp(8.0 * math.pi / 3.0)

    @pytest.mark.parametrize("K", [1.1, 1.5, 2.0, 3.0, 5.0])
    def test_exponential_bracket(self, K):
        value = lambda_of_K(K)
        assert math.exp(math.pi * (K - 1.0)) <= value <= math.exp(math.pi * (K - 1.0 / K))

    def test_increasing(self):
        values = [lambda_of_K(K) for K in (1.0, 1.2, 1.7, 2.5, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_square_of_ratio_overflows(self):
        # u' ~ 4 e^(-pi K/2) is a normal double at K = 300 (about 1e-204), but
        # (u/u')^2 is not; at K = 200 it is still finite (mpmath, theta functions)
        with pytest.raises(OverflowSignal, match=r"lambda_of_K\(300\.0\)"):
            lambda_of_K(300.0)
        assert lambda_of_K(200.0) == pytest.approx(4.6897618097391277e271, rel=1e-12)

    def test_hoisted_modulus_bit_for_bit(self):
        # lambda_of_K's nome pass at the (1/sqrt 2, 1/sqrt 2) pair must give exactly
        # (u.r/u.comp)^2 for u = phi_K(K, 1/sqrt 2), or OverflowSignal where that
        # square (or u.comp) leaves the double range
        rng = random.Random(16)
        Ks = [1.0, 1.0 + 2.0 ** -52, 2.0, 226.0, 226.3, 500.0, 1e16, 1e308]
        Ks += [math.exp(rng.uniform(0.0, math.log(400.0))) for _ in range(2000)]
        for K in Ks:
            try:
                u = phi_K(K, SQRT_HALF)
                want = (u.r / u.comp) * (u.r / u.comp)
            except ConvergenceError:
                want = math.inf
            if math.isinf(want):
                with pytest.raises(OverflowSignal):
                    lambda_of_K(K)
            else:
                assert lambda_of_K(K) == want, K


class TestSchottky:
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_at_zero_radius(self, t):
        assert schottky_psi(0.0, t) == pytest.approx(t, rel=1e-14)

    def test_dilatation_construction(self):
        # M = (1+1/3)/(1-1/3) = 2
        assert schottky_psi(1.0 / 3.0, 1.0) == pytest.approx(LAMBDA_2, rel=1e-12)
        for r, t in ((0.2, 0.7), (0.5, 2.0)):
            assert schottky_psi(r, t) == eta_K2((1.0 + r) / (1.0 - r), t)

    def test_increasing_in_r(self):
        values = [schottky_psi(r, 1.0) for r in (0.0, 0.2, 0.4, 0.6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_hayman_bound(self):
        for r in (0.1, 0.3, 0.5):
            for t in (0.5, 1.0, 5.0):
                bound = math.exp((math.pi + max(0.0, math.log(t))) * (1.0 + r) / (1.0 - r))
                assert schottky_psi(r, t) <= bound

    def test_domain(self):
        with pytest.raises(DomainError):
            schottky_psi(1.0, 1.0)
        with pytest.raises(DomainError):
            schottky_psi(0.5, 0.0)


class TestLinearizedG:
    def test_identity_at_one(self):
        for x in (-5.0, 0.0, 3.7):
            assert linearized_g(1.0, x) == pytest.approx(x, abs=1e-12)

    def test_recorded_value(self):
        assert linearized_g(2.0, 0.0) == pytest.approx(G2_AT_0, rel=1e-10)

    def test_strictly_increasing(self):
        xs = [-8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0]
        values = [linearized_g(2.0, x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("K", [1.5, 2.0, 5.0])
    def test_slope_inside_open_interval(self, K):
        h = 1e-5
        for x in (-10.0, -3.0, 0.0, 3.0, 10.0):
            slope = (linearized_g(K, x + h) - linearized_g(K, x - h)) / (2.0 * h)
            assert 1.0 / K < slope < K

    def test_underflowing_distortion_signalled(self):
        with pytest.raises(ConvergenceError):
            linearized_g(1e16, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            linearized_g(0.9, 0.0)
        with pytest.raises(DomainError):
            linearized_g(2.0, math.inf)


def test_mu_quotient_definition():
    # phi_K defined through the modulus quotient: mu(phi_K(r)) = mu(r)/K
    for K in (1.5, 3.0):
        for r in (0.2, 0.7):
            assert mu(phi_K(K, r)) == pytest.approx(mu(r) / K, rel=1e-12)
