"""Ring modulus, generalized modulus, inverses, capacities, Landen product."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracts import (
    CLOSED_FORM_SIGNATURES,
    around,
    contract_test,
    k_mp,
    mu_agm,
    mu_mp,
    newton_oracle,
    pair_mp,
    series_oracle,
)
from qcfun import distortion, modulus, specfun
from qcfun.means import ellint_K_from_comp
from qcfun import (
    ConvergenceError,
    DomainError,
    OverflowSignal,
    UnitRadius,
    agm_product_p,
    eta_K2,
    gamma2_inv,
    grotzsch_gamma2,
    mu,
    mu_a,
    mu_a_derivative,
    mu_a_inv,
    mu_inv,
    phi_K,
    phi_aK,
    tau2_inv,
    teichmuller_tau2,
)

# frozen oracle values (AGM quotient / series quotient at 40 digits)
MU_HALF = 2.0094593770052852      # spec prose previewed 1.9459; the stated oracle gives this
MU_03 = 2.5668979448308223
MU_001 = 5.9914395460922971
MU_A_THIRD_HALF = 2.2631983769406049
MU_A_SIXTH_HALF = 3.6253683354777768
MU_INV_3 = 0.19719072657000561
MU_INV_01_COMP = 7.6961436700195916e-11
GAMMA2_2 = 3.1268038453922230
TAU2_3 = 1.5634019226961115
P_SQRT_HALF = 3.4015211768251031  # exp(pi/2)/sqrt(2); spec prose previewed 3.4069
P_03 = 3.9076068996875940

SQRT_HALF_VAL = math.sqrt(0.5)
A_GRID = (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5)
# signatures without a closed form: the series pass forward, Newton inverse
OFF_GRID = (0.01, 0.1, 0.2, 0.3, 0.45)

unit_interval = st.floats(min_value=0.01, max_value=0.99)


class TestUnitRadius:
    def test_from_r_roundtrip(self):
        u = UnitRadius.from_r(0.3)
        assert u.r == 0.3
        assert u.comp == pytest.approx(math.sqrt(0.91), rel=1e-15)
        assert u.swapped.r == u.comp and u.swapped.comp == u.r
        assert float(u) == 0.3

    def test_from_comp(self):
        u = UnitRadius.from_comp(1e-20)
        assert u.r == 1.0  # rounds to 1; the complement channel carries the value
        assert u.comp == 1e-20

    @pytest.mark.parametrize("comp", [-math.sqrt(0.75), math.nan])
    def test_complement_channel_checked(self, comp):
        # r^2 + comp^2 = 1 holds for -sqrt(3/4), and a NaN fails no comparison
        with pytest.raises(DomainError, match="complement must lie in"):
            UnitRadius(0.5, comp)

    def test_zero_complement_rejected(self):
        with pytest.raises(DomainError, match="complement must lie in"):
            UnitRadius(1.0, 0.0)

    def test_consistency_validation(self):
        with pytest.raises(DomainError):
            UnitRadius(0.5, 0.9)
        with pytest.raises(DomainError):
            UnitRadius(1.0, 1.0)
        with pytest.raises(DomainError):
            UnitRadius(0.0, 1.0)
        with pytest.raises(DomainError):
            UnitRadius.from_r(1.0)
        # one ulp above 1 meets r^2 + comp^2 = 1 to 1e-12: only the range checks refuse it
        for r, comp in ((math.nextafter(1.0, 2.0), 1e-300), (1e-300, math.nextafter(1.0, 2.0))):
            with pytest.raises(DomainError, match="must lie in"):
                UnitRadius(r, comp)
        with pytest.raises(DomainError):
            UnitRadius.from_comp(1.0)
        with pytest.raises(DomainError):
            UnitRadius.from_r(-0.2)

    def test_tuple_behaviour(self):
        u = UnitRadius(0.6, 0.8)
        assert repr(u) == "UnitRadius(r=0.6, comp=0.8)"
        assert float(u) == 0.6
        assert u == (0.6, 0.8) and tuple(u) == (0.6, 0.8)
        r, comp = u
        assert (r, comp) == (u.r, u.comp) == (0.6, 0.8)
        assert hash(u) == hash((0.6, 0.8))

    def test_immutable(self):
        u = UnitRadius(0.6, 0.8)
        with pytest.raises(AttributeError):
            u.r = 0.5
        with pytest.raises(AttributeError):
            u.extra = 1.0  # slotted: no instance dictionary
        assert not hasattr(u, "__dict__")

    def test_make_and_replace_validate(self):
        assert UnitRadius._make([0.6, 0.8]) == UnitRadius(0.6, 0.8)
        assert UnitRadius(0.6, 0.8)._replace(r=0.8, comp=0.6) == UnitRadius(0.8, 0.6)
        with pytest.raises(DomainError, match="inconsistent"):
            UnitRadius(0.6, 0.8)._replace(r=0.5)
        with pytest.raises(DomainError, match="radius must lie"):
            UnitRadius._make([2.0, 0.8])


class TestTrustedPairs:
    """Pairs formed without the constructor's checks all pass them.

    Seeded samplers, not Hypothesis, so that the inputs do not depend on the
    numeric literals of the package.  Each returned radius is rebuilt through
    the public constructor, which must accept it unchanged.
    """

    @staticmethod
    def revalidate(u):
        assert type(u) is UnitRadius
        assert UnitRadius(u.r, u.comp) == u
        assert UnitRadius(u.comp, u.r) == u.swapped

    @staticmethod
    def log_spread(rng, n, lo, hi):
        return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]

    def test_mu_inv(self):
        rng = random.Random(1201)
        half_pi = 0.5 * math.pi
        ys = self.log_spread(rng, 400, 0.0035, half_pi) + self.log_spread(rng, 400, half_pi, 709.0)
        for y in ys + [0.0035, math.nextafter(half_pi, 0.0), half_pi, 709.0]:
            self.revalidate(mu_inv(y))

    @pytest.mark.parametrize("a", A_GRID)
    def test_mu_a_inv(self, a):
        rng = random.Random(1202)
        y_sym = 0.5 * math.pi / math.sin(math.pi * a)
        y_lo = y_sym * y_sym / 700.0  # the dual of 700, where the complement nears underflow
        ys = self.log_spread(rng, 200, y_lo, y_sym) + self.log_spread(rng, 200, y_sym, 700.0)
        for y in ys + [y_lo, y_sym, 700.0]:
            self.revalidate(mu_a_inv(a, y))

    def test_distortions(self):
        rng = random.Random(1203)
        for _ in range(300):
            K = math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
            x = math.exp(rng.uniform(math.log(1e-12), math.log(0.5)))
            u = UnitRadius.from_comp(x) if rng.random() < 0.5 else UnitRadius.from_r(x)
            for call in (lambda: phi_K(K, u), lambda: phi_aK(rng.choice(A_GRID), K, u)):
                try:
                    v = call()
                except ConvergenceError:  # the radius or its complement underflows
                    continue
                self.revalidate(v)

    @pytest.mark.parametrize("x", [5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53])
    def test_single_channel_constructors(self, x):
        for u in (UnitRadius.from_r(x), UnitRadius.from_comp(x)):
            self.revalidate(u)
            self.revalidate(u.swapped)

    @pytest.mark.parametrize("t", [5e-324, 1e-300, 1.0, 1e300, 1.7e308])
    def test_eta_argument(self, t, monkeypatch):
        # the channels eta_K2 hands to the nome pass must form a valid pair
        seen = []
        real = distortion._phi_pair
        monkeypatch.setattr(distortion, "_phi_pair", lambda K, r, comp: seen.append((r, comp)) or real(K, r, comp))
        try:
            eta_K2(2.0, t)
        except OverflowSignal:  # u^2 / (1 - u^2) past the double range, after the pair is formed
            pass
        assert len(seen) == 1
        self.revalidate(UnitRadius(*seen[0]))


class TestBoundaryType:
    """A UnitRadius is formed where a public function returns a radius; the kernels pass plain pairs."""

    @pytest.mark.parametrize("y", [0.1, 1.0, 3.0, 40.0])
    def test_public_inverses_return_unit_radius(self, y):
        assert type(mu_inv(y)) is UnitRadius
        for a in (*CLOSED_FORM_SIGNATURES, 0.2):  # every grid row and the Newton route
            assert type(mu_a_inv(a, y)) is UnitRadius

    @pytest.mark.parametrize("x", [0.3, 0.9, UnitRadius.from_comp(1e-12)])
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    def test_distortions_return_unit_radius(self, K, x):
        assert type(phi_K(K, x)) is UnitRadius
        for a in A_GRID:
            assert type(phi_aK(a, K, x)) is UnitRadius

    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    def test_kernels_return_plain_pairs(self, K):
        for y in (0.5, 3.0):
            for swap in (False, True):
                assert type(modulus._theta_radius(y, swap)) is tuple
        assert type(modulus._phi_pair(K, 0.3, math.sqrt(0.91))) is tuple


class TestMu:
    def test_symmetric_point(self):
        assert mu(SQRT_HALF_VAL) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_recorded_values(self):
        assert mu(0.5) == pytest.approx(MU_HALF, rel=1e-13)
        assert mu(0.3) == pytest.approx(MU_03, rel=1e-13)
        assert mu(0.01) == pytest.approx(MU_001, rel=1e-13)

    def test_near_zero_asymptote(self):
        assert abs(mu(0.01) - math.log(400.0)) < 1e-4

    def test_asymptote_matches_agm_route_at_branch(self):
        # the nome route meets the two-term asymptote log(4/r) - r^2/4 near r = 0
        for r in (1.2e-5, 5e-5, 3e-4):
            agm_route = mu(UnitRadius.from_r(r))
            asymptote = math.log(4.0 / r) - 0.25 * r * r
            assert agm_route == pytest.approx(asymptote, rel=1e-12)

    def test_complement_at_and_below_smallest_normal(self):
        # 4/r' overflows here; mu(r) = pi^2 / (4 log(4/r')) to double precision all the same
        for c in (5e-324, 1e-310, sys.float_info.min):
            want = math.pi ** 2 / (4.0 * (math.log(4.0) - math.log(c)))
            assert mu(UnitRadius.from_comp(c)) == pytest.approx(want, rel=1e-15)
            assert mu_a(0.5, UnitRadius.from_comp(c)) == pytest.approx(want, rel=1e-15)

    def test_finite_at_and_below_smallest_normal(self):
        # 4/r overflows here; mu(r) = log(4/r) to double precision all the same
        tiny = sys.float_info.min
        for r in (tiny, 1e-310, 5e-324):
            assert mu(r) == pytest.approx(math.log(4.0) - math.log(r), rel=1e-15)
        assert mu(math.nextafter(tiny, 1.0)) == math.log(4.0 / math.nextafter(tiny, 1.0))
        assert mu(5e-324) > mu(1e-310) > mu(tiny)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            mu(bad)

    test_nome_route_against_agm_quotient = contract_test("mu.agm")

    @pytest.mark.parametrize("r", [5e-324, 1e-300, 1e-5, 0.1, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("comp_channel", [False, True])
    def test_nome_duality_switch(self, r, comp_channel):
        # the nome series are taken at the smaller channel, where q <= e^-pi;
        # evaluated at the larger one they are wrong far beyond rounding
        u = UnitRadius.from_comp(r) if comp_channel else UnitRadius.from_r(r)
        oracle = mu_agm(*u)
        assert abs(mu(u) - oracle) <= 5.0 * math.ulp(oracle)

    @pytest.mark.parametrize("seam", [SQRT_HALF_VAL, sys.float_info.min], ids=["r_eq_comp", "smallest_normal"])
    def test_nome_seams_against_mpmath(self, seam):
        # mu and K across the duality switch at r = r' and across the smallest normal
        # double, each x as the radius and as the complement: within the docstrings'
        # 3 and 4 ulp of 40-digit mpmath, and mu falls and K rises with r
        mp = pytest.importorskip("mpmath")
        mus, ks = [], []
        with mp.workdps(40):
            for x in around(seam):
                u = UnitRadius.from_r(x)
                k_x, k_xc = k_mp(pair_mp(x)[1]), k_mp(x)
                for got, want, tol in ((mu(u), mu_mp(x), 3),
                                       (mu(u.swapped), mu_mp(x, True), 3),
                                       (ellint_K_from_comp(u.comp, u.r), k_x, 4),
                                       (ellint_K_from_comp(u.r, u.comp), k_xc, 4)):
                    assert abs(got - want) <= tol * math.ulp(float(want)), (x, got)
                mus.append(mu(u))
                ks.append(ellint_K_from_comp(u.comp, u.r))
        assert all(b <= a for a, b in zip(mus, mus[1:])), mus
        assert all(a <= b for a, b in zip(ks, ks[1:])), ks

    def test_adjacent_doubles_monotone(self):
        # between adjacent doubles mu may rise by rounding only: on both
        # channels no rise exceeds 2 ulp (the duality maps an ulp of
        # mu(r') near 4 onto 2 ulp of mu(r) near 0.6), and rises are rare
        rng = random.Random(20261018)
        pairs = []
        for _ in range(2000):
            x = rng.choice([10.0 ** rng.uniform(-323.0, 0.0), rng.uniform(0.0, 1.0),
                            1.0 - 10.0 ** rng.uniform(-15.9, 0.0)])
            if 0.0 < x < math.nextafter(1.0, 0.0):
                # (smaller radius, next larger radius) on each channel
                pairs.append((UnitRadius.from_r(x), UnitRadius.from_r(math.nextafter(x, 1.0))))
            if 5e-324 < x < 1.0:
                pairs.append((UnitRadius.from_comp(x), UnitRadius.from_comp(math.nextafter(x, 0.0))))
        rises = 0
        for lower, upper in pairs:
            rise = mu(upper) - mu(lower)
            assert rise <= 2.0 * math.ulp(mu(lower)), (lower, upper)
            rises += rise > 0.0
        assert rises <= 0.005 * len(pairs), (rises, len(pairs))

    @given(unit_interval, unit_interval)
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing(self, r1, r2):
        lo, hi = min(r1, r2), max(r1, r2)
        assert mu(lo) >= mu(hi)
        if hi - lo > 1e-9 * hi:  # strictness needs separation above float resolution
            assert mu(lo) > mu(hi)

    def test_mu_plus_log_decreasing_to_log4(self):
        values = [mu(r) + math.log(r) for r in (1e-7, 0.01, 0.1, 0.5, 0.9, 0.999)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(math.log(4.0), abs=1e-12)


class TestMuInv:
    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, math.pi / 2.0, 3.0, 10.0, 20.0])
    def test_round_trip(self, y):
        assert abs(mu(mu_inv(y)) - y) <= 1e-12 * max(1.0, y)

    @pytest.mark.parametrize("r", [0.01, 0.1, 0.3, SQRT_HALF_VAL, 0.9, 0.99])
    def test_reverse_round_trip(self, r):
        u = mu_inv(mu(r))
        assert u.r == pytest.approx(r, rel=1e-12)

    def test_symmetric_point(self):
        assert mu_inv(math.pi / 2.0).r == pytest.approx(SQRT_HALF_VAL, rel=1e-14)

    def test_large_y_asymptote(self):
        # mu^-1(y) ~ 4 e^-y
        assert mu_inv(10.0).r == pytest.approx(4.0 * math.exp(-10.0), rel=1e-3)

    def test_recorded_value(self):
        assert mu_inv(3.0).r == pytest.approx(MU_INV_3, rel=1e-13)

    def test_complement_channel_small_y(self):
        assert mu_inv(0.1).comp == pytest.approx(MU_INV_01_COMP, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            mu_inv(0.0)
        with pytest.raises(DomainError):
            mu_inv(-1.0)

    def test_underflow_signalled(self):
        with pytest.raises(ConvergenceError):
            mu_inv(1e-4)

    def test_complement_below_1e300_returned(self):
        # the complement is 1.5e-304: below 1e-300, above the smallest normal double
        u, oracle = mu_inv(0.00352), newton_oracle(0.5, 0.00352)
        for v in (u, oracle):
            assert sys.float_info.min < v.comp < 1e-300
            assert abs(mu(v) - 0.00352) <= 1e-15
        assert abs(u.comp - oracle.comp) <= 1e-11 * oracle.comp

    @pytest.mark.parametrize("y", [709.8, 800.0, 1e6, 1e300])
    def test_result_below_normal_range_signalled(self, y):
        with pytest.raises(ConvergenceError):
            mu_inv(y)

    def test_last_normal_result(self):
        u = mu_inv(709.7)
        assert u.r >= sys.float_info.min
        assert u.r == pytest.approx(4.0 * math.exp(-709.7), rel=1e-12)

    test_theta_route_against_newton_oracle = contract_test("mu_inv.newton", "mu_inv.theta_residual", "mu_inv.unit_pair")

    def test_continuous_across_dual_nome_seam(self):
        seam = 0.5 * math.pi
        below, at, above = (mu_inv(y) for y in (math.nextafter(seam, 0.0), seam,
                                                 math.nextafter(seam, 4.0)))
        assert below.r >= at.r >= above.r
        assert below.comp <= at.comp <= above.comp
        ulp = math.ulp(SQRT_HALF_VAL)
        assert below.r - above.r <= 8 * ulp and above.comp - below.comp <= 8 * ulp

    test_every_positive_y_gives_radius_or_typed_error = contract_test("mu_inv.residual")


class TestMuA:
    @pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
    def test_signature_half_reduces_to_mu(self, r):
        assert mu_a(0.5, r) == pytest.approx(mu(r), rel=1e-12)

    @pytest.mark.parametrize("a", A_GRID)
    def test_symmetric_point(self, a):
        expected = math.pi / (2.0 * math.sin(math.pi * a))
        assert mu_a(a, SQRT_HALF_VAL) == pytest.approx(expected, rel=1e-12)

    def test_recorded_values(self):
        assert mu_a(1.0 / 3.0, 0.5) == pytest.approx(MU_A_THIRD_HALF, rel=1e-12)
        assert mu_a(1.0 / 6.0, 0.5) == pytest.approx(MU_A_SIXTH_HALF, rel=1e-12)

    @pytest.mark.parametrize("a", A_GRID)
    def test_decreasing(self, a):
        values = [mu_a(a, r / 20.0) for r in range(1, 20)]
        assert all(b < a_ for a_, b in zip(values, values[1:]))

    test_fused_series_against_public_quotient = contract_test("mu_a.fused_series")

    def test_warm_series_routes_run_no_import(self, monkeypatch):
        # the series routes reach specfun through one reference, bound on their first call
        import builtins

        calls = ((mu_a, 0.3, 0.4), (mu_a_inv, 0.3, 2.0), (phi_aK, 0.3, 2.0, 0.5))
        for fn, *args in calls:
            fn(*args)
        imported = []
        real = builtins.__import__
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "__import__", lambda *args, **kw: imported.append(args[0]) or real(*args, **kw))
            for fn, *args in calls:
                fn(*args)
        assert imported == []

    @given(st.floats(min_value=sys.float_info.min, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_no_increase_where_series_switches_formula(self, a):
        # the pass runs at w = r^2 up to the last float below 1/sqrt 2 and at w = r'^2 from it on
        left, right = (UnitRadius.from_r(r) for r in (math.nextafter(SQRT_HALF_VAL, 0.0),
                                                      SQRT_HALF_VAL))
        assert left.r <= left.comp and right.r > right.comp
        assert mu_a(a, left) >= mu_a(a, right)

    @pytest.mark.parametrize("a", OFF_GRID)
    def test_off_grid_no_increase_across_r_equals_complement(self, a):
        # 1 to 8 ulp either side of 1/sqrt 2, where the forward duality takes over
        values = [mu_a(a, r) for r in around(SQRT_HALF_VAL, (), 8)]
        assert all(w <= v for v, w in zip(values, values[1:])), values

    @pytest.mark.parametrize("a", [5e-324, 2.2e-311, 5e-309])
    def test_subnormal_signature_overflow_signalled(self, a):
        # R(a) ~ 1/a is not a double here, so no mu_a value is either
        with pytest.raises(OverflowSignal):
            mu_a(a, 0.5)
        with pytest.raises(OverflowSignal):
            mu_a(a, 0.9)

    @pytest.mark.parametrize("a", [1e-200, 2.2e-308])
    def test_tiny_signature_both_channels(self, a):
        # y_sym^2 overflows, and mu_a is y_sym to within 1e-150 on either channel
        y_sym = 0.5 * math.pi / math.sin(math.pi * a)
        for u in (UnitRadius.from_r(0.3), UnitRadius.from_comp(0.3), UnitRadius.from_comp(1e-300)):
            assert mu_a(a, u) == pytest.approx(y_sym, rel=1e-15), u

    def test_signature_domain(self):
        with pytest.raises(DomainError):
            mu_a(0.0, 0.5)
        with pytest.raises(DomainError):
            mu_a(0.6, 0.5)

    test_closed_forms_against_series_oracle = contract_test("mu_a.closed_forms")

    def test_closed_forms_run_no_series(self, monkeypatch):
        calls, newton, thetas = [], [], []
        # the series route imports _hyp_sums from specfun when it runs, so the counter sits there
        sums, solve, nome = specfun._hyp_sums, modulus._mu_a_newton, modulus._nome
        monkeypatch.setattr(specfun, "_hyp_sums",
                            lambda *args: calls.append(args) or sums(*args))
        monkeypatch.setattr(modulus, "_mu_a_newton",
                            lambda a, *args: newton.append(a) or solve(a, *args))
        # theta_3^2 is formed only where F is read: the value kernel of mu_a and phi_aK takes none
        monkeypatch.setattr(modulus, "_nome", lambda *args: thetas.append(args) or nome(*args))
        radii = (1e-9, 0.3, SQRT_HALF_VAL, 0.9, UnitRadius.from_comp(1e-12))
        for a in CLOSED_FORM_SIGNATURES:
            for r in radii:
                mu_a(a, r)
                for K in (0.3, 2.0, 7.0):
                    phi_aK(a, K, r)
            for y in (0.1, 1.0, 3.0, 40.0):
                mu_a_inv(a, y)
        assert thetas == []
        for a in CLOSED_FORM_SIGNATURES:
            thetas.clear()
            for r in radii:
                mu_a_derivative(a, r)
            assert len(thetas) == len(radii), a  # the F kernel forms it once a call
        assert calls == [] and newton == []  # an inverse map at every row
        mu_a(0.2, 0.5)  # the counter sees the series where it runs
        assert len(calls) == 1


class ClassicalRouteChecks:
    """mu_a and F on the classical route against the series, mu_a_inv against Newton.

    One subclass per signature sets A, its y_sym and R(a,1-a)/2, the last y
    on either side of y_sym whose radius is normal, and y whose radius or
    complement underflows.  The seeded series comparison is the contract
    row mu_a.closed_forms."""

    A = Y_SYM = HALF_R = None
    LAST = UNDER = ()
    # the start of the underflow message, formatted with a and y
    UNDER_MSG = "mu_a_inv({a}, {y}): "
    ULP_S = math.ulp(SQRT_HALF_VAL)

    def check_seam(self, xs, complement=False):
        # over the increasing xs, as r (mu_a decreasing) or as r' (increasing),
        # mu_a monotone, and mu_a and F against the series
        a = self.A
        us = [UnitRadius.from_comp(x) if complement else UnitRadius.from_r(x) for x in xs]
        values = [mu_a(a, u) for u in us]
        assert all((v <= w) if complement else (w <= v) for v, w in zip(values, values[1:])), values
        for u in us:
            value, f = modulus._mu_a_parts(a, u)
            want, f_want = series_oracle(a, u)
            assert abs(value - want) <= 1e-15 * want and abs(f - f_want) <= 1e-15 * f_want, u
        return values

    def test_forward_seam_at_r_equals_complement(self):
        y_sym, rs = self.Y_SYM, around(SQRT_HALF_VAL)
        values = self.check_seam(rs)
        # mu_a(r) >= y_sym exactly on the r <= r' side, and <= y_sym on the other
        for r, value in zip(rs, values):
            u = UnitRadius.from_r(r)
            assert value >= y_sym if u.r <= u.comp else value <= y_sym, r

    @pytest.mark.parametrize("r", [5e-324, 1e-320, 1e-310, sys.float_info.min])
    def test_below_normal_radius_takes_the_asymptote(self, r):
        # the classical radius loses digits below the smallest normal double;
        # mu_a(r) = R/2 - log r and F = 1 there, on either channel
        a, y_sym = self.A, self.Y_SYM
        want = self.HALF_R - math.log(r)
        assert mu_a(a, r) == pytest.approx(want, rel=1e-15)
        assert modulus._mu_a_parts(a, UnitRadius.from_r(r))[1] == 1.0
        u = UnitRadius.from_comp(r)
        assert mu_a(a, u) == pytest.approx(y_sym ** 2 / want, rel=1e-15)
        assert modulus._mu_a_parts(a, u)[1] == pytest.approx(want / y_sym, rel=1e-15)

    def test_closed_form_meets_the_asymptote(self):
        # just above the switch both routes hold full precision
        for r in (math.nextafter(sys.float_info.min, 1.0), 3 * sys.float_info.min, 1e-300, 1e-100):
            assert mu_a(self.A, r) == pytest.approx(self.HALF_R - math.log(r), rel=1e-15)


    def test_inverse_against_newton_seeded(self):
        a, y_sym, y_min = self.A, self.Y_SYM, self.LAST[1]
        rng = random.Random(617)
        for _ in range(300):
            y = math.exp(rng.uniform(math.log(y_min), math.log(700.0)))
            u, oracle = mu_a_inv(a, y), newton_oracle(a, y)
            # the smaller channel carries the digits: r at y >= y_sym, the complement below
            got, want = (u.r, oracle.r) if y >= y_sym else (u.comp, oracle.comp)
            assert abs(got - want) <= 1e-11 * want, y
            assert abs(mu_a(a, u) - y) <= 8e-16 * max(1.0, y), y
            assert abs(Fraction(u.r) ** 2 + Fraction(u.comp) ** 2 - 1) <= 1e-15

    def test_inverse_seam_at_y_sym(self):
        a, y_sym = self.A, self.Y_SYM
        ys = around(y_sym)
        us = [mu_a_inv(a, y) for y in ys]
        assert all(v.r >= w.r and v.comp <= w.comp for v, w in zip(us, us[1:])), us
        for y, u in zip(ys, us):
            assert abs(mu_a(a, u) - y) <= 8e-16 * max(1.0, y), y
        at = us[ys.index(y_sym)]
        assert abs(at.r - SQRT_HALF_VAL) <= 2 * self.ULP_S and abs(at.comp - SQRT_HALF_VAL) <= 2 * self.ULP_S

    def test_last_normal_results_and_underflow(self):
        a = self.A
        for y in self.LAST:
            u = mu_a_inv(a, y)
            assert min(u) >= sys.float_info.min * (1.0 - 1e-12)
            assert abs(mu_a(a, u) - y) <= 8e-16 * max(1.0, y)
        for y in self.UNDER + (1e-300, 1e300):
            with pytest.raises(ConvergenceError, match=re.escape(self.UNDER_MSG.format(a=a, y=y)) + ".* underflows"):
                mu_a_inv(a, y)


class TestHalfClosedForms(ClassicalRouteChecks):
    A, Y_SYM, HALF_R = 0.5, math.pi / 2.0, math.log(4.0)
    LAST, UNDER = (709.78, 0.0034763), (709.79, 0.003476)
    UNDER_MSG = "the radius or its complement at modulus {y}"  # mu_inv's own message


class TestQuarterClosedForms(ClassicalRouteChecks):
    A, Y_SYM, HALF_R = 0.25, math.pi / math.sqrt(2.0), math.log(8.0)
    LAST, UNDER = (710.47, 0.006946), (710.48, 0.0069457, 0.0069, 0.005)


class TestSixthClosedForms(ClassicalRouteChecks):
    A, Y_SYM, HALF_R = 1.0 / 6.0, math.pi, 0.5 * math.log(432.0)
    LAST, UNDER = (711.43, 0.013873), (711.44, 0.01387)


class TestThirdClosedForms(ClassicalRouteChecks):
    A, Y_SYM, HALF_R = 1.0 / 3.0, math.pi / math.sqrt(3.0), 0.5 * math.log(27.0)
    LAST, UNDER = (710.04, 0.0046334), (710.05, 0.0046332)
    # at s^2 = x* = (sqrt 432 - 20)/16 the signature-6 angle reaches pi/6; past it the
    # map yields the complement of the classical radius and the route takes the dual nome
    S_STAR = math.sqrt((math.sqrt(432.0) - 20.0) / 16.0)

    @pytest.mark.parametrize("complement", [False, True])
    def test_forward_seam_at_the_reflection(self, complement):
        assert 0.2214 < self.S_STAR < 0.2215
        self.check_seam(around(self.S_STAR), complement)


class TestMuADerivative:
    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_central_difference(self, a, r):
        h = 1e-6
        fd = (mu_a(a, r + h) - mu_a(a, r - h)) / (2.0 * h)
        assert mu_a_derivative(a, r) == pytest.approx(fd, rel=1e-6)

    def test_negative(self):
        for a in A_GRID:
            assert mu_a_derivative(a, 0.4) < 0.0

    def test_half_signature_point(self):
        # the derivative formula at a=1/2 against a central difference of mu
        h = 1e-6
        fd = (mu(SQRT_HALF_VAL + h) - mu(SQRT_HALF_VAL - h)) / (2.0 * h)
        assert mu_a_derivative(0.5, SQRT_HALF_VAL) == pytest.approx(fd, rel=1e-6)


class TestMuAInv:
    @pytest.mark.parametrize("a", (1.0 / 6.0, 0.25, 1.0 / 3.0))
    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 3.0, 10.0, 20.0])
    def test_round_trip(self, a, y):
        # the three inverse maps off 1/2 at fixed points, to ClassicalRouteChecks' bound
        assert abs(mu_a(a, mu_a_inv(a, y)) - y) <= 8e-16 * max(1.0, y)

    @pytest.mark.parametrize("y", [0.5, 2.0, 7.0])
    def test_reduces_to_mu_inv(self, y):
        assert mu_a_inv(0.5, y).r == pytest.approx(mu_inv(y).r, rel=1e-11)

    test_theta_routes_round_trip = contract_test("mu_a_inv.theta_round_trip")

    @pytest.mark.parametrize("a", A_GRID)
    def test_symmetric_point(self, a):
        y = math.pi / (2.0 * math.sin(math.pi * a))
        assert mu_a_inv(a, y).r == pytest.approx(SQRT_HALF_VAL, rel=1e-11)

    def test_inverse_composition(self):
        y = mu_a(1.0 / 3.0, 0.4)
        assert mu_a_inv(1.0 / 3.0, y).r == pytest.approx(0.4, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            mu_a_inv(1.0 / 3.0, 0.0)

    @pytest.mark.parametrize("a", A_GRID)
    @pytest.mark.parametrize("y", [800.0, 1200.0, 1e6])
    def test_result_below_normal_range_signalled(self, a, y):
        with pytest.raises(ConvergenceError):
            mu_a_inv(a, y)

    def test_complement_underflow_signalled(self):
        with pytest.raises(ConvergenceError):
            mu_a_inv(0.5, 1e-4)

    @pytest.mark.parametrize("a, y", [(0.005, 200.0), (0.0068, 379.8), (0.0072, 141.6)])
    def test_small_signature_round_trip(self, a, y):
        # an r-space bracket from the mu_a bounds spans a factor e^R/4 ~ 1e86 at a = 0.005
        assert abs(mu_a(a, mu_a_inv(a, y)) - y) <= 1e-11 * max(1.0, y)

    @pytest.mark.parametrize("a", A_GRID)
    def test_continuous_across_symmetric_value(self, a):
        y_sym = math.pi / (2.0 * math.sin(math.pi * a))
        below, at, above = (mu_a_inv(a, y) for y in (math.nextafter(y_sym, 0.0), y_sym,
                                                      math.nextafter(y_sym, 4.0)))
        assert below.r >= at.r >= above.r
        assert below.comp <= at.comp <= above.comp
        ulp = math.ulp(SQRT_HALF_VAL)
        assert below.r - above.r <= 8 * ulp and above.comp - below.comp <= 8 * ulp

    @pytest.mark.parametrize("a", OFF_GRID)
    def test_off_grid_monotone_across_symmetric_value(self, a):
        # 1 to 8 ulp either side of y_sym, below which Newton solves at the dual target
        ys = around(math.pi / (2.0 * math.sin(math.pi * a)), (), 8)
        us = [mu_a_inv(a, y) for y in ys]
        assert all(v.r >= w.r and v.comp <= w.comp for v, w in zip(us, us[1:])), us
        for y, u in zip(ys, us):
            assert abs(mu_a(a, u) - y) <= 1e-15 * max(1.0, y), y

    @pytest.mark.parametrize("a", A_GRID + (0.01,))
    def test_forward_duality(self, a):
        y_sym = math.pi / (2.0 * math.sin(math.pi * a))
        for r in (1e-12, 1e-3, 0.1, 0.5, SQRT_HALF_VAL, 0.9, 0.999999):
            u = UnitRadius.from_r(r)
            assert mu_a(a, u) * mu_a(a, u.swapped) == pytest.approx(y_sym * y_sym, rel=1e-13)

    test_every_input_gives_radius_or_typed_error = contract_test("mu_a_inv.residual")

    def test_newton_bisects_where_a_step_leaves_the_bracket(self, monkeypatch):
        # an F factor 4x too large makes each Newton step 16x too long: the bracket
        # turns the steps that leave it into bisection, so the root is still found
        parts = modulus._series_parts

        def steep(a, s, y_sym, big_r):
            value, f = parts(a, s, y_sym, big_r)
            return value, 4.0 * f
        monkeypatch.setattr(modulus, "_series_parts", steep)
        for a, y in ((0.2, 0.5), (0.2, 3.0), (1.0 / 3.0, 40.0), (1e-3, 300.0)):
            u = newton_oracle(a, y)
            assert abs(mu_a(a, u) - y) <= 1e-12 * max(1.0, y), (a, y)

    def test_newton_step_cap(self, monkeypatch):
        # an F factor 1000x too small makes each Newton step 1e6x too short: no step
        # leaves the bracket, none reaches the stop, and the cap ends the iteration
        parts = modulus._series_parts

        def flat(a, s, y_sym, big_r):
            value, f = parts(a, s, y_sym, big_r)
            return value, 1e-3 * f
        monkeypatch.setattr(modulus, "_series_parts", flat)
        with pytest.raises(ConvergenceError, match="within 100 steps"):
            mu_a_inv(0.2, 3.0)

    def test_series_evaluations_per_inverse(self, monkeypatch):
        # one _series_parts call is one pass of the fused series (both F factors)
        calls = []
        series_parts = modulus._series_parts
        monkeypatch.setattr(modulus, "_series_parts",
                            lambda *args: calls.append(1) or series_parts(*args))
        for a in (0.1, 0.2, 0.4):  # off the table, where Newton runs
            for y in (0.1, 0.5, 1.0, 3.0, 10.0, 20.0):
                calls.clear()
                mu_a_inv(a, y)
                assert 1 <= len(calls) <= 6, (a, y, len(calls))

    def test_newton_steps_take_the_series_pass_alone(self, monkeypatch):
        # a step reads mu_a and F at r <= r' from one series pass: no theta_3^2 off the
        # grid, and at the grid rows no closed-form forward map shared with the inverses
        thetas, values = [], []
        nome, value = modulus._nome, modulus._mu_a_value
        monkeypatch.setattr(modulus, "_nome", lambda *args: thetas.append(args) or nome(*args))
        for a in (0.1, 0.2, 0.3, 0.45):
            for y in (0.1, 1.0, 3.0, 40.0):
                mu_a_inv(a, y)
            phi_aK(a, 2.0, 0.5)
        assert thetas == []
        monkeypatch.setattr(modulus, "_mu_a_value", lambda *args: values.append(args) or value(*args))
        for a in CLOSED_FORM_SIGNATURES:
            newton_oracle(a, 3.0)
        assert values == []

    @pytest.mark.parametrize("call", [lambda: mu_a_inv(1e-17, 1.0),
                                      lambda: phi_aK(1e-17, 2.0, 0.5),
                                      lambda: mu_a_inv(5e-324, 1.0)])
    def test_tiny_signature_complement_underflows(self, call):
        # 1 - a rounds to 1.0, so the bracket's R(a) must not check b < 1;
        # at a = 5e-324, y_sym^2 overflows and the bracket end is NaN
        with pytest.raises(ConvergenceError, match="underflows"):
            call()


class TestCapacities:
    def test_gamma2_at_sqrt2(self):
        assert grotzsch_gamma2(math.sqrt(2.0)) == pytest.approx(4.0, rel=1e-13)

    def test_gamma2_at_two(self):
        assert grotzsch_gamma2(2.0) == pytest.approx(GAMMA2_2, rel=1e-13)

    def test_gamma2_monotone_with_degeneration_limits(self):
        # capacity blows up as the ring degenerates (s -> 1+) and dies as the
        # ray recedes (s -> inf); the spec prose says "increasing in s", but its
        # own example pair gamma2(sqrt 2) = 4 > gamma2(2) fixes the direction
        values = [grotzsch_gamma2(s) for s in (1.0001, 1.01, 1.5, 2.0, 10.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[0] > 10.0  # divergence at 1+ is logarithmic in the gap
        assert values[-1] < 2.0

    def test_tau2_at_one(self):
        assert teichmuller_tau2(1.0) == 2.0

    @pytest.mark.parametrize("t, value", [(1e-17, 26.68489516312176), (1e-300, 441.52644412887787)])
    def test_tau2_below_the_rounding_of_one_plus_t(self, t, value):
        # t + 1 rounds to 1 here; the complement channel is formed from t itself
        assert teichmuller_tau2(t) == pytest.approx(value, rel=1e-15)

    def test_tau2_at_three(self):
        assert teichmuller_tau2(3.0) == pytest.approx(TAU2_3, rel=1e-13)
        assert teichmuller_tau2(3.0) == pytest.approx(grotzsch_gamma2(2.0) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0])
    def test_defining_relation(self, s):
        assert 2.0 * teichmuller_tau2(s * s - 1.0) == pytest.approx(grotzsch_gamma2(s), rel=1e-12)

    @pytest.mark.parametrize("t", [0.2, 1.0, 3.0, 8.0])
    def test_tau2_inverse(self, t):
        assert tau2_inv(teichmuller_tau2(t)) == pytest.approx(t, rel=1e-11)

    @pytest.mark.parametrize("y, error", [(1e-300, OverflowSignal), (0.004, OverflowSignal),
                                          (0.00443, OverflowSignal), (0.005, OverflowSignal),
                                          (0.00881, OverflowSignal), (452.9, ConvergenceError),
                                          (460.0, ConvergenceError), (500.0, ConvergenceError),
                                          (903.0, ConvergenceError)])
    def test_tau2_inverse_beyond_the_normal_range_is_typed(self, y, error):
        # t = (r'/r)^2 is past the double range (inf before) or below the normal
        # range (a subnormal or 0.0 before) while mu_inv's own pair is normal;
        # below y ~ 0.00443 the radius of the pair underflows too, and t, past the
        # double range from 0.00882 down, still names the overflow (ConvergenceError before)
        with pytest.raises(error, match="tau2_inv"):
            tau2_inv(y)

    @pytest.mark.parametrize("y", [1e-309, 1e-320])
    @pytest.mark.parametrize("inverse, error", [(tau2_inv, OverflowSignal), (gamma2_inv, ConvergenceError)],
                             ids=["tau2_inv", "gamma2_inv"])
    def test_inverse_where_the_modulus_overflows(self, inverse, error, y):
        # pi/y and 2 pi/y overflow, so the theta radius is 0, as below y ~ 0.0044 and
        # 0.0089 (a DomainError about a modulus of inf before): tau2_inv's t = (r'/r)^2
        # is past the double range (ConvergenceError before), gamma2_inv's radius underflows
        with pytest.raises(error):
            inverse(y)

    @pytest.mark.parametrize("y", [0.0089, 452.0])
    def test_tau2_inverse_last_normal_values(self, y):
        t = tau2_inv(y)
        assert sys.float_info.min <= t <= sys.float_info.max
        assert teichmuller_tau2(t) == pytest.approx(y, rel=1e-13)

    @pytest.mark.parametrize("s", [1.2, 2.0, 5.0])
    def test_gamma2_inverse(self, s):
        assert gamma2_inv(grotzsch_gamma2(s)) == pytest.approx(s, rel=1e-11)

    @pytest.mark.parametrize("y", [1800.0, 1808.0, 1e4, 1e300])
    def test_gamma2_inverse_past_the_complement_underflow(self, y):
        # from y ~ 1807 only the complement of the pair underflows, and s = 1/r has
        # long rounded to 1: the value is 1.0 (ConvergenceError before, from 1808)
        assert gamma2_inv(y) == 1.0

    def test_domains(self):
        with pytest.raises(DomainError):
            grotzsch_gamma2(1.0)
        with pytest.raises(DomainError):
            teichmuller_tau2(0.0)
        with pytest.raises(DomainError):
            tau2_inv(-1.0)

    def test_tau2_rejects_t_below_minus_one(self):
        # sqrt(t + 1) has no real value there; t in (-1, 0] fails grotzsch_gamma2's s > 1
        with pytest.raises(DomainError, match="teichmuller_tau2 requires t > 0"):
            teichmuller_tau2(-2.0)


class TestAgmProduct:
    def test_symmetric_point(self):
        assert agm_product_p(SQRT_HALF_VAL) == pytest.approx(P_SQRT_HALF, rel=1e-13)
        assert agm_product_p(SQRT_HALF_VAL) == pytest.approx(
            math.exp(math.pi / 2.0) / math.sqrt(2.0), rel=1e-12)

    def test_recorded_value(self):
        assert agm_product_p(0.3) == pytest.approx(P_03, rel=1e-13)

    @pytest.mark.parametrize("r", [0.05, 0.2, 0.5, 0.8, 0.95, 0.999])
    def test_equality_with_modulus_exponential(self, r):
        p = agm_product_p(r)
        assert abs(p - r * math.exp(mu(r))) <= 1e-10 * p

    def test_at_least_one(self):
        for r in (0.01, 0.5, 0.99):
            assert agm_product_p(r) >= 1.0
