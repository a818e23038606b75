"""Identity-suite registry, residual evaluation, reports, experiments."""

import math

import pytest

from qcfun import ConvergenceError, DomainError, all_cases, experiment, get_case, modulus, residual, run_suite
from qcfun import SQRT_HALF
from qcfun.identities import A_GRID, EXPERIMENT_NAMES, CaseKind, IdentityCase, K_GRID, R_GRID

EQUALITY_ROSTER = [
    "LJ3",
    "RamanujanE1", "RamanujanE2", "RamanujanE3", "RamanujanE4",
    "RamanujanE5a", "RamanujanE5b",
    "PhiId1", "PhiId2", "PhiId3", "PhiId4", "PhiId5",
    "Fixed1", "Fixed2", "Fixed3", "Fixed4", "Fixed5",
    "BBG2", "BBG5", "BBG11",
    "PhiGroup1", "PhiGroup2", "PhiGroup3", "PhiGroup4",
    "RamIdCase",
]

INEQUALITY_ROSTER = [
    "LandenIneq", "MuSub", "MuSuper", "MuDup", "MuProd", "MeanChain",
    "KBracketLower", "KBracketUpper", "LambdaBracketLower", "LambdaBracketUpper",
    "QiuBracket",
]


class TestRegistry:
    def test_roster_complete(self):
        ids = {c.id for c in all_cases()}
        for case_id in EQUALITY_ROSTER + INEQUALITY_ROSTER + ["Landen", "MuPlusLog", "KOverLog"]:
            assert case_id in ids

    def test_kinds(self):
        for case_id in EQUALITY_ROSTER:
            assert get_case(case_id).kind is CaseKind.Equality
        for case_id in INEQUALITY_ROSTER:
            assert get_case(case_id).kind is CaseKind.Inequality
        assert get_case("MuPlusLog").kind is CaseKind.MonotoneProperty

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            get_case("NoSuchCase")
        with pytest.raises(DomainError):
            residual("NoSuchCase", (0.5,))

    def test_point_validation(self):
        with pytest.raises(DomainError):
            residual("LJ3", (1.5,))
        with pytest.raises(DomainError):
            residual("LJ3", (0.3, 0.4))

    def test_case_domain_is_checked(self):
        # phi_K accepts K = 1e7; the case's stated domain does not
        with pytest.raises(DomainError, match="outside"):
            residual("PhiGroup1", (1e7, 0.3))

    @pytest.mark.parametrize("point", [("abc",), (None,), 0.5, None])
    def test_non_numeric_point(self, point):
        with pytest.raises(DomainError, match="numeric"):
            residual("LJ3", point)

    def test_params_from_signature(self):
        assert get_case("PhiGroup2").params == ("A", "B", "r")
        assert get_case("MuSuper").params == ("a", "r", "t")
        assert get_case("Fixed1").params == ()
        for case in all_cases():
            assert len(case.domains) == len(case.params), case.id

    def test_default_points_inside_their_domains_once(self):
        # run_suite runs the default points as stored, unchecked
        cases = all_cases()
        assert len(cases) == 39
        for case in cases:
            points = case.default_points
            assert len(set(points)) == len(points), case.id
            for point in points:
                assert len(point) == len(case.params), (case.id, point)
                assert all(lo <= v <= hi for v, (lo, hi) in zip(point, case.domains)), (case.id, point)

    def test_tolerance_from_kind(self):
        expected = {CaseKind.Equality: 1e-13, CaseKind.Inequality: 1e-11, CaseKind.MonotoneProperty: 1e-11}
        assert all(case.tolerance == expected[case.kind] for case in all_cases())

    @pytest.mark.parametrize("i", range(1, 6))
    def test_fixed_cases_are_composition_identities_at_self_dual_point(self, i):
        # SQRT_HALF carries its complement exactly; a float point would not
        assert residual(f"Fixed{i}", ()) == get_case(f"PhiId{i}").fn(SQRT_HALF)


class TestSpotResiduals:
    def test_lj3(self):
        assert abs(residual("LJ3", (0.5,))) < 1e-10

    def test_fixed3(self):
        assert abs(residual("Fixed3", ())) < 1e-10

    def test_fixed2_root_oracle(self):
        # u u' = 1/16 has larger root u = sqrt((1 + sqrt(1 - 4/256))/2)
        from qcfun import SQRT_HALF, phi_K
        u = phi_K(math.sqrt(7.0), SQRT_HALF)
        expected = math.sqrt((1.0 + math.sqrt(1.0 - 4.0 / 256.0)) / 2.0)
        assert u.r == pytest.approx(expected, rel=1e-10)
        assert u.r == pytest.approx(0.99803725923665332, rel=1e-10)
        assert u.r * u.comp == pytest.approx(1.0 / 16.0, rel=1e-10)

    def test_phigroup1(self):
        assert abs(residual("PhiGroup1", (2.0, 0.3))) < 1e-10

    def test_bbg5_small(self):
        assert abs(residual("BBG5", (0.4,))) < 1e-8

    def test_landen_relative(self):
        for r in (0.1, 0.5, 0.9):
            assert abs(residual("Landen", (r,))) < 1e-12

    def test_cross_identity_coherence(self):
        # the degree-3 fixed point solves the composition identity at the symmetric point
        assert abs(residual("PhiId3", (math.sqrt(0.5),))) < 1e-9


class TestEqualityGrids:
    @pytest.mark.parametrize("case_id", EQUALITY_ROSTER)
    def test_passes_at_tolerance(self, case_id):
        case = get_case(case_id)
        worst = max(abs(case.fn(*p)) for p in case.default_points)
        assert worst <= case.tolerance


class TestRegressionDetection:
    """The suite fails when a closed-form route drifts by 1e-12 relative."""

    def test_equality_tolerance(self):
        assert all(c.tolerance == 1e-13 for c in all_cases() if c.kind is CaseKind.Equality)

    def test_third_row_drift_fails(self, monkeypatch):
        # scales mu_a at a = 1/3 only, through the c of its classical-route row
        c, y_sym, half_r = modulus._CLASSICAL[modulus._THIRD]
        monkeypatch.setitem(modulus._CLASSICAL, modulus._THIRD, (c * (1.0 + 1e-12), y_sym, half_r))
        assert not all(rep.passed for rep in run_suite())

    def test_theta_radius_drift_fails(self, monkeypatch):
        # scales the smaller channel, the one that carries the digits, in mu_inv and
        # in the nome pass of phi_K, eta_K2 and lambda_of_K; the pair stays consistent
        theta = modulus._theta_radius

        def drifted(y, swap):
            r, comp = theta(y, swap)
            if r <= comp:
                return modulus._pair(r * (1.0 + 1e-12), comp)
            return modulus._pair(r, comp * (1.0 + 1e-12))
        monkeypatch.setattr(modulus, "_theta_radius", drifted)
        reports = run_suite()
        assert all(rep.error is None for rep in reports)
        assert not all(rep.passed for rep in reports)


class TestInequalityGrids:
    @pytest.mark.parametrize("case_id", INEQUALITY_ROSTER + ["MuPlusLog", "KOverLog"])
    def test_holds_with_slack(self, case_id):
        case = get_case(case_id)
        worst = min(case.fn(*p) for p in case.default_points)
        assert worst >= -case.tolerance

    def test_equality_points(self):
        # stated equality cases land within 1e-9
        assert abs(residual("MuSub", (0.25, 0.3, 0.3))) <= 1e-9
        assert abs(residual("MuSuper", (0.25, 0.4, 0.4))) <= 1e-9
        assert abs(residual("QiuBracket", (1.0, 2.0))) <= 1e-9
        assert abs(residual("QiuBracket", (3.0, 0.0))) <= 1e-9
        for r in (0.2, 0.6):
            assert abs(residual("MuDup", (0.5, r))) <= 1e-9
            assert abs(residual("MuProd", (0.5, r))) <= 1e-10

    def test_landen_endpoint_grid(self):
        # at r = 1 - 1e-12 the Landen image 2 sqrt(r)/(1+r) rounds to 1; its complement does not
        endpoints = [1e-12, 1e-8, 1e-4, 1.0 - 1e-4, 1.0 - 1e-8, 1.0 - 1e-12]
        (rep,) = run_suite(["LandenIneq"], {"r": endpoints})
        assert rep.error is None and rep.passed, rep
        assert rep.n_points == 4 * len(endpoints)

    def test_k_bracket_strict(self):
        assert min(get_case("KBracketLower").fn(r) for r in R_GRID) > 0.0
        assert min(get_case("KBracketUpper").fn(r) for r in R_GRID) > 0.0


class TestRunSuite:
    def test_full_default_run_passes(self):
        reports = run_suite()
        assert all(rep.passed for rep in reports), [
            (rep.case, rep.max_residual, rep.error) for rep in reports if not rep.passed]

    def test_reports_the_largest_violation(self):
        # an equality's largest absolute residual (BBG11's is positive), an inequality's most negative slack
        for rep, case in zip(run_suite(), all_cases()):
            values = [case.fn(*p) for p in case.default_points]
            equality = case.kind is CaseKind.Equality
            assert rep.max_residual == max(abs(v) if equality else -v for v in values), case.id

    def test_sorted_and_deterministic(self):
        r1 = run_suite(["LJ3", "Fixed1", "BBG2"])
        r2 = run_suite(["BBG2", "LJ3", "Fixed1"])
        assert [r.case for r in r1] == ["BBG2", "Fixed1", "LJ3"]
        assert r1 == r2

    def test_empty_selection(self):
        assert run_suite([]) == []

    def test_grid_override(self):
        reports = run_suite(["LJ3"], {"r": [0.1, 0.3, 0.5]})
        assert reports[0].n_points == 3
        assert reports[0].passed

    def test_off_grid_signatures_pass(self):
        # the series pass and Newton, where no closed form serves mu_a or its inverse
        ids = ["RamIdCase", "MuSub", "MuSuper", "MuDup", "MuProd"]
        reports = run_suite(ids, {"a": (0.01, 0.1, 0.2, 0.3, 0.45)})
        assert sorted(rep.case for rep in reports) == sorted(ids)
        assert all(rep.passed for rep in reports), [rep.case for rep in reports if not rep.passed]

    def test_only_override_points_are_checked(self, monkeypatch):
        checked = []
        check_point = IdentityCase.check_point

        def counting(case, point):
            checked.append((case.id, point))
            return check_point(case, point)
        monkeypatch.setattr(IdentityCase, "check_point", counting)
        run_suite()
        assert checked == []
        # LJ3 and MuSub take r or s from the overrides; Fixed1 and MeanChain have neither
        run_suite(["LJ3", "MuSub", "Fixed1", "MeanChain"], {"r": [0.2, 0.4], "s": [0.2, 0.6]})
        assert sorted(checked) == sorted([("LJ3", (0.2,)), ("LJ3", (0.4,))] + [
            ("MuSub", (a, r, s)) for a in A_GRID for r in (0.2, 0.4) for s in (0.2, 0.6)])

    def test_override_outside_its_domain_fails_the_report(self):
        # phi_K takes K = 1e7, so only the domain check fails this point
        (rep,) = run_suite(["PhiGroup1"], {"K": [1e7]})
        assert not rep.passed and rep.error.startswith("DomainError: PhiGroup1: parameter K=")

    def test_grid_override_keeps_joint_coordinates(self):
        # every (a, r, s) with a from the default grid, r and s from the override;
        # the signature axis keeps its four values once each
        (rep,) = run_suite(["MuSub"], {"r": [0.2, 0.4, 0.6], "s": [0.2, 0.4, 0.6]})
        assert rep.n_points == len(A_GRID) * 9
        assert rep.grid == f"{rep.n_points} point(s) over (a, r, s)"
        (rep,) = run_suite(["PhiGroup2"], {"r": [0.5]})
        assert rep.n_points == len(K_GRID) ** 2

    def test_grid_description(self):
        assert run_suite(["Fixed1"])[0].grid == "single evaluation"
        assert run_suite(["LJ3"])[0].grid == f"{len(R_GRID)} point(s) over (r)"

    def test_error_aggregation(self):
        reports = run_suite(["LJ3", "Fixed1"], {"r": [1.5]})
        by_case = {rep.case: rep for rep in reports}
        assert by_case["LJ3"].error is not None
        assert math.isnan(by_case["LJ3"].max_residual)
        assert not by_case["LJ3"].passed
        assert by_case["Fixed1"].passed  # unaffected case still evaluated

    def test_report_dict_schema(self):
        rep = run_suite(["Fixed1"])[0].to_dict()
        assert set(rep) == {"case", "kind", "grid", "n_points", "max_residual",
                            "worst_point", "tolerance", "pass", "error"}


class TestExperiments:
    def test_q_maclaurin_reports(self):
        obs = experiment("q_maclaurin", a=0.25, b=0.25, n=20)
        assert len(obs["coefficients"]) == 21
        assert obs["signs"][0] in "+-0"
        assert obs["all_positive"] == all(c > 0 for c in obs["coefficients"])

    def test_newton_monotone(self):
        obs = experiment("newton_monotone", y=4.0)
        assert obs["monotone_increasing"]
        assert obs["stays_below_one"]
        assert abs(obs["final_residual"]) < 1e-10
        assert obs["iterates"][-1] == pytest.approx(obs["reference"], rel=1e-10)

    def test_newton_domain(self):
        with pytest.raises(DomainError):
            experiment("newton_monotone", y=1.0)

    def test_newton_underflowing_root_signalled(self):
        # 1/cosh(800) is out of range; the typed error comes first
        with pytest.raises(ConvergenceError):
            experiment("newton_monotone", y=800.0)

    def test_artanh_ratio(self):
        obs = experiment("artanh_ratio", K=3.0)
        lo, hi = obs["conjectured_range"]
        assert lo == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-12)
        assert hi == 3.0
        assert len(obs["g"]) == len(R_GRID)

    def test_linearize_phi_a(self):
        obs = experiment("linearize_phi_a", a=1.0 / 3.0, K=2.0)
        assert len(obs["slope"]) == len(obs["x"])
        assert obs["slope_range"][0] > 0.0

    def test_phiid4_printed_reports_discrepancy(self):
        obs = experiment("phiid4_printed")
        # the verbatim printed parameterization is not an identity: the residual
        # is reported, not asserted away
        assert obs["max_abs_residual"] > 0.1
        assert "transcription" in obs["note"]

    def test_unknown_experiment(self):
        with pytest.raises(DomainError):
            experiment("no_such_experiment")

    @pytest.mark.parametrize("name, params", [
        ("phiid4_printed", {"K": 2.0}),
        ("artanh_ratio", {"y": 2.0}),
        ("newton_monotone", {"iterations": 5}),
        ("linearize_phi_a", {"h": 1e-3}),
    ])
    def test_unknown_parameter(self, name, params):
        with pytest.raises(DomainError, match="not a parameter"):
            experiment(name, **params)

    @pytest.mark.parametrize("value", ["abc", None, [1.0]])
    def test_non_numeric_parameter(self, value):
        with pytest.raises(DomainError, match="must be a number"):
            experiment("artanh_ratio", K=value)

    @pytest.mark.parametrize("name", ["newton_monotone", "q_maclaurin"])
    @pytest.mark.parametrize("n", [math.nan, math.inf, -1, 2.5, 1001, 1e9])
    def test_integer_parameter_bounded(self, name, n):
        with pytest.raises(DomainError, match=r"integer in \[0, 1000\]"):
            experiment(name, n=n)

    def test_integer_parameter_limits(self):
        assert len(experiment("q_maclaurin", n=0)["coefficients"]) == 1
        assert len(experiment("q_maclaurin", n=1000.0)["coefficients"]) == 1001
        assert len(experiment("newton_monotone", y=4.0, n=0)["iterates"]) == 1
        assert len(experiment("newton_monotone", y=4.0, n=2.0)["iterates"]) == 3

    @pytest.mark.parametrize("a, b", [(0.7, 0.7), (1.5, 0.25), (0.0, 0.5)])
    def test_q_maclaurin_domain(self, a, b):
        with pytest.raises(DomainError, match="a \\+ b <= 1"):
            experiment("q_maclaurin", a=a, b=b)

    @pytest.mark.parametrize("K", [2.0, 1.0, 0.5, math.inf, math.nan])
    def test_artanh_ratio_domain(self, K):
        with pytest.raises(DomainError, match="K != 2"):
            experiment("artanh_ratio", K=K)

    def test_artanh_ratio_largest_dilatation(self):
        # phi_K(0.95) rounds to 1 from K ~ 7.55 on, and its complement carries
        # the digits up to K ~ 281.1, where it underflows
        for K in (7.5, 7.6, 20.0, 281.0):
            obs = experiment("artanh_ratio", K=K)
            assert all(math.isfinite(g) for g in obs["g"]) and obs["monotone_increasing"], K
        with pytest.raises(ConvergenceError, match="underflows"):
            experiment("artanh_ratio", K=282.0)

    def test_names_are_the_table(self):
        assert EXPERIMENT_NAMES == ("q_maclaurin", "newton_monotone", "artanh_ratio",
                                    "linearize_phi_a", "phiid4_printed")


def test_grids_match_stated_defaults():
    assert R_GRID[0] == pytest.approx(0.05) and R_GRID[-1] == pytest.approx(0.95)
    assert len(R_GRID) == 19
    assert K_GRID == (1.01, 1.1, 1.5, 2.0, 3.0, 5.0)
    assert A_GRID == (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5)
