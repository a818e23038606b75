"""Identity-suite registry, residual evaluation, reports, experiments."""

import math

import pytest

from qcfun import ConvergenceError, DomainError, all_cases, experiment, get_case, residual, run_suite
from qcfun.identities import A_GRID, CaseKind, K_GRID, R_GRID

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

    def test_k_bracket_strict(self):
        assert min(get_case("KBracketLower").fn(r) for r in R_GRID) > 0.0
        assert min(get_case("KBracketUpper").fn(r) for r in R_GRID) > 0.0


class TestRunSuite:
    def test_full_default_run_passes(self):
        reports = run_suite()
        assert all(rep.passed for rep in reports), [
            (rep.case, rep.max_residual, rep.error) for rep in reports if not rep.passed]

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

    def test_error_aggregation(self):
        reports = run_suite(["LJ3", "Fixed1"], {"r": [1.5]})
        by_case = {rep.case: rep for rep in reports}
        assert by_case["LJ3"].error is not None
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


def test_grids_match_stated_defaults():
    assert R_GRID[0] == pytest.approx(0.05) and R_GRID[-1] == pytest.approx(0.95)
    assert len(R_GRID) == 19
    assert K_GRID == (1.01, 1.1, 1.5, 2.0, 3.0, 5.0)
    assert A_GRID == (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5)
