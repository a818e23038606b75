"""Command-line interface: parsing, determinism, exit codes, formats."""

import inspect
import json
import math

import pytest

from qcfun import identities, linearized_g
from qcfun.cli import _build_parser, main

MU_HALF = 2.0094593770052853


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_mu(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "mu", "--r", "0.5")
        assert code == 0
        assert float(out.strip()) == pytest.approx(MU_HALF, rel=1e-15)

    def test_seventeen_digit_format(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--fn", "mu", "--r", "0.5")
        assert out.strip() == f"{MU_HALF:.17g}"

    def test_domain_gate_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "mu", "--r", "1.5")
        assert code == 2
        assert "error" in err

    def test_missing_flag_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "phiK", "--r", "0.5")
        assert code == 2
        assert "--K" in err

    def test_unknown_fn_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--fn", "nope", "--r", "0.5"])
        assert exc.value.code == 2

    def test_phi_closed_form(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--fn", "phiK", "--K", "2", "--r", "0.5")
        assert float(out) == pytest.approx(2.0 * math.sqrt(0.5) / 1.5, rel=1e-11)

    def test_signature_functions(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "muA", "--a", "0.25", "--r", "0.3")
        assert code == 0 and float(out) > 0


class TestInvert:
    def test_mu_round_trip(self, capsys):
        for y in (0.7, 2.0, math.pi / 2.0):
            _, out, _ = run_cli(capsys, "invert", "--fn", "mu", "--y", f"{y:.17g}")
            r = float(out)
            _, out2, _ = run_cli(capsys, "eval", "--fn", "mu", "--r", f"{r:.17g}")
            assert abs(float(out2) - y) <= 1e-12 * max(1.0, y)

    def test_mu_symmetric_point(self, capsys):
        _, out, _ = run_cli(capsys, "invert", "--fn", "mu", "--y", f"{math.pi / 2:.17g}")
        assert float(out) == pytest.approx(math.sqrt(0.5), rel=1e-13)

    def test_mua_default_signature(self, capsys):
        _, out1, _ = run_cli(capsys, "invert", "--fn", "muA", "--y", "2.0")
        _, out2, _ = run_cli(capsys, "invert", "--fn", "mu", "--y", "2.0")
        assert float(out1) == pytest.approx(float(out2), rel=1e-10)

    def test_mua_small_signature(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--fn", "muA", "--a", "0.005", "--y", "200")
        assert code == 0
        assert float(out) == pytest.approx(3.72e-44, rel=1e-3)


class TestTable:
    def test_csv_shape_and_determinism(self, capsys):
        args = ("table", "--fn", "phiK", "--K", "2", "--from", "0.1", "--to", "0.9",
                "--step", "0.1", "--format", "csv")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2  # byte-identical reruns
        lines = out1.strip().splitlines()
        assert lines[0] == "r,value,error"
        assert len(lines) == 10
        r, value, err = lines[5].split(",")
        assert err == ""
        assert float(value) == pytest.approx(2.0 * math.sqrt(float(r)) / (1.0 + float(r)), rel=1e-10)

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--fn", "lambda", "--from", "1", "--to", "2",
                               "--step", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["function"] == "lambda"
        assert len(payload["grid"]) == len(payload["values"]) == 3
        assert float(payload["values"][0]) == pytest.approx(1.0, rel=1e-12)

    def test_row_level_error_continues(self, capsys):
        # K' diverges at 0: first row errors, the rest still evaluate
        code, out, _ = run_cli(capsys, "table", "--fn", "Kprime", "--from", "0", "--to", "1",
                               "--step", "0.25", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "0,,K'(r) diverges at r = 0"
        assert lines[2].endswith(",")  # clean row

    def test_json_error_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--fn", "Kprime", "--from", "0", "--to", "1",
                               "--step", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"][0] is None
        assert payload["errors"] == ["K'(r) diverges at r = 0", None, None]

    @pytest.mark.parametrize("step", ["0", "-0.1"])
    def test_nonpositive_step_exit_two(self, capsys, step):
        code, out, err = run_cli(capsys, "table", "--fn", "mu", "--from", "0.1", "--to", "0.9",
                                 "--step", step)
        assert code == 2 and out == ""
        assert "step must be positive" in err

    def test_every_eval_function_tabulates(self, capsys):
        # a table sweeps the last flag of the eval function
        code, out, _ = run_cli(capsys, "table", "--fn", "muADeriv", "--a", "0.3", "--from", "0.1",
                               "--to", "0.9", "--step", "0.4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,value,error" and len(lines) == 4
        assert all(float(line.split(",")[1]) < 0.0 for line in lines[1:])

    def test_schottky_sweeps_r(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--fn", "schottky", "--t", "2", "--from", "0",
                               "--to", "0.5", "--step", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,value,error"
        assert float(lines[1].split(",")[1]) == pytest.approx(2.0, rel=1e-12)  # psi(0, t) = t

    def test_missing_fixed_flag_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "table", "--fn", "phiK", "--from", "0.1", "--to", "0.9",
                               "--step", "0.1")
        assert code == 2 and "--K" in err

    def test_linearg_far_rows_error_and_sweep_continues(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--fn", "linearg", "--K", "2", "--from", "-1000",
                               "--to", "1000", "--step", "1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-1000,,") and "underflows" in lines[1]
        assert lines[2] == f"0,{linearized_g(2.0, 0.0):.17g},"
        assert lines[3].startswith("1000,,") and "underflows" in lines[3]

    def test_bad_grid_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "table", "--fn", "mu", "--from", "0.9", "--to", "0.1",
                               "--step", "0.1")
        assert code == 2 and "from < to" in err


class TestResiduals:
    def test_single_case(self, capsys):
        code, out, _ = run_cli(capsys, "residuals", "--case", "LJ3",
                               "--grid", "0.1:0.9:0.1")
        assert code == 0
        report = json.loads(out)
        assert report[0]["case"] == "LJ3"
        assert report[0]["pass"] is True
        assert report[0]["max_residual"] <= 1e-9
        assert set(report[0]) >= {"case", "max_residual", "worst_point", "tolerance", "pass"}

    def test_bbg11_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "residuals", "--case", "BBG11")
        assert code == 0
        assert json.loads(out)[0]["max_residual"] < 1e-8

    def test_failing_grid_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "residuals", "--case", "LJ3", "--grid", "1.2:1.4:0.1")
        assert code == 1
        assert json.loads(out)[0]["error"] is not None

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "residuals", "--list")
        assert code == 0
        assert "LJ3" in out and "QiuBracket" in out
        lines = out.strip().splitlines()
        assert len(lines) == 39
        assert "LJ3\tequality\ttol=1e-13" in lines


class TestExperimentCli:
    def test_phiid4(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--name", "phiid4_printed")
        assert code == 0
        obs = json.loads(out)
        assert obs["max_abs_residual"] > 0.1

    def test_newton(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--name", "newton_monotone", "--y", "4")
        assert code == 0
        assert json.loads(out)["stays_below_one"] is True

    def test_wrong_flag_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--name", "phiid4_printed", "--K", "2")
        assert code == 2 and "not a parameter" in err

    @pytest.mark.parametrize("name, flag, value", [
        ("q_maclaurin", "a", "0.3"), ("q_maclaurin", "b", "0.4"), ("q_maclaurin", "n", "7"),
        ("newton_monotone", "y", "5"), ("newton_monotone", "n", "3"),
        ("artanh_ratio", "K", "5"), ("linearize_phi_a", "a", "0.25"), ("linearize_phi_a", "K", "3"),
    ])
    def test_every_experiment_flag(self, capsys, name, flag, value):
        # each flag reaches the experiment's parameter of the same name, typed by its default
        code, out, _ = run_cli(capsys, "experiment", "--name", name, f"--{flag}", value)
        assert code == 0
        kind = type(inspect.signature(identities._EXPERIMENTS[name]).parameters[flag].default)
        expected = identities.experiment(name, **{flag: kind(value)})
        assert out == json.dumps(expected, indent=2, default=float) + "\n"

    def test_flag_types_from_defaults(self):
        args = _build_parser().parse_args(["experiment", "--name", "q_maclaurin", "--a", "1", "--b", "1",
                                           "--n", "7", "--y", "5", "--K", "3"])
        assert [type(getattr(args, f)) for f in "abnyK"] == [float, float, int, float, float]

    def test_integer_flag_limit_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "--name", "q_maclaurin", "--n", "1001")
        assert code == 2 and "1000" in err


class TestBoundsCli:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--id", "MoriConstant", "--K", "2")
        assert code == 0
        assert float(out) == pytest.approx(8.0, rel=1e-12)

    def test_eta_default_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--id", "EtaKnUpper", "--K", "2", "--t", "1")
        assert code == 0
        assert float(out) == pytest.approx(math.exp(54.0), rel=1e-12)

    def test_missing_param(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--id", "GehringD2")
        assert code == 2 and "--K" in err

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--list")
        assert code == 0 and "KuhnauTriangleK" in out
        assert "EtaKnUpper\tparams: K, t, n" in out.splitlines()

    @pytest.mark.parametrize("argv, expected", [
        (("--id", "KuhnauTriangleK", "--alpha", "0.2"), "3"),
        (("--id", "BeurlingAhlforsK", "--M", "3"), "5"),
        (("--id", "AgardGehringLower", "--M", "1.5"), "1.125"),
        (("--id", "SurfaceArea", "--n", "2"), f"{2.0 * math.pi:.17g}"),
        (("--id", "HaymanSchottky", "--r", "0", "--t", "1"), f"{math.exp(math.pi):.17g}"),
    ])
    def test_every_signature_flag(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 0
        assert out.strip() == expected

    def test_overflow_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--id", "SeittenrantaS", "--K", "7")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: SeittenrantaS(K=7.0) exceeds double precision"]


class TestGeomCli:
    def test_generate_koch(self, capsys, tmp_path):
        out_file = tmp_path / "k.csv"
        code, out, _ = run_cli(capsys, "geom", "generate", "--koch", "--level", "5",
                               "--angle", "60", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) - 1 == 3 * 4 ** 5  # 3072 vertices = 3072 edges closed
        assert "3072" in out

    def test_check_ahlfors_circle(self, capsys, tmp_path):
        circle = tmp_path / "circle.csv"
        run_cli(capsys, "geom", "generate", "--ngon", "400", "--out", str(circle))
        code, out, _ = run_cli(capsys, "geom", "check", "--in", str(circle),
                               "--property", "ahlfors")
        assert code == 0
        assert json.loads(out)["ahlfors"] == pytest.approx(1.0, abs=1e-3)

    def test_check_boxdim(self, capsys, tmp_path):
        kfile = tmp_path / "k.csv"
        run_cli(capsys, "geom", "generate", "--koch", "--level", "5", "--out", str(kfile))
        code, out, _ = run_cli(capsys, "geom", "check", "--in", str(kfile),
                               "--property", "boxdim", "--scales", "10")
        assert code == 0
        assert json.loads(out)["boxdim"] == pytest.approx(1.2619, abs=0.05)

    def test_check_triangle_open(self, capsys, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("x,y\n0,0\n1,0\n1,1\n")
        code, out, _ = run_cli(capsys, "geom", "check", "--in", str(path),
                               "--property", "triangle")
        assert code == 0
        assert json.loads(out)["triangle"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_check_triangle_vertex_limit_exit_two(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("x,y\n" + "".join(f"{i},{i % 2}\n" for i in range(1025)))
        code, _, err = run_cli(capsys, "geom", "check", "--in", str(path), "--property", "triangle")
        assert code == 2 and "1024" in err
        code, out, _ = run_cli(capsys, "geom", "check", "--in", str(path), "--property", "triangle",
                               "--adjacent-only")
        assert code == 0 and json.loads(out)["triangle"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_malformed_csv_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,0\nnope,1\n")
        code, _, err = run_cli(capsys, "geom", "check", "--in", str(path),
                               "--property", "ahlfors")
        assert code == 2
        assert "line 3" in err


class TestTypedErrors:
    def test_invert_underflowing_result_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "invert", "--fn", "mu", "--y", "800")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "underflows" in err

    def test_tiny_dilatation_exit_one(self, capsys):
        # mu(0.5) / 1e-310 overflows: the radius underflows, a computation failure
        code, out, err = run_cli(capsys, "eval", "--fn", "phiK", "--K", "1e-310", "--r", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "underflows" in err


class TestModuleEntry:
    """``python -m qcfun.cli`` runs ``main`` and exits with its code."""

    @staticmethod
    def _run(*argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import qcfun

        src = str(Path(qcfun.__file__).resolve().parent.parent)
        return subprocess.run([sys.executable, "-m", "qcfun.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)

    def test_value(self):
        proc = self._run("eval", "--fn", "mu", "--r", "0.5")
        assert proc.returncode == 0
        assert proc.stdout == f"{MU_HALF:.17g}\n"

    @pytest.mark.parametrize("argv", [
        ("bounds", "--id", "SeittenrantaS", "--K", "7"),
        ("eval", "--fn", "linearg", "--K", "2", "--x", "1000"),
    ])
    def test_typed_failure_exit_one(self, argv):
        proc = self._run(*argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestLazyNumpy:
    SCRIPT = (
        "import sys, qcfun\n"
        "qcfun.phi_K(2, .5)\n"
        "from qcfun.cli import main\n"
        "main(['eval', '--fn', 'mu', '--r', '.5'])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "qcfun.regular_ngon(5)\n"
        "assert 'numpy' in sys.modules\n"
    )

    def test_light_paths_leave_numpy_unloaded(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import qcfun

        src = str(Path(qcfun.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{MU_HALF:.17g}"
