import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bectension import analytic, cli, solver
from bectension.grid import ProfilePair


FAST_GRID = ["--half-width", "10", "--spacing", "0.05", "--grad-tol", "1e-7"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_csv(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--beta", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,lower,upper"
        beta, lower, upper = (float(tok) for tok in lines[1].split(","))
        br = analytic.sigma_bracket(1.0)
        assert (beta, lower, upper) == (1.0, br.lower, br.upper)
        assert "bracket" in err

    def test_json_roundtrip_bit_exact(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--beta", "3.7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        br = analytic.sigma_bracket(3.7)
        assert doc["lower"] == br.lower
        assert doc["upper"] == br.upper

    def test_csv_roundtrip_bit_exact(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--beta", "3.7")
        row = out.strip().splitlines()[1].split(",")
        br = analytic.sigma_bracket(3.7)
        assert float(row[1]) == br.lower and float(row[2]) == br.upper


class TestValidation:
    def test_zero_beta_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sigma", "--beta", "0"])
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--beta", "1", "--bogus"])
        assert exc.value.code == 2

    def test_bad_beta_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--betas", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sigma", "--beta", "inf"],
        ["sigma", "--beta", "1", "--spacing", "0"],
        ["gamma", "--beta", "inf", "--eps-list", "0.04"],
        ["gamma", "--beta", "1", "--eps-list", "0.2"],
        ["gamma", "--beta", "1", "--eps-list", "0.02,0.04"],
        ["sweep", "--betas", "1:inf:3-log"],
        ["sweep", "--betas", "nan:10:3-log"],
        ["sigma", "--beta", "1", "--spacing", "0.1", "--n-points", "201"],
        ["sigma", "--beta", "1", "--half-width", "inf"],
        ["sigma", "--beta", "1", "--grad-tol", "nan"],
        ["sigma", "--beta", "1", "--grad-tol", "inf"],
        ["gamma", "--beta", "1", "--eps-list", ","],
        ["gamma", "--beta", "1", "--eps-list", "0.04", "--alpha1", "1.5"],
        ["tf", "--dim", "1", "--alpha", "1.5"],
    ])
    def test_bad_input_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert "Traceback" not in err

    def test_unwritable_output(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--beta", "1",
                               "--output", "/nonexistent-dir/x.csv")
        assert code == 1
        assert "i/o failure" in err


class TestBetaList:
    def test_log_expansion(self):
        vals = cli.parse_beta_list("1:100:3-log")
        assert vals == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)

    def test_single_point(self):
        assert cli.parse_beta_list("2:8:1-log") == [2.0]

    def test_rejects_bad_specs(self):
        for bad in ["1:100:3", "1:100:3-lin", "0:1:3-log", "a:b:c-log"]:
            with pytest.raises(ValueError):
                cli.parse_beta_list(bad)


class TestSigmaAndProfile:
    def test_sigma_emits_schema(self, capsys):
        code, out, err = run_cli(capsys, "sigma", "--beta", "1", *FAST_GRID)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,sigma,inf_v,argmin_v,lower,upper,el_res_v,el_res_phi,equip_l2,iters"
        assert len(lines) == 2
        assert "sigma(beta=1)" in err

    def test_profile_dump_format(self, capsys, tmp_path):
        dump = tmp_path / "profile.txt"
        code, _, _ = run_cli(capsys, "profile", "--beta", "1", "--dump", str(dump), *FAST_GRID)
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "# t v phi"
        body = [line.split() for line in lines[1:]]
        assert len(body) == 401  # 2*10/0.05 + 1 nodes
        t, v, phi = np.array(body, dtype=float).T
        assert t[0] == -10.0 and t[-1] == 10.0
        assert v[0] == 1.0 and phi[0] == 0.0
        assert phi[-1] == pytest.approx(math.pi, abs=1e-15)

    def test_profile_dump_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "profile.txt"
        code, out, _ = run_cli(capsys, "profile", "--beta", "1", "--dump", str(dump), *FAST_GRID)
        assert code == 0
        sigma = float(out.strip().splitlines()[1].split(",")[1])
        result = solver.solve(1.0, solver.SolverConfig(half_width=10.0, spacing=0.05,
                                                       grad_tol=1e-7))
        t, v, phi = np.loadtxt(dump, unpack=True)
        assert np.array_equal(t, result.grid.nodes)
        assert np.array_equal(v, result.pair.v) and np.array_equal(phi, result.pair.phi)
        loaded = ProfilePair(result.grid, v, phi)
        assert solver.discrete_energy(loaded, 1.0).total == sigma == result.sigma

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sigma", "--beta", "0.5", *FAST_GRID)
        _, out2, _ = run_cli(capsys, "sigma", "--beta", "0.5", *FAST_GRID)
        assert out1 == out2


class TestSweep:
    def test_row_count_and_reports(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--betas", "0.5:2:3-log", *FAST_GRID)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("beta,sigma,inf_v,")
        assert "sweep: 3 rows" in err


class TestTf:
    def test_dimension_three_report(self, capsys):
        code, out, _ = run_cli(capsys, "tf", "--dim", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["broken"] is True
        assert doc["ratio"] == pytest.approx(1.86, abs=0.02)
        assert doc["concavity_pass"] is True

    # 17-digit rows of the default tf report; they pin lambda, the split
    # radius and the discriminant of each dimension bit for bit
    GOLDEN = {
        1: "1,0.90856029641606983,0.5,0.34729635533358305,1.1662287860599907,"
           "0.70710678118654757,0.34729635533358305,1.1662287860599907,"
           "0.70710678118654757,1.6492965660759495,true,false,true",
        2: "2,0.89324384173800231,0.5,0.5411961001459531,1.2135729614994055,"
           "0.70710678118654746,0.5411961001459531,1.2135729614994055,"
           "0.70710678118654746,1.7162513410817413,true,true,true",
        3: "3,0.90192469844133605,0.5,0.6431387821635326,1.3132723457335238,"
           "0.70710678118654757,0.6431387821635326,1.3132723457335238,"
           "0.70710678118654757,1.8572475624258775,true,false,true",
    }

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_golden_csv(self, capsys, dim):
        code, out, _ = run_cli(capsys, "tf", "--dim", str(dim))
        assert code == 0
        assert out == ("dim,lambda,alpha,radius_alpha,f_alpha,candidate_alpha,split_radius,"
                       "radial_min,candidate,ratio,broken,derived_from_citation,concavity_pass\n"
                       + self.GOLDEN[dim] + "\n")

    def test_alpha_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tf", "--dim", "1", "--alpha", "1.5"])
        assert exc.value.code == 2


class TestGamma:
    def test_table(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--beta", "1",
                                 "--eps-list", "0.08,0.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eps,beta,scaled_energy,limit_energy,gap,mass_res_1,mass_res_2"
        assert len(lines) == 3
        gaps = [abs(float(line.split(",")[4])) for line in lines[1:]]
        assert gaps[1] < gaps[0]


class TestConfigFile:
    def test_file_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 2.0\nformat = json\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "bounds")
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] == 2.0

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 2.0\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "bounds", "--beta", "5")
        assert code == 0
        assert out.splitlines()[1].startswith("5,")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "--config", "/no/such/file", "bounds", "--beta", "1")
        assert code == 2
        assert "error" in err


class TestImport:
    def test_cli_import_leaves_out_scipy_integrate(self):
        # a fresh interpreter, since the test modules themselves import scipy.integrate
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (f"import sys; sys.path.insert(0, {src!r}); import bectension.cli; "
                "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "False"
