import contextlib
import importlib.machinery
import importlib.util
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bectension import analytic, cli, gp_validation, solver
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
        assert doc[0]["lower"] == br.lower
        assert doc[0]["upper"] == br.upper

    def test_csv_roundtrip_bit_exact(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--beta", "3.7")
        row = out.strip().splitlines()[1].split(",")
        br = analytic.sigma_bracket(3.7)
        assert float(row[1]) == br.lower and float(row[2]) == br.upper

    def test_weak_upper_is_the_unit_depth_bound(self, capsys):
        # the bound printed at beta = 1e-300 is (pi/(4 sqrt(2))) sqrt(beta),
        # not a value left over from cancelling against the wall
        code, out, _ = run_cli(capsys, "bounds", "--beta", "1e-300")
        assert code == 0
        beta, lower, upper = (float(tok) for tok in out.strip().splitlines()[1].split(","))
        assert upper == pytest.approx(math.pi / (4.0 * math.sqrt(2.0)) * 1e-150, rel=1e-12)
        assert 0.0 < lower <= upper

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        _, out, _ = run_cli(capsys, "bounds", "--beta", "3.7", "--format", fmt)
        path = tmp_path / f"bounds.{fmt}"
        code, to_stdout, _ = run_cli(capsys, "bounds", "--beta", "3.7", "--format", fmt,
                                     "--output", str(path))
        assert code == 0 and to_stdout == ""
        assert path.read_bytes() == out.encode()


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
        ["sigma", "--beta", "1", "--spacing", "nan"],
        ["sigma", "--beta", "1", "--half-width", "inf"],
        ["sigma", "--beta", "1", "--grad-tol", "nan"],
        ["sigma", "--beta", "1", "--grad-tol", "inf"],
        ["sweep", "--betas", "1:2:2-log", "--grad-tol", "0"],
        ["sweep", "--betas", "1:2:2-log", "--half-width", "-1"],
        ["sweep", "--betas", "1:2:2-log", "--spacing", "nan"],
        ["sigma", "--beta", "1", "--half-width", "0.5"],  # sigma 1.049 above its bracket
        ["gamma", "--beta", "1", "--eps-list", ","],
        ["gamma", "--beta", "1", "--eps-list", "0.04,x"],
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
        assert "max_spacing" not in err  # errors name the flag the user typed

    @pytest.mark.parametrize("eps_list", ["0.04,0.02,nan", "0.04,0.02,0", "0.04,-0.01"])
    def test_bad_eps_is_refused_before_any_solve(self, capsys, monkeypatch, eps_list):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the eps list was checked")

        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(gp_validation, "solve_ground_state", no_solve)
        with pytest.raises(SystemExit) as exc:
            cli.main(["gamma", "--beta", "1", "--eps-list", eps_list])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "(0, 0.1]" in errors[0]

    def test_grid_too_narrow_fails_sweep_row(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--betas", "1:2:2-log", "--half-width", "0.5")
        assert code == 1
        assert out == ""
        assert "sweep failure" in err
        for beta in ("1", "2"):  # each beta with its reason
            assert f"beta={beta}: sigma" in err
        assert err.count("outside the analytic bracket") == 2

    def test_memory_error_is_one_line(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(solver, "solve", out_of_memory)
        code, out, err = run_cli(capsys, "sigma", "--beta", "1", "--spacing", "1e-9")
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["memory failure: Unable to allocate 298. GiB for an array"]

    @pytest.fixture
    def small_linspace(self, monkeypatch):
        """``np.linspace`` for grids of under a million nodes only."""
        linspace = np.linspace

        def small(start, stop, num, **kwargs):
            assert num < 10**6, "a grid beyond memory was allocated"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", small)

    @pytest.mark.parametrize("argv", [
        ["sigma", "--beta", "1e-30"],  # a half-width of 1e16
        ["sigma", "--beta", "1", "--spacing", "1e-9"],  # 4e10 nodes, 320 GB a node array
        ["sigma", "--beta", "1", "--spacing", "5e-324"],  # more cells than a double counts
        ["profile", "--beta", "1e-30", "--dump", "never-written.txt"],
        ["sigma", "--beta", "1e-300"],  # 2e153 nodes: counts in engineering form, not digits
    ])
    def test_grid_beyond_memory_is_refused_before_allocation(self, capsys, monkeypatch,
                                                             tmp_path, argv):
        def no_linspace(*args, **kwargs):
            raise AssertionError("allocated before the node count was checked")

        monkeypatch.setattr(np, "linspace", no_linspace)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert err.startswith("memory failure: a grid of ")
        assert list(tmp_path.iterdir()) == []

    def test_default_grid_beyond_memory_yields_to_a_half_width_override(self, capsys,
                                                                        small_linspace):
        with pytest.raises(SystemExit) as exc:  # solved on 4 001 nodes, then out of bracket
            cli.main(["sigma", "--beta", "1e-30", "--half-width", "20"])
        assert exc.value.code == 2
        assert "outside the analytic bracket" in capsys.readouterr().err

    def test_sweep_reports_a_grid_beyond_memory_as_its_row_failure(self, capsys,
                                                                   small_linspace):
        code, out, err = run_cli(capsys, "sweep", "--betas", "1e-30:1:2-log")
        assert code == 1
        assert out == ""
        assert err.startswith("sweep failure: sweep failed for 1 beta value(s): beta=1e-30: "
                              "a grid of ")
        assert "bytes of physical memory" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["sigma", "--beta", "1", "--half-width", "1e170", "--spacing", "1e169"],  # h^2 overflows
        ["profile", "--beta", "1", "--half-width", "1e170", "--spacing", "1e169",
         "--dump", "never-written.txt"],
        ["sigma", "--beta", "1", "--half-width", "1e-300"],  # h^2 underflows to 0
    ])
    def test_degenerate_grid_is_one_failure_line(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("solver failure: ")
        assert caught == []
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_grid_fails_every_sweep_row_without_overflow(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--betas", "1:2:2-log",
                                 "--half-width", "1e170", "--spacing", "1e169")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.count("projected gradient") == 2

    def test_library_callers_keep_numpy_warnings(self):
        with pytest.warns(RuntimeWarning), pytest.raises(solver.ConvergenceError):
            solver.solve(1.0, half_width=1e-300)

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
        result = solver.solve(1.0, half_width=10.0, spacing=0.05, grad_tol=1e-7)
        t, v, phi = np.loadtxt(dump, unpack=True)
        assert np.array_equal(t, result.grid.nodes)
        assert np.array_equal(v, result.pair.v) and np.array_equal(phi, result.pair.phi)
        loaded = ProfilePair(result.grid, v, phi)
        assert solver.discrete_energy(loaded, 1.0).total == sigma == result.sigma

    def test_stderr_names_both_phases(self, capsys, tmp_path):
        result = solver.solve(1.0, half_width=10.0, spacing=0.05, grad_tol=1e-7)
        steps = (f"{result.iterations - result.joint_steps} block + "
                 f"{result.joint_steps} joint Newton steps")
        _, _, err = run_cli(capsys, "sigma", "--beta", "1", *FAST_GRID)
        assert steps in err
        _, _, err = run_cli(capsys, "profile", "--beta", "1", "--dump",
                            str(tmp_path / "profile.txt"), *FAST_GRID)
        assert steps in err

    def test_tight_tolerance_converges(self, capsys):
        # the joint Newton phase reaches 1e-11 where block rounds alone
        # needed hundreds of half-steps
        code, _, err = run_cli(capsys, "sigma", "--beta", "100", "--grad-tol", "1e-11")
        assert code == 0
        assert "joint Newton steps" in err

    def test_equal_energy_spin_stops_as_a_stall(self, capsys):
        # the joint phase's floor at beta = 100 is 2.2e-14: below it, steps
        # that leave the energy equal end the solve instead of the budget
        code, out, err = run_cli(capsys, "sigma", "--beta", "100", "--grad-tol", "1e-14")
        assert code == 1
        assert out == ""
        assert err.startswith("solver failure: projected gradient ")
        assert err.rstrip().endswith("stalled at machine precision")

    def test_dump_into_missing_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "profile", "--beta", "1", "--dump",
                                 str(tmp_path / "missing" / "profile.txt"), *FAST_GRID)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("i/o failure: ")
        assert list(tmp_path.iterdir()) == []

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

    def test_weak_coupling_report(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--betas", "1e-3:1e-2:3-log")
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        weak = [line for line in err.splitlines() if line.startswith("weak coupling:")]
        assert len(weak) == 1 and weak[0].endswith("pass=True")
        assert "strong coupling" not in err

    def test_sweep_and_sigma_share_schema(self, capsys):
        _, sweep_out, _ = run_cli(capsys, "sweep", "--betas", "1:1:1-log", *FAST_GRID)
        _, sigma_out, _ = run_cli(capsys, "sigma", "--beta", "1", *FAST_GRID)
        assert sweep_out.splitlines()[0] == sigma_out.splitlines()[0]
        assert sweep_out == sigma_out  # one beta: the same solve gives the same row


class TestJson:
    def test_one_row_is_a_list(self, capsys):
        _, out, _ = run_cli(capsys, "bounds", "--beta", "1", "--format", "json")
        doc = json.loads(out)
        assert isinstance(doc, list) and len(doc) == 1 and doc[0]["beta"] == 1.0

    def test_two_rows_are_a_list(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--betas", "0.5:2:2-log", "--format", "json",
                            *FAST_GRID)
        doc = json.loads(out)
        assert isinstance(doc, list) and [row["beta"] for row in doc] == pytest.approx([0.5, 2.0])
        assert all("argmin_v" in row for row in doc)


class TestRoundTrip:
    """Every finite double survives ``emit`` and parsing, bit for bit."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                           max_size=8))
    @example(values=[-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e300, -1e300, 0.1])
    def test_finite_doubles(self, fmt, values):
        rows = [{"x": x, "y": np.float64(x)} for x in values]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.emit(rows, fmt, None)
        if fmt == "csv":
            lines = out.getvalue().splitlines()
            assert lines[0] == "x,y"
            parsed = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        else:
            parsed = [[row["x"], row["y"]] for row in json.loads(out.getvalue())]
        bits = [struct.pack("<d", x) for x in values]
        assert [struct.pack("<d", p[0]) for p in parsed] == bits
        assert [struct.pack("<d", p[1]) for p in parsed] == bits


class TestTf:
    def test_dimension_three_report(self, capsys):
        code, out, _ = run_cli(capsys, "tf", "--dim", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc[0]["broken"] is True
        assert doc[0]["ratio"] == pytest.approx(1.86, abs=0.02)
        assert doc[0]["concavity_pass"] is True

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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_golden_json(self, capsys, dim):
        code, out, _ = run_cli(capsys, "tf", "--dim", str(dim), "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        golden = self.GOLDEN[dim].split(",")
        assert [cli._fmt(v) for v in row.values()] == golden
        assert out == json.dumps([row], indent=2) + "\n"

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
        assert re.search(r"eps=0.05: gap .* of limit, \d+ Newton steps\)", err)

    def test_strong_coupling_at_coarse_eps(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "--beta", "100", "--eps-list", "0.04")
        assert code == 0, err
        row = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
        assert float(row["mass_res_1"]) <= 1e-6 and float(row["mass_res_2"]) <= 1e-6


class TestParser:
    def test_shared_parser_leaks_nothing_between_calls(self, capsys, tmp_path):
        target = tmp_path / "sigma.json"
        argvs = [
            ["sigma", "--beta", "1", "--format", "json", "--output", str(target), *FAST_GRID],
            ["tf", "--dim", "2", "--alpha", "0.3"],
            ["gamma", "--beta", "1", "--eps-list", "0.08"],
            ["sigma", "--beta", "1"],
        ]

        def outputs(fresh):
            target.unlink(missing_ok=True)
            runs = []
            for argv in argvs:
                if fresh:
                    cli._build_parser.cache_clear()
                runs.append(run_cli(capsys, *argv))
            return runs, target.read_bytes()

        shared = outputs(fresh=False)
        assert shared == outputs(fresh=True)
        assert shared[0][3][1].startswith("beta,")  # the last call is CSV on stdout


class TestImport:
    @staticmethod
    def fresh(code):
        """What ``code`` prints in a fresh interpreter importing these sources: the
        test modules themselves import scipy.integrate and scipy.linalg."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = f"import sys; sys.path.insert(0, {src!r}); {code}"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        return out.stdout.strip()

    def test_cli_import_leaves_out_scipy_integrate(self):
        code = "import bectension.cli; print('scipy.integrate' in sys.modules)"
        assert self.fresh(code) == "False"

    def test_cli_import_leaves_out_scipy_linalg_and_numpy_f2py(self):
        code = ("import bectension.cli; "
                "print([m for m in ('scipy.linalg', 'numpy.f2py') if m in sys.modules])")
        assert self.fresh(code) == "[]"

    @pytest.mark.parametrize("first", ["bectension", "scipy.linalg"])
    def test_band_solvers_are_scipys_in_either_import_order(self, first):
        imports = ["from bectension import gp_validation, solver",
                   "from scipy.linalg import lapack"]
        if first == "scipy.linalg":
            imports.reverse()
        same = ("print(solver.dptsv is lapack.dptsv, solver.dpbsv is lapack.dpbsv, "
                "gp_validation.dgbsv is lapack.dgbsv)")
        code = "; ".join(imports + [same])
        assert self.fresh(code) == "True True True"

    def test_lapack_extension_is_an_attribute_of_scipy_linalg(self):
        code = ("import bectension.solver; import scipy.linalg; "
                "print(scipy.linalg._flapack.dpbsv is bectension.solver.dpbsv)")
        assert self.fresh(code) == "True"

    def test_missing_lapack_extension_names_the_searched_path(self, monkeypatch, tmp_path):
        scipy = importlib.machinery.ModuleSpec("scipy", None,
                                               origin=str(tmp_path / "__init__.py"))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        searched = os.path.join(str(tmp_path), "linalg", "_flapack")
        with pytest.raises(ImportError, match=re.escape(searched)) as err:
            solver._load_flapack()
        assert err.value.path == searched

    def test_missing_scipy_raises_module_not_found(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
        with pytest.raises(ModuleNotFoundError, match="scipy"):
            solver._load_flapack()
