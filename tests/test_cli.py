"""Command-line surface: outputs, file effects, exit codes."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divergelane

from divergelane import (
    CostCoefficients,
    DivergeInstance,
    FlowDistribution,
    count_violations,
    load_dataset,
    wardrop_residuals,
    write_coefficients,
)
from divergelane.cli import MAX_RANGE_POINTS, _range_values, main

from conftest import CAL_VAL, NOISY_FIVE_CSV


@pytest.fixture
def coeffs_file(tmp_path):
    path = tmp_path / "diverge.coeffs"
    write_coefficients(path, CAL_VAL, symmetry=True)
    return path


def run(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_reference_solution(self, capsys, coeffs_file):
        code, out, _ = run(capsys, ["solve", "--coeffs", coeffs_file, "--q1", "0.5"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "q1,q2,xf1,xb1,xf2,xb2,converged,max_residual"
        fields = row.split(",")
        assert float(fields[3]) == pytest.approx(0.18599314396498423, abs=1e-9)
        assert fields[6] == "true"

    def test_single_destination(self, capsys, coeffs_file):
        code, out, _ = run(capsys, ["solve", "--coeffs", coeffs_file, "--q1", "1.0"])
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[4]) == 0.0  # xf2
        assert float(fields[5]) == 0.0  # xb2

    def test_missing_key_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.coeffs"
        path.write_text("cf1 = 1.45\ncf2 = 1.45\ncb = 1.45\nlambda1 = 0.87\n"
                        "lambda2 = 0.87\nmu1 = 0.69\nmu2 = 0.69\n")
        code, _, err = run(capsys, ["solve", "--coeffs", path, "--q1", "0.5"])
        assert code == 1
        assert "nu" in err

    def test_invalid_demand_exits_1(self, capsys, coeffs_file):
        code, _, err = run(capsys, ["solve", "--coeffs", coeffs_file, "--q1", "1.5"])
        assert code == 1
        assert "error" in err


class TestCheck:
    def test_reference_pass(self, capsys, coeffs_file):
        code, out, _ = run(capsys, ["check", "--coeffs", coeffs_file])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "link,margin,pass"
        for line in lines[1:]:
            _, margin, verdict = line.split(",")
            assert float(margin) == pytest.approx(0.711, abs=1e-12)
            assert verdict == "true"

    def test_boundary_equality_passes(self, capsys, tmp_path):
        from divergelane import CostCoefficients

        path = tmp_path / "boundary.coeffs"
        write_coefficients(path, CostCoefficients(1, 1, 2, 0.5, 0.5, 0.5, 0.5, 1.0))
        code, out, _ = run(capsys, ["check", "--coeffs", path])
        assert code == 0
        assert all(line.split(",")[1] == "0.0" for line in out.strip().splitlines()[1:])

    def test_failing_condition_exits_4(self, capsys, tmp_path):
        from divergelane import CostCoefficients

        path = tmp_path / "bad.coeffs"
        write_coefficients(path, CostCoefficients(1, 1, 1, 0.5, 0.5, 1.0, 1.0, 5.0))
        code, out, _ = run(capsys, ["check", "--coeffs", path])
        assert code == 4
        assert "false" in out


class TestSweep:
    def test_protocol_sweep(self, capsys, tmp_path, coeffs_file):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0.36:0.62",
             "--step", "0.01", "--D", "3200", "--out", out_path],
        )
        assert code == 0
        points = load_dataset(out_path)
        assert len(points) == 27
        shares = [p.flow.xb1 for p in points]
        assert all(b > a for a, b in zip(shares, shares[1:]))

    def test_single_point_matches_solve(self, capsys, tmp_path, coeffs_file):
        out_path = tmp_path / "one.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0.5:0.5",
             "--step", "0.01", "--out", out_path],
        )
        assert code == 0
        (point,) = load_dataset(out_path)
        code, out, _ = run(capsys, ["solve", "--coeffs", coeffs_file, "--q1", "0.5"])
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert point.flow == FlowDistribution(*map(float, fields[2:6]))

    def test_reversed_range_exits_1(self, capsys, tmp_path, coeffs_file):
        code, _, err = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0.62:0.36",
             "--step", "0.01", "--out", tmp_path / "x.csv"],
        )
        assert code == 1
        assert "reversed" in err

    def test_unwritable_path_exits_1(self, capsys, tmp_path, coeffs_file):
        code, _, _ = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0.4:0.5",
             "--step", "0.05", "--out", tmp_path / "no" / "dir" / "x.csv"],
        )
        assert code == 1


class TestGenerate:
    def test_default_protocol_row_count(self, capsys, tmp_path, coeffs_file):
        out_path = tmp_path / "data.csv"
        code, _, _ = run(
            capsys,
            ["generate", "--coeffs", coeffs_file, "--n", "300", "--out", out_path],
        )
        assert code == 0
        assert len(load_dataset(out_path)) == 15

    def test_same_seed_is_byte_identical(self, capsys, tmp_path, coeffs_file):
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a_path, b_path):
            code, _, _ = run(
                capsys,
                ["generate", "--coeffs", coeffs_file, "--n", "300",
                 "--seed", "9", "--out", path],
            )
            assert code == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_zero_noise_round_trip(self, capsys, tmp_path, coeffs_file):
        out_path = tmp_path / "clean.csv"
        code, _, _ = run(
            capsys,
            ["generate", "--coeffs", coeffs_file, "--sigma", "0",
             "--n", "2000", "--out", out_path],
        )
        assert code == 0
        data = load_dataset(out_path)
        assert count_violations(CAL_VAL, data, epsilon=2e-3).count <= 2

    def test_bad_sweep_exits_1(self, capsys, tmp_path, coeffs_file):
        code, _, _ = run(
            capsys,
            ["generate", "--coeffs", coeffs_file, "--sweep", "100:4000:50",
             "--out", tmp_path / "x.csv"],
        )
        assert code == 1


class TestRanges:
    """``sweep --range/--step`` and ``generate --sweep`` expand to at most
    MAX_RANGE_POINTS finite points; anything else is bad input."""

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--range", "0.3:inf", "--step", "0.1"],
            ["sweep", "--range", "0.3:0.5", "--step", "nan"],
            ["generate", "--sweep", "1150:inf:50"],
            ["generate", "--sweep", "1150:1850:inf"],
        ],
    )
    def test_non_finite_range_exits_1(self, capsys, tmp_path, coeffs_file, command):
        out_path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, [command[0], "--coeffs", coeffs_file, *command[1:], "--out", out_path]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--range", f"0:{MAX_RANGE_POINTS}", "--step", "1"],
            ["generate", "--sweep", f"0:{MAX_RANGE_POINTS}:1"],
        ],
    )
    def test_one_point_over_the_cap_exits_1(self, capsys, tmp_path, coeffs_file, command):
        # 0, 1, ..., MAX_RANGE_POINTS is one point more than the cap.
        out_path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, [command[0], "--coeffs", coeffs_file, *command[1:], "--out", out_path]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and f"more than {MAX_RANGE_POINTS} points" in err
        assert not out_path.exists()

    def test_last_point_clamped_to_stop(self, capsys, tmp_path, coeffs_file):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, past STOP.
        out_path = tmp_path / "x.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0.09:1.0", "--step", "0.07",
             "--out", out_path],
        )
        assert code == 0
        last = load_dataset(out_path)[-1]
        assert (last.demand.q1, last.demand.q2) == (1.0, 0.0)

    def test_range_at_the_cap_is_accepted(self):
        values = _range_values(0.0, float(MAX_RANGE_POINTS - 1), 1.0)
        assert len(values) == MAX_RANGE_POINTS
        assert values[-1] == MAX_RANGE_POINTS - 1


class TestCalibrate:
    @pytest.fixture
    def sweep_file(self, capsys, tmp_path, coeffs_file):
        path = tmp_path / "model.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0.3833333333333333:0.6166666666666667",
             "--step", "0.0166666666666667", "--D", "3000", "--out", path],
        )
        assert code == 0
        return path

    def test_heuristic_round_trip(self, capsys, tmp_path, sweep_file):
        out_path = tmp_path / "recovered.coeffs"
        code, out, _ = run(
            capsys,
            ["calibrate", "--data", sweep_file, "--symmetry",
             "--solver", "heuristic", "--out", out_path],
        )
        assert code == 0
        assert "violations = 0" in out
        assert "uniqueness_link1 = true" in out
        assert "certificate = heuristic" in out
        assert out_path.exists()

    def test_exact_on_fifteen_points(self, capsys, sweep_file):
        code, out, _ = run(
            capsys, ["calibrate", "--data", sweep_file, "--symmetry", "--solver", "exact"]
        )
        assert code == 0
        assert "certificate = exact" in out
        assert "violations = 0" in out

    def test_exact_on_small_dataset(self, capsys, tmp_path, coeffs_file):
        path = tmp_path / "small.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0.4:0.6",
             "--step", "0.05", "--D", "3000", "--out", path],
        )
        assert code == 0
        code, out, _ = run(
            capsys, ["calibrate", "--data", path, "--symmetry", "--solver", "exact"]
        )
        assert code == 0
        assert "violations = 0" in out
        assert "certificate = exact" in out

    def test_empty_dataset_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\n")
        code, _, err = run(capsys, ["calibrate", "--data", path])
        assert code == 1
        assert "no rows" in err

    def test_noisy_protocol_reports_uniqueness(self, capsys, tmp_path, coeffs_file):
        path = tmp_path / "noisy.csv"
        code, _, _ = run(
            capsys,
            ["generate", "--coeffs", coeffs_file, "--sweep", "1250:1750:125",
             "--n", "1500", "--seed", "4", "--out", path],
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            ["calibrate", "--data", path, "--symmetry", "--tol", "1e-2", "--seed", "0"],
        )
        assert code == 0
        assert "uniqueness_link1 = true" in out
        assert "uniqueness_link2 = true" in out

    def test_exact_stdout_holds_only_the_report(self, tmp_path):
        # Asymmetric exact calibration of these points at 1e-3 makes HiGHS
        # print diagnostics from C++ straight to file descriptor 1.  Run in
        # a child with stdout on a pipe (C stdio fully buffered there) and
        # check every line it wrote.
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        src = str(Path(divergelane.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        child = subprocess.run(
            [sys.executable, "-m", "divergelane.cli", "calibrate", "--data", str(path),
             "--solver", "exact", "--tol", "1e-3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
        )
        assert child.returncode == 0, child.stderr.decode()
        lines = child.stdout.decode().splitlines()
        allowed = re.compile(r"[a-z0-9_]+ = \S+|flags:|k,ef1,eb1,ef2,eb2|\d+,[01],[01],[01],[01]")
        assert [line for line in lines if not allowed.fullmatch(line)] == []
        assert lines[8:10] == ["certificate = exact", "violations = 4"]


def test_cli_import_leaves_scipy_unloaded():
    # Only exact calibration needs scipy; it loads there, not at import.
    src = str(Path(divergelane.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, divergelane.cli; print('scipy' in sys.modules)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode().strip() == "False"


class TestNonFiniteInput:
    """Non-finite numbers are bad input (exit 1), never a NaN result."""

    @pytest.mark.parametrize("command", [["solve", "--q1", "0.5"], ["check"]])
    def test_infinite_rate_exits_1(self, capsys, tmp_path, command):
        path = tmp_path / "inf.coeffs"
        path.write_text("cf1 = inf\nlambda1 = 0.87\nmu1 = 0.69\nnu = 1.0\nsymmetry = true\n")
        code, out, err = run(capsys, [command[0], "--coeffs", path, *command[1:]])
        assert code == 1
        assert out == ""
        assert "cf1" in err

    def test_nan_demand_exits_1(self, capsys, coeffs_file):
        code, out, err = run(capsys, ["solve", "--coeffs", coeffs_file, "--q1", "nan"])
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["verify", "--coeffs", None],
            ["calibrate", "--solver", "heuristic"],
            ["calibrate", "--solver", "exact"],
        ],
        ids=["verify", "calibrate-heuristic", "calibrate-exact"],
    )
    def test_nan_share_exits_1(self, capsys, tmp_path, coeffs_file, command):
        path = tmp_path / "nan.csv"
        path.write_text(
            "k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\n1,0.5,0.5,nan,0.2,0.3,0.2,3000.0\n"
        )
        argv = [coeffs_file if a is None else a for a in command]
        code, out, err = run(capsys, [*argv, "--data", path])
        assert code == 1
        assert out == ""
        assert "xf1" in err

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_solver_tol_exits_1(self, capsys, coeffs_file, tol):
        code, out, err = run(
            capsys, ["solve", "--coeffs", coeffs_file, "--q1", "0.5", "--tol", tol]
        )
        assert code == 1
        assert out == ""
        assert "convergence_tol" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-0.001"])
    def test_non_finite_verify_tol_exits_1(self, capsys, tmp_path, coeffs_file, tol):
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        code, out, err = run(
            capsys, ["verify", "--coeffs", coeffs_file, "--data", path, "--tol", tol]
        )
        assert code == 1
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("total", ["inf", "nan"])
    @pytest.mark.parametrize(
        "command",
        [
            ["generate", "--sweep", "1150:1850:350", "--n", "50"],
            ["sweep", "--range", "0.4:0.6", "--step", "0.1"],
        ],
        ids=["generate", "sweep"],
    )
    def test_non_finite_total_demand_exits_1(self, capsys, tmp_path, coeffs_file, command, total):
        out_path = tmp_path / "data.csv"
        code, out, err = run(
            capsys,
            [command[0], "--coeffs", coeffs_file, *command[1:], "--D", total,
             "--out", out_path],
        )
        assert code == 1
        assert out == ""
        assert "total_demand_vph" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("total", ["inf", "nan", "-3000.0"])
    def test_bad_total_demand_row_exits_1(self, capsys, tmp_path, coeffs_file, total):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\n1,0.5,0.5,0.3,0.2,0.3,0.2,{total}\n"
        )
        code, out, err = run(capsys, ["verify", "--coeffs", coeffs_file, "--data", path])
        assert code == 1
        assert out == ""
        assert "total_demand_vph" in err


class TestVerify:
    def test_model_sweep_verifies(self, capsys, tmp_path, coeffs_file):
        path = tmp_path / "model.csv"
        run(capsys, ["sweep", "--coeffs", coeffs_file, "--range", "0.4:0.6",
                     "--step", "0.02", "--out", path])
        code, out, _ = run(
            capsys, ["verify", "--coeffs", coeffs_file, "--data", path, "--tol", "1e-9"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,max_residual,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_noisy_data_fails_tight_then_passes_loose(self, capsys, tmp_path, coeffs_file):
        path = tmp_path / "noisy.csv"
        code, _, _ = run(
            capsys,
            ["generate", "--coeffs", coeffs_file, "--sigma", "0.5",
             "--n", "500", "--seed", "2", "--out", path],
        )
        assert code == 0
        code_tight, out_tight, _ = run(
            capsys, ["verify", "--coeffs", coeffs_file, "--data", path, "--tol", "1e-9"]
        )
        assert code_tight == 4
        assert "false" in out_tight
        code_loose, _, _ = run(
            capsys, ["verify", "--coeffs", coeffs_file, "--data", path, "--tol", "0.1"]
        )
        assert code_loose == 0

    def test_rows_match_per_row_residuals(self, capsys, tmp_path, coeffs_file):
        # Rows at q1 = 0 and 1 carry signed-zero residuals; the array path
        # prints what the per-row WardropResiduals reference prints.
        path = tmp_path / "model.csv"
        run(capsys, ["sweep", "--coeffs", coeffs_file, "--range", "0:1",
                     "--step", "0.125", "--out", path])
        noisy = tmp_path / "noisy.csv"
        noisy.write_text(NOISY_FIVE_CSV)
        outputs = []
        for data in (path, noisy):
            _, out, _ = run(capsys, ["verify", "--coeffs", coeffs_file, "--data", data])
            expected = ["k,max_residual,pass"]
            for k, point in enumerate(load_dataset(data), start=1):
                worst = wardrop_residuals(DivergeInstance(point.demand, CAL_VAL), point.flow)
                verdict = "true" if worst.max_residual <= 1e-9 else "false"
                expected.append(f"{k},{worst.max_residual!r},{verdict}")
            assert out.splitlines() == expected
            outputs.append(out)
        assert "1,-0.0,true" in outputs[0]


class TestPinnedBytes:
    """Digests of ``sweep`` and ``calibrate`` outputs, which a last-bit
    change in the cost arithmetic or the calibration encoding must not move.
    The ``generate`` digests are pinned in ``test_datagen.py``."""

    @pytest.mark.parametrize(
        "coeffs, digest",
        [
            pytest.param(
                CAL_VAL,
                "f2720129caef22c3dce20d5d9e81f5736cac269370a81362fb5687fa456d4612",
                id="cal_val",
            ),
            # Fails the uniqueness margin on both links (-4.5).
            pytest.param(
                CostCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 5.0),
                "4e965b3aba847d6ffde4aab367fb6718486ca22e2e7eb09266407ebc204f61e9",
                id="margin_fails",
            ),
        ],
    )
    def test_sweep_bytes(self, capsys, tmp_path, coeffs, digest):
        path = tmp_path / "diverge.coeffs"
        write_coefficients(path, coeffs, symmetry=True)
        out_path = tmp_path / "pred.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--coeffs", path, "--range", "0.02:0.98", "--step", "0.01",
             "--out", out_path],
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "solver, digest",
        [
            ("heuristic", "2ff08869865cff870787dc676dc49d772c23af06bd566c7bb2375eb496dd9737"),
            ("exact", "33c75be9cc7108e6986b900c02e38fa645a150525e5fe60039651e2255c0f01c"),
        ],
    )
    def test_symmetric_calibrate_bytes(self, capsys, tmp_path, solver, digest):
        # The report, recovered coefficients included, goes to stdout.
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        code, out, _ = run(
            capsys,
            ["calibrate", "--data", path, "--symmetry", "--solver", solver, "--tol", "1e-3"],
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "solver, digest",
        [
            ("heuristic", "d82dd2639b2b53a642aea5f8c2ebf0169993225ebecc5be074f923554fca335e"),
            ("exact", "df4565027dadd42b4ff26dad3df0f2c91fe63c82bd7026b70978c9584ee9cf63"),
        ],
    )
    def test_asymmetric_calibrate_bytes(self, capsys, tmp_path, solver, digest):
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        code, out, _ = run(
            capsys, ["calibrate", "--data", path, "--solver", solver, "--tol", "1e-3"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
