"""Command-line surface: outputs, file effects, exit codes."""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divergelane

from divergelane import (
    CalibrationOptions,
    CalibrationResult,
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    SimulationConfig,
    count_violations,
    format_dataset,
    load_coefficients,
    load_dataset,
    solve_equilibria,
    wardrop_residuals,
    write_coefficients,
    write_dataset,
)
from divergelane.cli import CERTIFY_TOL, MAX_RANGE_POINTS, _range_values, build_parser, main
from divergelane.model import EQUILIBRIUM_TOL

from conftest import CAL_VAL, NOISY_FIVE_CSV, noisy_protocol_grid


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

    # At q1 = 0.5 the symmetric split's residual is exactly 0.0; at q1 = 0.3
    # rounding leaves 3.7e-17, which tol 0 does not certify.
    @pytest.mark.parametrize("q1, certified, exit_code", [("0.5", "true", 0), ("0.3", "false", 2)])
    def test_zero_tol_certifies_only_a_zero_residual(
        self, capsys, coeffs_file, q1, certified, exit_code
    ):
        code, out, err = run(capsys, ["solve", "--coeffs", coeffs_file, "--q1", q1, "--tol", "0"])
        fields = out.strip().splitlines()[1].split(",")
        assert (code, fields[6], err) == (exit_code, certified, "")
        assert (float(fields[7]) == 0.0) == (certified == "true")

    def test_default_tolerances(self):
        parser = build_parser()
        solve = parser.parse_args(["solve", "--coeffs", "c", "--q1", "0.5"])
        verify = parser.parse_args(["verify", "--coeffs", "c", "--data", "d"])
        assert solve.tol == CERTIFY_TOL == 1e-12
        assert verify.tol == EQUILIBRIUM_TOL == 1e-9


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


#: Coefficients whose heterogeneity ``nu`` reaches 20, so that many fail the
#: uniqueness margin.
_sweep_coefficients = st.builds(
    CostCoefficients,
    *[st.floats(1.0, 5.0)] * 3,
    *[st.floats(0.05, 1.0)] * 4,
    st.floats(0.1, 20.0),
)


class TestSweepMatchesRows:
    """``sweep`` writes its file from the solver's arrays; building each row
    as a ``DataPoint`` from the same arrays is the reference."""

    @settings(max_examples=150)
    @given(
        c=_sweep_coefficients,
        bounds=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        step=st.floats(0.002, 1.5),
        total=st.floats(0.0, 1e5),
    )
    # Fails the uniqueness margin on both links (-4.5).
    @example(c=CostCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 5.0),
             bounds=[0.02, 0.98], step=0.01, total=0.0)
    # Three equilibria at q1 = 0.18.
    @example(c=CostCoefficients(2.6, 0.5, 5.0, 0.6, 0.05, 0.8, 1.0, 18.0),
             bounds=[0.0, 1.0], step=0.01, total=3000.0)
    def test_file_equals_rows_built_one_by_one(self, c, bounds, step, total):
        start, stop = bounds
        q1 = np.array(_range_values(start, stop, step))
        xb1, xb2, residual, _ = solve_equilibria(c, q1, CERTIFY_TOL)
        rows = []
        for q, b1, b2 in zip(q1.tolist(), xb1.tolist(), xb2.tolist()):
            demand = DemandConfig(q, 1.0 - q)
            flow = FlowDistribution.from_bifurcating_shares(demand, b1, b2)
            rows.append(DataPoint(demand, flow, total))
        with tempfile.TemporaryDirectory() as tmp:
            coeffs_path, out_path = Path(tmp) / "diverge.coeffs", Path(tmp) / "pred.csv"
            write_coefficients(coeffs_path, c)
            code = main(["sweep", "--coeffs", str(coeffs_path), "--range", f"{start!r}:{stop!r}",
                         "--step", repr(step), "--D", repr(total), "--out", str(out_path)])
            assert out_path.read_bytes() == format_dataset(rows).encode()
        assert code == (0 if residual.max() <= CERTIFY_TOL else 2)


class TestNonUniqueWarning:
    """``solve`` and ``sweep`` print one stderr line when some row has more
    than one equilibrium; stdout and the written file do not change."""

    # Three equilibria at q1 = 0.18 (test_counts_every_equilibrium).
    COEFFS = CostCoefficients(2.6, 0.5, 5.0, 0.6, 0.05, 0.8, 1.0, 18.0)

    @pytest.fixture
    def multi_file(self, tmp_path):
        path = tmp_path / "multi.coeffs"
        write_coefficients(path, self.COEFFS)
        return path

    def test_unique_equilibria_print_nothing(self, capsys, tmp_path, coeffs_file):
        code, _, err = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, "--range", "0:1", "--step", "0.01",
             "--out", tmp_path / "x.csv"],
        )
        assert code == 0
        assert err == ""
        code, _, err = run(capsys, ["solve", "--coeffs", coeffs_file, "--q1", "0.5"])
        assert code == 0
        assert err == ""

    def test_solve_warns_once(self, capsys, multi_file):
        code, out, err = run(capsys, ["solve", "--coeffs", multi_file, "--q1", "0.18"])
        assert code == 0
        assert err.splitlines() == [
            "warning: 1 of 1 rows have more than one equilibrium (first at q1=0.18); "
            "each such row shows its least-residual one"
        ]
        header, row = out.splitlines()
        assert header == "q1,q2,xf1,xb1,xf2,xb2,converged,max_residual"
        assert row.startswith("0.18,")

    def test_all_bifurcating_edge_is_no_second_equilibrium(self, capsys, tmp_path):
        # Link 2 carries about 1e-9, so its all-bifurcating split y2 = q2
        # has a residual under the absolute tolerance.  It is still not an
        # equilibrium (its empty feed lane costs 0), so no warning.
        c = CostCoefficients(8.0, 7.0, 0.15, 0.8, 0.05, 0.9, 0.002, 15.0)
        path = tmp_path / "edge.coeffs"
        write_coefficients(path, c)
        code, out, err = run(capsys, ["solve", "--coeffs", path, "--q1", "0.999999999"])
        assert code == 0
        assert err == ""
        assert out.splitlines()[1] == (
            "0.999999999,9.999999717180685e-10,0.01477832510837429,0.9852216738916257,"
            "9.999999717180685e-10,0.0,true,7.656710506999542e-16"
        )
        assert solve_equilibria(c, np.array([0.999999999]), 1e-12)[3].tolist() == [1]

    def test_sweep_counts_the_rows(self, capsys, tmp_path, multi_file):
        out_path = tmp_path / "pred.csv"
        code, out, err = run(
            capsys,
            ["sweep", "--coeffs", multi_file, "--range", "0.02:0.98", "--step", "0.01",
             "--out", out_path],
        )
        assert code == 0
        assert out == ""
        q1 = np.array([p.demand.q1 for p in load_dataset(out_path)])
        *_, count = solve_equilibria(self.COEFFS, q1, CERTIFY_TOL)
        multiple = np.flatnonzero(count > 1)
        assert multiple.size > 1
        (line,) = err.splitlines()
        assert line.startswith(
            f"warning: {multiple.size} of {q1.size} rows have more than one equilibrium "
            f"(first at q1={q1[multiple[0]].item()!r});"
        )


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

    def test_negative_seed_exits_1(self, capsys, tmp_path, coeffs_file):
        code, _, err = run(
            capsys,
            ["generate", "--coeffs", coeffs_file, "--seed", "-1", "--out", tmp_path / "x.csv"],
        )
        assert code == 1
        assert "seed" in err


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

    @pytest.mark.parametrize(
        "command, message",
        [
            (["sweep", "--range", "0.3:0.5", "--step", "0"], "step must be > 0"),
            (["generate", "--sweep", "1150:1850"], "expected START:STOP:STEP"),
        ],
    )
    def test_malformed_range_exits_1(self, capsys, tmp_path, coeffs_file, command, message):
        out_path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, [command[0], "--coeffs", coeffs_file, *command[1:], "--out", out_path]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "bounds, first",
        [
            # "--range -0.1:0.3" would read as a missing argument.
            (["--range", "0.9:1.2"], "(1.1, -0.10000000000000009)"),
            (["--range=-0.1:0.3"], "(-0.1, 1.1)"),
        ],
    )
    def test_share_outside_unit_interval_exits_1(
        self, capsys, tmp_path, coeffs_file, bounds, first
    ):
        out_path = tmp_path / "x.csv"
        code, out, err = run(
            capsys,
            ["sweep", "--coeffs", coeffs_file, *bounds, "--step", "0.1", "--out", out_path],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: demand shares must be finite and non-negative, got {first}\n"
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

    def test_exact_at_the_margin_floor(self, capsys, tmp_path, coeffs_file):
        # HiGHS ignores matrix entries of magnitude 1e-9 and below.  epsilon
        # is no matrix entry of the MILP or of the LP that places the fit,
        # only a row and column bound, so the noiseless 3-point sweep
        # certifies 0 violations below that floor too.
        data = tmp_path / "three.csv"
        code, _, _ = run(
            capsys, ["sweep", "--coeffs", coeffs_file, "--range", "0:1", "--step", "0.5",
                     "--out", data],
        )
        assert code == 0
        fit = tmp_path / "fit.coeffs"
        argv = ["calibrate", "--data", data, "--solver", "exact", "--out", fit, "--tol"]
        for tol in ("1e-8", "1e-9", "1e-12"):
            code, out, _ = run(capsys, [*argv, tol])
            assert code == 0
            assert "certificate = exact\nviolations = 0\n" in out, tol
            recount = count_violations(load_coefficients(fit), load_dataset(data), float(tol))
            assert recount.count == 0, tol

    def test_milp_without_a_solution_exits_1(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "scipy.optimize.milp",
            lambda *args, **kwargs: SimpleNamespace(x=None, message="no point found"),
        )
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        code, out, err = run(
            capsys, ["calibrate", "--data", path, "--solver", "exact", "--tol", "1e-3"]
        )
        assert code == 1
        assert out == ""
        assert err == "error: the calibration MILP has no solution: no point found\n"

    def test_milp_rejected_by_highs_exits_1(self, capsys, monkeypatch, tmp_path):
        # scipy gives a HiGHS model error the status of an infeasible MILP,
        # and its message names the error; the CLI reports a rejected model.
        monkeypatch.setattr(
            "scipy.optimize.milp",
            lambda *args, **kwargs: SimpleNamespace(
                x=None, message="(HiGHS Status 2: Model error)"
            ),
        )
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        code, out, err = run(
            capsys, ["calibrate", "--data", path, "--solver", "exact", "--tol", "1e-3"]
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: the calibration MILP is rejected by HiGHS: (HiGHS Status 2: Model error)\n"
        )

    def test_huge_margin_certifies_every_condition(self, capsys, tmp_path):
        # epsilon is a row and column bound of the MILP and the LP, never a
        # matrix entry, so the MILP takes even 1e300 and certifies that every
        # condition holds.  From 1e15 up HiGHS may find no optimum for the LP
        # (from 1e20 it reads epsilon as no bound, so the LP is unbounded);
        # the MILP's point is then the fit.
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        argv = ["calibrate", "--data", path, "--solver", "exact", "--tol"]
        for symmetry in ([], ["--symmetry"]):
            for tol in ("1e14", "1e15", "1e20", "1e300"):
                code, out, _ = run(capsys, [*argv, tol, *symmetry])
                assert code == 0
                assert "certificate = exact\nviolations = 0\n" in out, (symmetry, tol)

    def test_infeasible_lp_at_the_default_margin_prints_a_fit(self, capsys, tmp_path):
        # At the default 1e-6 HiGHS accepts the MILP's point on these points
        # within its feasibility tolerance, and the LP finds the rows the
        # MILP kept infeasible.  The MILP's point is then the fit.
        path = tmp_path / "noisy.csv"
        write_dataset(path, noisy_protocol_grid(seed=14)[1::3])
        code, out, _ = run(capsys, ["calibrate", "--data", path, "--symmetry", "--solver", "exact"])
        assert code == 0
        assert "certificate = heuristic\n" in out

    def test_negative_seed_exits_1(self, capsys, sweep_file):
        code, _, err = run(capsys, ["calibrate", "--data", sweep_file, "--seed", "-1"])
        assert code == 1
        assert "seed" in err

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

    #: A line of the calibration report.
    REPORT_LINE = re.compile(r"[a-z0-9_]+ = \S+|flags:|k,ef1,eb1,ef2,eb2|\d+,[01],[01],[01],[01]")

    def exact_report(self, tmp_path, prelude=""):
        """Run exact symmetric calibration of the seed-1 protocol grid's
        every-third subset at 1e-3 after ``prelude``, in a child with stdout on
        a pipe, and check every stdout line.  The child runs without
        PYTHONUNBUFFERED (which makes Python switch C stdio to unbuffered), so
        its C stdio is fully buffered, as in ``divergelane calibrate > file``."""
        path = tmp_path / "noisy.csv"
        write_dataset(path, noisy_protocol_grid(seed=1)[::3])
        src = str(Path(divergelane.__file__).resolve().parents[1])
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        code = prelude + "import sys\nfrom divergelane import cli\nsys.exit(cli.main(sys.argv[1:]))"
        child = subprocess.run(
            [sys.executable, "-c", code, "calibrate", "--data", str(path), "--symmetry",
             "--solver", "exact", "--tol", "1e-3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False,
        )
        assert child.returncode == 0, child.stderr.decode()
        lines = child.stdout.decode().splitlines()
        assert [line for line in lines if not self.REPORT_LINE.fullmatch(line)] == []
        assert lines[9:11] == ["certificate = exact", "violations = 4"]

    def test_exact_stdout_holds_only_the_report(self, tmp_path):
        # HiGHS 1.12 prints MIP diagnostics from C++ straight to file
        # descriptor 1 while it solves these points.
        self.exact_report(tmp_path)

    def test_solver_writes_to_stdout_are_silenced(self, tmp_path):
        # The same, whatever HiGHS prints: milp itself first writes to file
        # descriptor 1 through C stdio, left unflushed, and through os.write.
        self.exact_report(
            tmp_path,
            "import ctypes, os, scipy.optimize\n"
            "puts = ctypes.CDLL(None).puts\n"
            "puts.argtypes, puts.restype = (ctypes.c_char_p,), ctypes.c_int\n"
            "real = scipy.optimize.milp\n"
            "def milp(*args, **kwargs):\n"
            "    puts(b'C stdio line')\n"
            "    os.write(1, b'os.write line\\n')\n"
            "    return real(*args, **kwargs)\n"
            "scipy.optimize.milp = milp\n",
        )


class TestDefaults:
    """``generate`` and ``calibrate`` pass their dataclass only the flags
    given, so ``SimulationConfig`` and ``CalibrationOptions`` state every
    default, and a zero given reaches them."""

    @pytest.fixture
    def configs(self, monkeypatch):
        seen = []

        def generate(coeffs, cfg):
            seen.append(cfg)
            return []

        def search(data, opts):
            seen.append(opts)
            return CalibrationResult(CAL_VAL, 0, (), "heuristic", (True, True))

        monkeypatch.setattr("divergelane.datagen.generate_dataset", generate)
        monkeypatch.setattr("divergelane.calibration.calibrate_search", search)
        return seen

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], SimulationConfig()),
            (["--sigma", "0", "--seed", "0"], SimulationConfig(sigma=0.0, seed=0)),
            (
                ["--n", "7", "--D", "2000", "--sweep", "900:1100:100"],
                SimulationConfig(
                    n_vehicles=7, total_demand_vph=2000.0, demand_sweep=(900.0, 1000.0, 1100.0)
                ),
            ),
        ],
        ids=("no-flags", "zeros", "every-flag"),
    )
    def test_generate(self, capsys, tmp_path, coeffs_file, configs, flags, expected):
        argv = ["generate", "--coeffs", coeffs_file, "--out", tmp_path / "x.csv", *flags]
        assert run(capsys, argv)[0] == 0
        assert configs == [expected]

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], CalibrationOptions()),
            (["--seed", "0"], CalibrationOptions(seed=0)),
            (
                ["--seed", "5", "--tol", "1e-3", "--symmetry"],
                CalibrationOptions(epsilon=1e-3, symmetry=True, seed=5),
            ),
        ],
        ids=("no-flags", "zero-seed", "every-flag"),
    )
    def test_calibrate(self, capsys, tmp_path, configs, flags, expected):
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        assert run(capsys, ["calibrate", "--data", path, *flags])[0] == 0
        assert configs == [expected]


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


class TestUsageErrors:
    """A malformed command line is bad input: it exits 1 with argparse's usage
    and message on stderr, and 2 keeps meaning "no split certified"."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--coeffs", "x.coeffs", "--q1", "abc"],
             "divergelane solve: error: argument --q1: invalid float value: 'abc'\n"),
            (["solve", "--coeffs", "x.coeffs"],
             "divergelane solve: error: the following arguments are required: --q1\n"),
            (["frobnicate"],
             "divergelane: error: argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["non_numeric_q1", "missing_q1", "unknown_command"],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: divergelane")
        assert message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: divergelane solve")

    def test_process_exit_status(self):
        src = str(Path(divergelane.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-m", "divergelane.cli", "solve", "--q1", "abc"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}, check=False,
        )
        assert child.returncode == 1
        assert b"invalid float value: 'abc'" in child.stderr


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

    @pytest.mark.parametrize("tol", ["inf", "nan", "-0.001"])
    def test_non_finite_solver_tol_exits_1(self, capsys, coeffs_file, tol):
        code, out, err = run(
            capsys, ["solve", "--coeffs", coeffs_file, "--q1", "0.5", "--tol", tol]
        )
        assert code == 1
        assert out == ""
        assert err == f"error: tol must be finite and non-negative, got {float(tol)!r}\n"

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

    @pytest.mark.parametrize("total", ["inf", "nan", "-3000.0"])
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

    def test_header_only_dataset_exits_1(self, capsys, tmp_path, coeffs_file):
        path = tmp_path / "empty.csv"
        path.write_text("k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\n")
        code, out, err = run(capsys, ["verify", "--coeffs", coeffs_file, "--data", path])
        assert code == 1
        assert out == ""
        assert "no rows" in err

    def test_misnumbered_row_exits_1(self, capsys, tmp_path, coeffs_file):
        path = tmp_path / "k.csv"
        path.write_text(
            "k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph\nabc,0.5,0.5,0.3,0.2,0.3,0.2,3000.0\n"
        )
        code, out, err = run(capsys, ["verify", "--coeffs", coeffs_file, "--data", path])
        assert code == 1
        assert out == ""
        assert "line 2: expected k = 1, got 'abc'" in err


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
            ("heuristic", "bc860eb312a2855dfe8ae7483ea55c8c85785f173822e0d2fca4cbbd41925cf5"),
            ("exact", "46d5a61641eb375122ecf8779df8dd2b89ae9483c19509b8822ee91c48400a9e"),
        ],
        ids=["heuristic", "exact"],
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
            ("heuristic", "d9fdf9bcea4f0b3c5f766efbc27618664a88e665c20620f8825222d28962ee2e"),
            ("exact", "29854500fd611e76aa4ed339b75239614291c402ea2af877253c104a3fbe1cbb"),
        ],
        ids=["heuristic", "exact"],
    )
    def test_asymmetric_calibrate_bytes(self, capsys, tmp_path, solver, digest):
        path = tmp_path / "noisy.csv"
        path.write_text(NOISY_FIVE_CSV)
        code, out, _ = run(
            capsys, ["calibrate", "--data", path, "--solver", solver, "--tol", "1e-3"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "symmetry, digest",
        [
            (True, "bf85f1b3f1ec2fe152d5ecff185aa0967eb58fece79c357843dd2514ea682323"),
            (False, "9f0f02fda0321b10a90816a25bc916a505f0cef5c79899fb7971797b2f05ff70"),
        ],
        ids=["symmetric", "asymmetric"],
    )
    def test_noisy_grid_heuristic_calibrate_bytes(self, capsys, tmp_path, symmetry, digest):
        # The benchmark's 15-point set, where the search runs all 200
        # restarts and its longest restart takes hundreds of steps.
        path = tmp_path / "noisy.csv"
        write_dataset(path, noisy_protocol_grid())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "30ba8b986a75fbda7a54c178fda854e5e4e49ba0edb08d58aeec2ed7a9db3fae"
        )
        argv = ["calibrate", "--data", path, "--solver", "heuristic", "--tol", "1e-3"]
        code, out, _ = run(capsys, argv + ["--symmetry"] if symmetry else argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
