"""The package's import graph is a tree: ``model`` at the root, the layers
above it, and ``cli`` on top."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divergelane
from divergelane.cli import main

from conftest import CAL_VAL

PACKAGE = Path(divergelane.__file__).parent

#: The modules that may import only ``model``.
LAYERS = ("equilibrium", "datagen", "fileio", "calibration")


def sibling_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports, relatively or by
    absolute name (the package itself counts as ``__init__``)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "divergelane":
                found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_model_imports_no_sibling():
    assert sibling_imports("model") == set()


def test_layers_import_only_model():
    for module in LAYERS:
        assert sibling_imports(module) == {"model"}, module


def test_only_cli_imports_calibration():
    for path in PACKAGE.glob("*.py"):
        if path.stem not in ("__init__", "cli"):
            assert "calibration" not in sibling_imports(path.stem), path.stem


def test_cli_import_leaves_the_pool_unloaded():
    # ``generate_dataset`` imports its process pool when called, so starting
    # the CLI pays nothing for it.
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, divergelane.cli; "
         "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode().strip() == "[]"


#: ``divergelane.__all__``: the names the package exported when it imported
#: every layer eagerly.
PUBLIC_NAMES = [
    "AuxiliaryAction", "BoundaryBranchError", "CalibrationOptions", "CalibrationResult",
    "ConfigurationError", "CostCoefficients", "DataPoint", "DemandConfig", "DivergeInstance",
    "EquilibriumReport", "FeasibilityError", "FlowDistribution", "ParseError",
    "SimulationConfig", "SolverOptions", "ViolationCount", "WardropResiduals",
    "best_response", "best_response_slope", "bifurcating_cost", "build_milp",
    "calibrate_exact", "calibrate_search", "check_uniqueness_condition", "count_violations",
    "feed_through_cost", "format_coefficients", "format_dataset", "generate_dataset",
    "is_wardrop_equilibrium", "lane_costs", "load_coefficients", "load_dataset",
    "nash_player_cost", "parse_coefficients", "parse_dataset", "simulate_steady_state",
    "solve_equilibria", "solve_fixed_point", "solve_grid_oracle", "uniqueness_margins",
    "wardrop_residuals", "write_coefficients", "write_dataset",
]

#: Modules a command should load only when it runs them.
HEAVY = {"scipy", "ctypes", "concurrent.futures", "multiprocessing"}


def loaded_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``, which
    reads ``argv`` as ``sys.argv[1:]``."""
    child = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint(' '.join(sys.modules))", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert child.returncode == 0, child.stderr.decode()
    return set(child.stdout.decode().splitlines()[-1].split())


@pytest.fixture(scope="module")
def numpy_loads() -> set[str]:
    # numpy may import some of HEAVY itself (ctypes, in numpy 2), which no
    # change to this package can avoid.
    return loaded_after("import numpy")


def test_cli_import_loads_only_model_and_fileio(numpy_loads):
    loaded = loaded_after("import divergelane.cli")
    assert {m for m in loaded if m.split(".")[0] == "divergelane"} == {
        "divergelane", "divergelane.cli", "divergelane.fileio", "divergelane.model",
    }
    assert HEAVY & loaded <= numpy_loads


@pytest.mark.parametrize(
    "command, loads, skips",
    [
        pytest.param("check", set(), {"calibration", "datagen", "equilibrium"}, id="check"),
        pytest.param("verify", set(), {"calibration", "datagen", "equilibrium"}, id="verify"),
        pytest.param("sweep", {"equilibrium"}, {"calibration", "datagen"}, id="sweep"),
        pytest.param("calibrate", {"calibration"}, {"datagen", "equilibrium"}, id="calibrate"),
    ],
)
def test_each_command_loads_only_its_layers(tmp_path, numpy_loads, command, loads, skips):
    coeffs, data = tmp_path / "diverge.coeffs", tmp_path / "data.csv"
    divergelane.write_coefficients(coeffs, CAL_VAL, symmetry=True)
    assert main(["sweep", "--coeffs", str(coeffs), "--range", "0.4:0.6", "--step", "0.05",
                 "--out", str(data)]) == 0
    argv = {
        "check": ["check", "--coeffs", coeffs],
        "verify": ["verify", "--coeffs", coeffs, "--data", data],
        "sweep": ["sweep", "--coeffs", coeffs, "--range", "0.4:0.6", "--step", "0.05",
                  "--out", tmp_path / "out.csv"],
        "calibrate": ["calibrate", "--data", data, "--symmetry", "--solver", "heuristic"],
    }[command]
    loaded = loaded_after(
        "from divergelane import cli\nassert cli.main(sys.argv[1:]) == 0", *map(str, argv)
    )
    assert {f"divergelane.{m}" for m in loads} <= loaded
    unloaded = {f"divergelane.{m}" for m in skips} | HEAVY
    assert unloaded & loaded <= numpy_loads


def test_one_point_sweep_loads_no_process_machinery():
    loaded = loaded_after(
        "from divergelane import CostCoefficients, SimulationConfig, generate_dataset\n"
        f"generate_dataset({CAL_VAL!r}, SimulationConfig(n_vehicles=60, demand_sweep=(1500.0,)))"
    )
    assert {"divergelane.datagen"} <= loaded
    assert not {"multiprocessing", "concurrent.futures"} & loaded


def test_public_names_are_pinned():
    assert divergelane.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(divergelane, name)
        assert value.__module__.split(".")[0] == "divergelane", name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from divergelane import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)


def test_dir_lists_the_public_names_and_layers():
    assert set(PUBLIC_NAMES) | {"model", *LAYERS} <= set(dir(divergelane))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'divergelane' has no attribute 'no_such'"):
        divergelane.no_such


def test_layers_are_package_attributes_in_a_fresh_interpreter():
    loaded_after(
        "import divergelane\n"
        "assert divergelane.model.lane_costs is divergelane.lane_costs\n"
        f"for m in {LAYERS!r}:\n"
        "    assert getattr(divergelane, m).__name__ == 'divergelane.' + m"
    )
