"""The package's import graph is a tree: ``model`` at the root, the layers
above it, and ``cli`` on top."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import divergelane

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
