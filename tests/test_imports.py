"""Module boundaries: no module of the package imports a private name from a
sibling module, and importing the package loads no public scipy submodule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tetrablock"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "tetrablock"
        for alias in node.names:
            if sibling and is_private(alias.name):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"


def test_no_private_names_imported_from_siblings():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    assert [hit for path in modules for hit in private_imports(path)] == []


def test_detector_flags_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import __version__\n"
                     "from .geodesics import _general_coords, sample_grid\n")
    assert list(private_imports(probe)) == [
        "probe.py:2 imports _general_coords from geodesics"]


def scipy_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield path.name, ast.unparse(node)


def test_only_scipy_import_is_the_bare_one_in_init():
    # the package computes with numpy alone; the bare import loads no
    # submodule and is kept only for the benchmark (ROADMAP item 5)
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in scipy_imports(path)]
    assert all(hit == ("__init__.py", "import scipy") for hit in hits), hits


def test_scipy_detector_flags_submodule_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy\nimport numpy, scipy.optimize\n"
                     "from scipy import linalg\nfrom . import scipy_free\n")
    assert list(scipy_imports(probe)) == [
        ("probe.py", "import scipy"), ("probe.py", "import numpy, scipy.optimize"),
        ("probe.py", "from scipy import linalg")]


def test_cli_import_loads_no_public_scipy_submodule():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tetrablock.cli; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=env, timeout=60)
    modules = proc.stdout.split()
    assert "tetrablock.cli" in modules
    # scipy.version is loaded by scipy's own __init__
    public = [name for name in modules
              if name.split(".")[0] == "scipy" and "." in name
              and not name.split(".")[1].startswith("_") and name != "scipy.version"]
    assert public == []
