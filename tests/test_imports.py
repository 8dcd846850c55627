"""Module boundaries: no module of the package imports a private name from a
sibling module."""

import ast
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
