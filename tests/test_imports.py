"""Module boundaries: no module of the package imports a private name from a
sibling module, every public name has a caller, and importing the package
loads no public scipy submodule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tetrablock"
PERFBENCH = SRC.parents[1] / "perfbench"


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


#: public names with no caller in the package, its commands, its suites or
#: the benchmark, each kept for the reason given
UNCALLED = {
    "f_omega_automorphism": "the f_omega property tests of ROADMAP aim 3",
    "disc_automorphism": "the sigma and f_omega property tests of ROADMAP aim 3",
    "mobius_distance": "the Schwarz-Pick property tests of ROADMAP aim 3",
}


def public_names(init: Path):
    """The names ``__init__`` imports from the modules of the package."""
    return [alias.asname or alias.name for node in ast.parse(init.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]


def names_used(tree: ast.AST, modules=frozenset(), imports: bool = False):
    """Each name ``tree`` loads, and each attribute it takes of a name in
    ``modules``, and with ``imports`` each name it imports.  A docstring
    mention, an assigned or annotated name (a field) and an attribute of any
    other object (``report.lower.magic_f``) are none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield node.attr
        elif imports and isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def uncalled_names(src: Path, perfbench: Path):
    """The public names without a caller.  A benchmark module calls the
    names it imports or uses; a package module other than ``__init__``
    calls those its module-level code uses, and those a top-level
    definition uses unless that definition is itself an uncalled public
    name.  Attributes count only when taken of the package or one of its
    modules."""
    public = public_names(src / "__init__.py")
    modules = {src.name} | {module.stem for module in src.glob("*.py")}
    bench = {name for module in perfbench.glob("*.py")
             for name in names_used(ast.parse(module.read_text()), modules, imports=True)}
    blocks = [(getattr(node, "name", None), set(names_used(node, modules)))
              for module in src.glob("*.py") if module.name != "__init__.py"
              for node in ast.parse(module.read_text()).body]
    uncalled = set(public) - bench
    while True:
        called = set().union(*(used for owner, used in blocks if owner not in uncalled))
        if not uncalled & called:
            return sorted(uncalled)
        uncalled -= called


def test_every_public_name_has_a_caller():
    assert uncalled_names(SRC, PERFBENCH) == sorted(UNCALLED)


def test_caller_detector(tmp_path):
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir(), bench.mkdir()
    (src / "__init__.py").write_text("from .a import f, g, h, k, u, v, w\n")
    (src / "a.py").write_text("def f(): pass\ndef g(): f()\ndef h(): pass\n"
                              "def k(): pass\ndef u(): pass\ndef v(): u()\n"
                              "def w(): pass\n")
    (src / "b.py").write_text('"""f and g."""\nfrom .a import g, k\nimport a\na.h()\n'
                              "class R:\n    w: float\n"
                              "def show(report): return report.lower.w\n")
    (bench / "run.py").write_text("from pkg.a import k\n")
    # g is imported, not used, and f is used only by g and in a docstring; u
    # is used only by v, which nothing uses; w only names a field and an
    # attribute of a report, while h is taken of the module a
    assert uncalled_names(src, bench) == ["f", "g", "u", "v", "w"]


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
    # submodule and is kept only for the benchmark (ROADMAP item 4)
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
