"""The package's import graph: one-way, every import at module level, and
nothing from outside the standard library but numpy; and no public name
that nothing reads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kickedtop"

# public names that no package code or README reads, kept as the oracles
# that these test modules compare against
ORACLES = {
    "ipr": "test_localization",
    "renyi_entropy": "test_localization",
    "angular_distance": "test_localization",
    "mf_quasienergy": "test_meanfield",
    "predicted_count": "test_meanfield",
    "topological_count_estimate": "test_meanfield",
    "probe_state": "test_spin",
}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The kickedtop modules that a module imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kickedtop."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("kickedtop.")}
    return found


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_import_inside_a_function():
    nested = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_intra_package_imports_are_acyclic():
    graph = {name: _imported_modules(tree) - {name}
             for name, tree in _trees().items()}
    assert set().union(*graph.values()) <= set(graph)
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, f"import cycle: {' -> '.join(path + (name,))}"
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + (name,))
            done.add(name)

    for name in graph:
        visit(name, ())


def test_no_private_name_crosses_a_module():
    # an underscore name stays inside its module: `from .floquet import _sectors`
    # and `floquet._sectors` through an imported module are both refused
    crossing = []
    for name, tree in _trees().items():
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").startswith("kickedtop")):
                crossing += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
                if node.module in (None, "kickedtop"):
                    modules |= {alias.asname or alias.name for alias in node.names}
        crossing += [f"{name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                     and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert crossing == []


def test_only_the_standard_library_and_numpy_are_imported():
    foreign = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{name}:{node.lineno} {top}" for top in tops
                        if top not in sys.stdlib_module_names | {"numpy", "kickedtop"}]
    assert foreign == []


@pytest.mark.parametrize("two_j", [12, 13])
def test_every_command_runs_without_loading_scipy(tmp_path, two_j):
    commands = [["rcurve", "--kxky", "1:300", "--steps", "3"],
                ["rcurve", "--kxky", "1:300", "--steps", "3", "--delta", "0.7"],
                ["entropy", "--kxky", "10:300", "--steps", "2", "--grid", "6"],
                ["dynamics", "--ky", "pi:2", "--nx", "1,2", "--n-max", "5"],
                ["spectrum", "--kxky", "1:300", "--steps", "2"],
                ["symcheck", "--kx", "1.3", "--ky", "2.9"]]
    argvs = [argv + ["--two-j", str(two_j), "--out", str(tmp_path / f"{i}.out")]
             for i, argv in enumerate(commands)]
    script = ("import sys\n"
              "import kickedtop\n"
              "from kickedtop.cli import main\n"
              f"codes = [main(argv) for argv in {argvs!r}]\n"
              "print(kickedtop.__file__)\n"
              "print(codes)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}).stdout
    where, codes, loaded = out.splitlines()
    assert Path(where).parent == PACKAGE
    assert codes == str([0] * len(commands))
    assert loaded == "[]"


def test_only_floquet_names_the_chiral_fold():
    # floquet builds every fold and stores it with the operator; no other
    # module reads one back from a core
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "floquet" and "chiral_fold" in path.read_text()]
    assert naming == []


def _read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: bare names, attributes and from-imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_every_public_name_has_a_reader():
    # matched on the syntax tree, so a docstring's word does not count as a reader
    trees = _trees()
    read = set().union(*(_read_names(tree) for name, tree in trees.items()
                         if name != "__init__"))
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    unread = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read | set(ORACLES)
              and not re.search(rf"\b{node.name}\b", readme)]
    assert unread == []
    tests = Path(__file__).resolve().parent
    stale = [name for name, module in ORACLES.items()
             if name not in _read_names(ast.parse((tests / f"{module}.py").read_text()))]
    assert stale == []
