"""The package names that the benchmark harness in ``perfbench/`` uses must
exist, so that deleting one the harness still needs fails here, not only
in a benchmark run. The harness is parsed, not imported or run."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def package_names(tree: ast.AST) -> list[tuple[int, object, str]]:
    """(line, owner, name) for every name imported from a ``fockkrein``
    module and every attribute read off a name such an import binds."""
    bound = {}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fockkrein":
                    module = alias.name if alias.asname else "fockkrein"
                    bound[alias.asname or "fockkrein"] = importlib.import_module(module)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fockkrein":
            module = importlib.import_module(node.module)
            for alias in node.names:
                used.append((node.lineno, module, alias.name))
                try:  # as the import statement does, load a submodule first
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    pass
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            used.append((node.lineno, bound[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_perfbench_names_exist(path):
    used = package_names(ast.parse(path.read_text(), filename=str(path)))
    missing = [f"{path.name}:{line} {getattr(owner, '__name__', owner)}.{name}"
               for line, owner, name in used if not hasattr(owner, name)]
    assert not missing


def test_the_walk_sees_the_dense_names_the_harness_imports():
    fock = importlib.import_module("fockkrein.fock")
    names = {(owner, name) for path in PERFBENCH.glob("*.py")
             for _, owner, name in package_names(ast.parse(path.read_text()))}
    assert (fock, "annihilation_matrices") in names
    assert (fock, "annihilation_operator_matrix") in names
    missing = ast.parse("from fockkrein import fock\nfock.no_such_name\n")
    assert [(o, n) for _, o, n in package_names(missing) if not hasattr(o, n)] == [
        (fock, "no_such_name")
    ]
