"""Package-wide source checks."""

import ast
import importlib.util
import inspect
from pathlib import Path

import ibfdsim

SOURCES = sorted(Path(ibfdsim.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    assert SOURCES
    unused = {path.name: found for path in SOURCES
              if (found := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def _references(tree: ast.Module) -> set:
    """Every name a module reads, imports or looks up as an attribute, apart
    from a module-level function's or class's uses of its own name."""
    refs = set()
    for top in tree.body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found.discard(top.name)
        refs |= found
    return refs


def test_exports_resolve_and_no_definition_is_dead():
    # a test alone keeps no definition alive: each one is exported, or used
    # by the package or the benchmark
    assert [name for name in ibfdsim.__all__ if not hasattr(ibfdsim, name)] == []
    defined = {(path.name, node.name) for path in SOURCES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    referenced = set(ibfdsim.__all__)
    for folder in ("src", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced |= _references(ast.parse(path.read_text()))
    assert sorted(item for item in defined if item[1] not in referenced) == []


def test_bench_hooks_name_package_functions():
    # the benchmark's RunLog hooks these names to attribute solves and check
    # powers; a renamed target would switch those checks off without an error
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    names = list(checks.RunLog().hooks())
    assert names
    unresolved = [name for name in names if not inspect.isfunction(getattr(
        importlib.import_module(f"ibfdsim.{name.rpartition('.')[0]}"),
        name.rpartition(".")[2], None))]
    assert unresolved == []
