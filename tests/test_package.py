"""Package-wide source checks."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import ibfdsim

SOURCES = sorted(Path(ibfdsim.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
# the code whose use keeps a definition alive
USERS = sorted(path for folder in ("src", "bench", "tools")
               for path in (ROOT / folder).rglob("*.py"))


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
    # by the package, the benchmark or the tools
    assert [name for name in ibfdsim.__all__ if not hasattr(ibfdsim, name)] == []
    defined = {(path.name, node.name) for path in SOURCES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    referenced = set(ibfdsim.__all__)
    for path in USERS:
        referenced |= _references(ast.parse(path.read_text()))
    assert sorted(item for item in defined if item[1] not in referenced) == []


def _member_uses(tree: ast.Module) -> tuple[set, set]:
    """(called, read): the attribute names a module calls and those it reads,
    apart from a class member's uses of its own name inside its own body."""
    called, read = set(), set()

    def visit(node, own):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr not in own:
            read.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr not in own:
            called.add(node.func.attr)
        for child in ast.iter_child_nodes(node):
            member = isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
            visit(child, own | {child.name} if member else own)

    visit(tree, frozenset())
    return called, read


def test_no_method_or_property_is_dead():
    # a method counts as used where code outside its own body calls it, and
    # a property where such code reads it: a plain attribute scan would let
    # `config.dl_users`, a ScenarioConfig field, keep a method of that name
    # alive.  Dunder methods are called by Python itself.
    called, read = set(), set()
    for path in USERS:
        uses = _member_uses(ast.parse(path.read_text()))
        called |= uses[0]
        read |= uses[1]
    members = [(cls.name, node) for path in SOURCES for cls in ast.parse(path.read_text()).body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")]
    dead = [f"{cls}.{node.name}" for cls, node in members
            if node.name not in (read if any(isinstance(d, ast.Name) and d.id == "property"
                                             for d in node.decorator_list) else called)]
    assert sorted(dead) == []


def test_no_dataclass_field_is_dead():
    # a test alone keeps no field alive either: each annotated field of a
    # package dataclass is read as an attribute somewhere in the package, the
    # benchmark or the tools.  ComplexityEstimate is exempt, as
    # cli._complexity prints each of its fields through dataclasses.fields.
    read = set()
    for path in USERS:
        read |= _member_uses(ast.parse(path.read_text()))[1]
    dead = [f"{cls.name}.{node.target.id}" for path in SOURCES
            for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef) and cls.name != "ComplexityEstimate"
            and any(ast.unparse(getattr(d, "func", d)) == "dataclass" for d in cls.decorator_list)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and node.target.id not in read]
    assert sorted(dead) == []


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


def _package_bindings(tree: ast.Module) -> dict:
    """{name: `ibfdsim.<dotted path>`} of every name that a module binds by
    importing the package or a name from it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]:
                      alias.name if alias.asname else "ibfdsim"
                      for alias in node.names if alias.name.split(".")[0] == "ibfdsim"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ibfdsim":
            bound |= {alias.asname or alias.name: f"{node.module}.{alias.name}"
                      for alias in node.names}
    return bound


def _package_calls(tree: ast.Module):
    """(line, target, call) of every call in `tree` whose function is named
    through an import of the package, as `ibfdsim.<dotted path>`, apart
    from calls with a `*` or `**` argument."""
    bound = _package_bindings(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in bound:
            yield node.lineno, ".".join([bound[func.id], *parts]), node


def test_bench_and_tools_calls_bind_to_the_package_signatures():
    # tier-1 runs little or none of the benchmark's and the tools' code, so
    # a call there that a signature change broke would surface only as a
    # failed benchmark or tool run
    broken, checked = [], 0
    for path in sorted(path for folder in ("bench", "tools")
                       for path in (ROOT / folder).rglob("*.py")
                       if ROOT / "bench" / "tests" not in path.parents):
        for line, target, call in _package_calls(ast.parse(path.read_text())):
            obj = ibfdsim
            for part in target.split(".")[1:]:
                obj = (getattr(obj, part, None)
                       or importlib.import_module(f"{obj.__name__}.{part}"))
            if inspect.isfunction(obj):
                checked += 1
                try:
                    inspect.signature(obj).bind(*call.args,
                                                **{k.arg: k.value for k in call.keywords})
                except TypeError as error:
                    broken.append(f"{path.relative_to(ROOT)}:{line} {target}: {error}")
    assert checked and broken == []


def test_readme_quick_start_runs(capsys):
    # the README's one library quick start runs as written, so the names it
    # shows cannot drift away from the package, and it prints a converged
    # solve
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    converged, iterations, *_ = capsys.readouterr().out.split()
    assert converged == "True" and int(iterations) > 0


def test_readme_module_map_has_one_bullet_per_module():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("Module map (`src/ibfdsim/`):", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+\.py)`", section, flags=re.MULTILINE)
    assert sorted(bullets) == sorted(p.name for p in SOURCES if p.name != "__init__.py")


def test_only_iterate_calls_the_iteration_kernels():
    # the precoder step, its transmit Gram matrices and the extrapolated
    # trial belong to one iteration, so a second caller in the package would
    # be a copy of jpaim._iterate's body.  tests/helpers.py's block oracles
    # call them on purpose, and lie outside the package.
    kernels = {"_precoder_step", "_extrapolate", "transmit_grams"}
    callers = sorted({(path.name, getattr(top, "name", None), name) for path in SOURCES
                      for top in ast.parse(path.read_text()).body for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and (name := getattr(node.func, "attr", getattr(node.func, "id", None)))
                      in kernels})
    assert callers == [("jpaim.py", "_iterate", name) for name in sorted(kernels)]


def test_readme_claims_cite_existing_tests():
    # every acceptance criterion and test that the claims ledger cites exists
    section = (ROOT / "README.md").read_text().split("## The paper's claims", 1)[1]
    section = section.split("\n## ", 1)[0]
    cited = {int(n) for group in re.findall(r"[Cc]riteri(?:on|a) ((?:\d+(?:, | and )?)+)", section)
             for n in re.findall(r"\d+", group)}
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert cited and [n for n in sorted(cited)
                      if f"def test_criterion_{n:02d}_" not in acceptance] == []
    tests = "".join(path.read_text() for path in (ROOT / "tests").glob("test_*.py"))
    assert [name for name in re.findall(r"`(test_\w+)`", section)
            if f"def {name}(" not in tests] == []


def test_tools_read_no_private_name_of_the_package():
    # a tool or the benchmark works through the package's public names: one
    # that reads or patches a private function breaks, or silently stops
    # seeing what it claims to, when the package reshapes its internals
    found = []
    for path in sorted([*(ROOT / "tools").rglob("*.py"), *(ROOT / "bench").glob("*.py")]):
        tree, name = ast.parse(path.read_text()), path.relative_to(ROOT)
        modules = _package_bindings(tree)
        found += [f"{name} imports {target}" for target in modules.values()
                  if target.rpartition(".")[2].startswith("_")]
        found += [f"{name}:{node.lineno} reads {ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and ast.unparse(node.value).split(".")[0] in modules]
    assert found == []
