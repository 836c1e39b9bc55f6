"""Module boundaries: no rsgame module imports another one's private names,
and none imports scipy; every public definition has a caller outside the
tests or is an export, every method is read and every defaulted dataclass
field set outside the tests, and every export is documented."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import rsgame

PACKAGE = Path(rsgame.__file__).parent


def private_imports(path: Path):
    """`module:line name` for each `_`-prefixed name imported from rsgame."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "rsgame"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} {alias.name}"


def test_no_module_imports_private_names():
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_imports(path)] == []


def scipy_imports(path: Path):
    """`module:line` for each import of scipy, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield f"{path.name}:{node.lineno}"


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {"saddle.py", "model.py", "cli.py"} <= {path.name for path in modules}
    assert [hit for path in modules for hit in scipy_imports(path)] == []


def test_no_scipy_is_loaded_by_the_pipeline(tmp_path):
    """check and solve on birth-death (all pure) and solve on pennies (a
    mixed local saddle) leave no scipy module loaded."""
    from conftest import pennies_layer_model
    from rsgame.model import model_to_json

    bd, pennies = str(tmp_path / "bd.json"), str(tmp_path / "pennies.json")
    report = str(tmp_path / "report.json")
    Path(pennies).write_text(json.dumps(model_to_json(pennies_layer_model())))
    code = (
        "import contextlib, io, json, sys\n"
        "from rsgame.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert run(['example', 'birth-death', '--window', '30', '--out', {bd!r}]) == 0\n"
        f"    assert run(['check', {bd!r}]) == 0\n"
        f"    assert run(['solve', {bd!r}, '--ladder', '15,30']) == 0\n"
        f"    assert run(['solve', {pennies!r}, '--out', {report!r}]) == 0\n"
        f"print(json.load(open({report!r}))['selectors'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    selectors, loaded = proc.stdout.splitlines()
    assert "0.5" in selectors  # the pennies state took the mixed solve
    assert loaded == "[]"


ROOT = Path(__file__).resolve().parents[1]


def names_used(tree) -> Counter:
    """How often `tree` uses each name: loaded or imported names, attribute
    names, and identifier strings (a tracer binds by name)."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += node.value.isidentifier()
    return used


def caller_trees() -> list:
    """The syntax trees of rsgame, scripts/ and perfbench/, its tests aside."""
    paths = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
             + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                if p.name != "test_perfbench.py"])
    return [ast.parse(path.read_text()) for path in paths]


def test_every_public_definition_has_a_caller_or_is_exported():
    """A public top-level function or class of rsgame is used outside its
    own definition by rsgame, scripts/ or perfbench/ (its tests aside), or
    is exported in __all__: code that only tests run belongs in tests/."""
    used = sum(map(names_used, caller_trees()), Counter())
    unused = [f"{path.name}:{node.name}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in rsgame.__all__
              and used[node.name] <= names_used(node)[node.name]]
    assert unused == []


def attributes_read(tree) -> Counter:
    """How often `tree` reads each attribute name, and each `Name.attr`
    pair as (Name, attr)."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used[node.attr] += 1
            if isinstance(node.value, ast.Name):
                used[node.value.id, node.attr] += 1
    return used


def test_every_method_is_read_outside_its_definition():
    """A method or property of a class of rsgame, dunder methods aside, is
    read as an attribute outside its own definition by rsgame, scripts/ or
    perfbench/ (its tests aside), a static or class method as
    `Class.method`: a method that only tests call belongs in tests/."""
    used = sum(map(attributes_read, caller_trees()), Counter())
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                on_class = any(isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                               for d in node.decorator_list)
                key = (cls.name, node.name) if on_class else node.name
                if used[key] <= attributes_read(node)[key]:
                    unread.append(f"{path.name}:{cls.name}.{node.name}")
    assert unread == []


def fields_set(tree) -> Counter:
    """How often `tree` sets each name as a keyword argument or stores it
    as an attribute."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            used[node.arg] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            used[node.attr] += 1
    return used


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_defaulted_field_is_set_outside_the_tests():
    """A dataclass field of rsgame that has a default is set, as a keyword
    argument or an attribute store, by rsgame, scripts/ or perfbench/ (its
    tests aside): a value that only tests set is a constant, or a test-side
    construction."""
    used = sum(map(fields_set, caller_trees()), Counter())
    unset = [f"{path.name}:{cls.name}.{node.target.id}"
             for path in sorted(PACKAGE.glob("*.py"))
             for cls in ast.walk(ast.parse(path.read_text()))
             if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
             for node in cls.body
             if isinstance(node, ast.AnnAssign) and node.value is not None
             and not used[node.target.id]]
    assert unset == []


def test_every_exported_name_resolves_and_is_documented():
    docs = (ROOT / "README.md").read_text() + (ROOT / "docs" / "formats.md").read_text()
    assert [name for name in rsgame.__all__ if not hasattr(rsgame, name)] == []
    assert [name for name in rsgame.__all__ if f"`{name}" not in docs] == []
