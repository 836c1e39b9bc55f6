"""Module boundaries: no rsgame module imports another one's private names,
and scipy is imported only where a mixed local saddle solve needs it."""

import ast
import os
import subprocess
import sys
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
    """(module, line, inside a function) for each import of scipy."""
    tree = ast.parse(path.read_text())
    deferred = {id(node) for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield path.name, node.lineno, id(node) in deferred


def test_scipy_is_imported_only_inside_saddle_functions():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in scipy_imports(path)]
    assert hits, "saddle.py's deferred scipy imports were not seen"
    assert [(name, line) for name, line, deferred in hits
            if name != "saddle.py" or not deferred] == []


def test_scipy_is_imported_only_where_used(tmp_path):
    """The birth-death check and its all-pure solve import no scipy."""
    model = str(tmp_path / "m.json")
    code = (
        "import contextlib, io, sys\n"
        "from rsgame.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert run(['example', 'birth-death', '--window', '30', '--out', {model!r}]) == 0\n"
        f"    assert run(['check', {model!r}]) == 0\n"
        f"    assert run(['solve', {model!r}, '--ladder', '15,30']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
