"""Module boundaries: no rsgame module imports another one's private names."""

import ast
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
