"""Every import in src/ and tests/ is used.

Deleting code tends to leave imports behind; this check parses each file
and fails on a name that is imported but never read.  ``__future__``
imports and package ``__init__`` files (whose imports are re-exports) are
skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads (an attribute chain reads its root)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_files_are_found():
    assert any(p.name == "diffkit.py" for p in FILES)
    assert any(p.name == "test_imports.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused import(s) {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nimport os.path as osp\nfrom a import b, c\nprint(c, osp.sep)\n")
    assert set(imported_names(tree)) - read_names(tree) == {"os", "b"}
