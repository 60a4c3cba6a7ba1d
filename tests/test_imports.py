"""Every import in src/ and tests/ is used, and library modules do no file I/O.

Deleting code tends to leave imports behind; this check parses each file
and fails on a name that is imported but never read.  ``__future__``
imports and package ``__init__`` files (whose imports are re-exports) are
skipped.  The compute modules import none of csv, json or pathlib: the CLI
writes every output file, and netzoo (checkpoints) and config (config
files) are the only other modules that touch files.
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


LIBRARY = ("diffkit", "dynzoo", "optim", "rollout", "hjbtrain", "sysid")
FILE_IO = {"csv", "json", "pathlib"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Root package of every module the file imports."""
    mods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods.add(node.module.split(".")[0])
    return mods


@pytest.mark.parametrize("name", LIBRARY)
def test_library_modules_write_no_files(name):
    """Library modules compute; the CLI owns every output file format."""
    tree = ast.parse((ROOT / "src" / "hjbctrl" / f"{name}.py").read_text(encoding="utf-8"))
    assert not imported_modules(tree) & FILE_IO


def test_a_file_io_import_is_caught():
    tree = ast.parse("import json\nfrom pathlib import Path\nimport os.path\nfrom . import csv\n")
    assert imported_modules(tree) & FILE_IO == {"json", "pathlib"}
