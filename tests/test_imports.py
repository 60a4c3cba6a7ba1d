"""Every import in src/ and tests/ is used, every private helper in src/ is
read, every public function and class in src/ is reached, and library
modules do no file I/O.

Deleting code tends to leave imports and helpers behind; this check parses
each file and fails on a name that is imported but never read, on a
module-level ``_name`` of the package that its own module never reads, and
on a module-level public function or class of the package that neither its
own module nor another file of src/ or bench/ reads (as a name, an
attribute or an import).  Reads from tests/ do not count: a function that
only a test calls is not part of the pipeline.
``__future__`` imports and package ``__init__`` files (whose imports are
re-exports) are skipped.  The compute modules import none of csv, json or
pathlib: the CLI writes every output file, and netzoo (checkpoints) and
config (config files) are the only other modules that touch files.
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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` (not ``__dunder__``) bound by a def, a class or
    an assignment -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in bound
                      if name.startswith("_") and not name.startswith("__")})
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, not counting the ones it only binds."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


SRC = [p for p in FILES if p.is_relative_to(ROOT / "src")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_orphaned_private_helpers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = loaded_names(tree)
    orphans = {name: line for name, line in private_definitions(tree).items()
               if name not in read}
    assert not orphans, f"{path.name}: private name(s) never read {orphans}"


def test_an_orphaned_private_helper_is_caught():
    tree = ast.parse("def _used(): pass\ndef _orphan(): pass\nclass _C: pass\n"
                     "_A, _B = 1, 2\n_D: int = 3\n__all__ = []\nx = _used(), _B, _C\n"
                     "def f():\n    _A = 4\n")
    assert set(private_definitions(tree)) - loaded_names(tree) == {"_orphan", "_A", "_D"}


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level public function or class -> its line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def reached_names(tree: ast.Module) -> set[str]:
    """Every name the module reads as a name, as an attribute or by
    importing it."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


PIPELINE_READS = set().union(*(reached_names(ast.parse(p.read_text(encoding="utf-8")))
                               for d in ("src", "bench") for p in (ROOT / d).rglob("*.py")))


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreached_public_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unreached = {name: line for name, line in public_definitions(tree).items()
                 if name not in PIPELINE_READS}
    assert not unreached, f"{path.name}: public name(s) no file of src/ or bench/ reads {unreached}"


def test_an_unreached_public_definition_is_caught():
    defs = ast.parse("def used(): pass\ndef self_used(): pass\ndef orphan(): pass\n"
                     "class Imported: pass\nclass Attr: pass\ndef _private(): pass\n"
                     "x = self_used()\n")
    other = ast.parse("from m import Imported, used\nimport m\nm.Attr\n")
    reached = reached_names(defs) | reached_names(other)
    assert set(public_definitions(defs)) - reached == {"orphan"}


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
