"""No module defines a private name that nothing reads.

A module-level ``_name`` (a constant, function or class) is private to
its module, so once its module stops reading it and no other ``src``
module imports it, it is dead code.  Neither ruff's rule set nor the
unused-import scan next to this file catches that, so this standard-library
``ast`` scan does: it collects every module-level ``_name`` binding under
``src/`` (including those under a module-level ``if`` or ``try``), and
counts a name as live if its module loads it anywhere (also inside a
string annotation) or lists it in ``__all__``, or if another ``src``
module imports it with ``from ... import _name``.  Tests do not count as
readers.
"""

import ast
from pathlib import Path

from test_unused_imports import _string_annotation_names

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_level_statements(body):
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_level_statements(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for handler in node.handlers for stmt in handler.body]
            yield from _module_level_statements(node.body + handlers + node.orelse + node.finalbody)


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """``{name: line}`` of every module-level private constant, function and class."""
    found = {}
    for node in _module_level_statements(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(name, node.lineno)
    return found


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, including names in string annotations and ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        elif isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            read.update(_string_annotation_names(annotation))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def imported_names(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` of every ``from module import name`` in the tree."""
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def dead_private_names(root: Path) -> list[str]:
    """``path:line: name`` of every private module-level name nothing reads."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }
    imported = set().union(*(imported_names(tree) for tree in trees.values()))
    dead = []
    for path, tree in trees.items():
        module = _module_name(path, root)
        read = read_names(tree)
        for name, line in private_definitions(tree).items():
            if name not in read and (module, name) not in imported:
                dead.append(f"{path.relative_to(root)}:{line}: {name}")
    return dead


def test_scan_finds_dead_private_names_and_counts_every_reader(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text('"""Package."""\n')
    (package / "a.py").write_text(
        "from typing import Optional\n"
        "_DEAD = 1\n"
        "_READ = 2\n"
        "_EXPORTED = 3\n"
        "_IMPORTED = 4\n"
        "_counter = 0\n"
        "__version__ = '0'\n"
        "try:\n"
        "    _GUARDED = 5\n"
        "except ImportError:\n"
        "    pass\n"
        "def _helper(): return _READ\n"
        "class _Annotated: pass\n"
        "def _dead_function(x: Optional['_Annotated']) -> None:\n"
        "    global _counter\n"
        "    _counter += 1\n"
        "    return _helper()\n"
        "__all__ = ['_EXPORTED']\n"
    )
    (package / "b.py").write_text("from pkg.a import _IMPORTED\n")
    assert [entry.rsplit(": ", 1)[1] for entry in dead_private_names(tmp_path)] == [
        "_DEAD",
        "_GUARDED",
        "_dead_function",
    ]


def test_no_src_module_defines_a_private_name_nothing_reads():
    dead = dead_private_names(SRC)
    assert not dead, "private module-level names that nothing reads:\n" + "\n".join(dead)
