"""No module imports a name it never uses: ruff's F401, which CI's lint job enforces.

ruff is not a test dependency, so this standard-library ``ast`` scan
mirrors the rule over the directories the lint job checks.  Like
``pyproject.toml`` it skips the re-export hubs ``src/**/__init__.py``, and
like ruff it honours ``# noqa: F401`` (or a bare ``# noqa``) on the line
of the imported name, counts names listed in ``__all__`` as used, and
reads the names inside string annotations such as ``Optional["Hint"]``.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The directories ``ruff check`` runs on in CI.
LINTED = ("src", "tests", "benchmarks", "examples")

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _suppressed(line: str) -> bool:
    match = _NOQA.search(line)
    return match is not None and (match["codes"] is None or "F401" in match["codes"].upper())


def _string_annotation_names(annotation: ast.AST):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (name.id for name in ast.walk(expression) if isinstance(name, ast.Name))


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            used.update(_string_annotation_names(annotation))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            line = alias.lineno
            if bound not in used and not _suppressed(lines[line - 1]):
                unused.append((line, alias.name))
    return sorted(unused)


def test_scan_finds_unused_imports_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json  # noqa: F401 - imported for its side effect\n"
        "import sys  # noqa: E402\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path, PurePath\n"
        "from math import (\n"
        "    ceil,\n"
        "    floor,\n"
        ")\n"
        "__all__ = ['floor']\n"
        "def f(p: Optional['Path']) -> None:\n"
        "    return TYPE_CHECKING\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "sys"), (7, "PurePath"), (9, "ceil")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for directory in LINTED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            relative = path.relative_to(REPO_ROOT)
            if relative.parts[0] == "src" and path.name == "__init__.py":
                continue
            found += [
                f"{relative}:{line}: {name}"
                for line, name in unused_imports(path.read_text(encoding="utf-8"))
            ]
    assert not found, "unused imports (ruff F401):\n" + "\n".join(found)
