"""No module in ``src/repro`` imports a name it never uses.

Package ``__init__.py`` files are skipped: their imports are the
package's re-exports.  A name counts as used when it appears in the
module's code, inside a string annotation (``"Flow"``,
``"Optional[Event]"``) or in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _module_imports(body: list[ast.stmt]):
    """Module-level import statements, including those nested in
    module-level ``if``/``try``/``with`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _string_names(node: ast.AST) -> set[str]:
    """Names inside every string constant under ``node``, read as an
    expression (a string annotation, or an ``__all__`` entry)."""
    found: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                found |= _names_in(ast.parse(n.value, mode="eval"))
            except SyntaxError:
                continue
    return found


def _used_names(tree: ast.Module) -> set[str]:
    used = _names_in(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                     args.vararg, args.kwarg]
            notes = [a.annotation for a in every if a and a.annotation]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        elif isinstance(node, ast.Assign) and "__all__" in _names_in(node):
            notes = [node.value]
        else:
            continue
        for note in notes:
            if note is not None:
                used |= _string_names(note)
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"{name} (line {line})"
        for name, line in sorted(_imported_names(tree).items())
        if name not in used
    ]


def test_scanner_sees_string_annotations_and_all():
    source = (
        "from typing import Optional, Sequence\n"
        "from os import path, sep\n"
        "import json\n"
        "__all__ = ['sep']\n"
        "def f(x: 'Optional[int]') -> 'None': ...\n"
    )
    assert unused_imports(source) == ["Sequence (line 1)", "json (line 3)",
                                      "path (line 2)"]


def test_no_unused_module_imports():
    found = {
        str(path.relative_to(SRC)): unused
        for path in MODULES
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
