"""Dead-helper guard: every module-level private name in ``src/ergolab`` (a
function, class or constant whose name starts with one underscore) is read
somewhere in the package outside its own definition.  A helper whose last
caller is gone fails here instead of lingering."""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ergolab"


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reads(tree: ast.AST) -> Counter:
    """Names read in ``tree``: bare names and attributes (``module._name``).
    Imports are not reads, so a name imported but never used is unread."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def private_definitions() -> list[tuple[str, str, ast.stmt]]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defined_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    out.append((path.name, name, node))
    return out


def test_every_private_module_name_is_read_outside_its_definition():
    reads: Counter = Counter()
    for path in SRC.glob("*.py"):
        reads += _reads(ast.parse(path.read_text(encoding="utf-8")))
    definitions = private_definitions()
    assert len(definitions) > 20  # the scan sees the package's helpers
    unread = [
        f"{module}: {name}"
        for module, name, node in definitions
        if reads[name] - _reads(node)[name] == 0
    ]
    assert unread == []
