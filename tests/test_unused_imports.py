"""Dead-import guard for the test suite: every name a module in ``tests/``
imports is read somewhere in that module.  An import whose last use is gone
fails here instead of lingering."""
from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported_names(tree: ast.AST) -> list[tuple[str, int]]:
    """The names an import binds, with its line; ``import a.b`` binds
    ``a``, and ``from __future__`` binds nothing."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def test_every_imported_name_in_the_tests_is_read():
    unread = []
    checked = 0
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name, line in imported_names(tree):
            checked += 1
            if name not in reads:
                unread.append(f"{path.name}:{line}: {name}")
    assert checked > 100  # the scan sees the suite's imports
    assert unread == []
