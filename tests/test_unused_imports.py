"""Dead-import guard for the test suite and the library: every name a module
in ``tests/`` or ``src/ergolab`` imports is read somewhere in that module.
An import whose last use is gone fails here instead of lingering."""
from __future__ import annotations

import ast
from pathlib import Path

import ergolab

TESTS = Path(__file__).resolve().parent
LIBRARY = Path(ergolab.__file__).resolve().parent


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


def unread_imports(paths, exempt=lambda path: ()) -> tuple[list[str], int]:
    """The imports of ``paths`` that their module never reads, less the
    names ``exempt(path)`` allows, and the count of imports checked."""
    unread = []
    checked = 0
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        reads.update(exempt(path))
        for name, line in imported_names(tree):
            checked += 1
            if name not in reads:
                unread.append(f"{path.name}:{line}: {name}")
    return unread, checked


def test_every_imported_name_in_the_tests_is_read():
    unread, checked = unread_imports(sorted(TESTS.glob("*.py")))
    assert checked > 100  # the scan sees the suite's imports
    assert unread == []


def test_every_imported_name_in_the_library_is_read():
    # The package imports the names of its ``__all__`` only to export them.
    exports = set(ergolab.__all__)
    unread, checked = unread_imports(
        sorted(LIBRARY.glob("*.py")), lambda path: exports if path.name == "__init__.py" else ()
    )
    assert checked > 100  # the scan sees the library's imports
    assert unread == []
