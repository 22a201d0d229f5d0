"""The library imports nothing outside the standard library and itself."""
from __future__ import annotations

import ast
import os
import sys

import ergolab

SOURCE_DIR = os.path.dirname(ergolab.__file__)


def _imported_roots(path: str) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_imports_only_the_standard_library():
    files = sorted(f for f in os.listdir(SOURCE_DIR) if f.endswith(".py"))
    assert "hales_jewett.py" in files and "__init__.py" in files
    allowed = set(sys.stdlib_module_names) | {"ergolab"}
    outside = {
        f: sorted(_imported_roots(os.path.join(SOURCE_DIR, f)) - allowed) for f in files
    }
    assert {f: names for f, names in outside.items() if names} == {}


def test_the_import_scan_sees_a_third_party_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json\nfrom numpy import array\nfrom . import cli\nimport os.path\n")
    assert _imported_roots(str(path)) - set(sys.stdlib_module_names) == {"numpy"}
