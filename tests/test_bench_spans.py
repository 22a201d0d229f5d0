"""The benchmark's traced names exist.

Every ``layer.name`` in ``bench/spans.py`` must resolve on the ``ergolab``
module of that layer, so that deleting or renaming a traced function or
class fails the test suite and not only the benchmark run.  The file is
read and executed in a fresh namespace, never imported, so no bytecode is
written next to it.
"""
from __future__ import annotations

import importlib
import types
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _span_names() -> tuple[str, ...]:
    module = types.ModuleType("bench_spans")
    code = compile(SPANS_FILE.read_text(encoding="utf-8"), str(SPANS_FILE), "exec")
    exec(code, module.__dict__)
    return module.SPAN_NAMES


def test_every_traced_name_resolves_on_its_module():
    names = _span_names()
    assert len(names) > 20  # the file was read
    unresolved = []
    for qual in names:
        layer, name = qual.split(".", 1)
        if not callable(getattr(importlib.import_module(f"ergolab.{layer}"), name, None)):
            unresolved.append(qual)
    assert unresolved == []
