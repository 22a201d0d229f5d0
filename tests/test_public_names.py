"""Library-only guard: every public module-level function or class in
``src/ergolab`` is reached by something other than a test.

A name is reached by any of:

* a read in ``src/ergolab`` outside the name's own definition;
* a read in the benchmark's driver code (``bench/*.py``, except
  ``spans.py`` and the harness's own ``test_*.py``);
* an entry in the package's ``__all__`` (``ergolab/__init__.py``);
* a traced name in ``bench/spans.py``.

A fixture, a theorem stated as a check or a reference algorithm that only
tests call belongs in ``tests/helpers.py``.  Two kinds of name are exempt: a
``*_to_json`` or ``*_from_json`` whose counterpart is reached (the two halves
of one wire format), and the verdicts in ``AWAITING_COMMAND``, each with the
command that will print it.  An entry there that is gone or already reached
fails too, so the list cannot go stale.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ergolab"
BENCH = ROOT / "bench"

# ``module.name`` -> why no command reaches it yet.
AWAITING_COMMAND: dict[str, str] = {
    "hales_jewett.insensitive_algebra": (
        "the e-insensitive algebras of a law's line marginal; `structure --law` will print them"
    ),
    "hales_jewett.line_marginal_structure_report": (
        "the line-marginal structure verdict with its witness; `structure --law` will print it"
    ),
}


def _reads(tree: ast.AST) -> Counter:
    """Names read in ``tree``: bare names and attributes.  Imports and
    string constants are not reads."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def _assigned(tree: ast.Module, target: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return node.value
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == target:
            return node.value
    raise LookupError(target)


def _strings(node: ast.AST) -> set[str]:
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def public_definitions() -> list[tuple[str, str, ast.stmt]]:
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.append((path.stem, node.name, node))
    return out


def reached_names() -> tuple[Counter, set[str]]:
    """Reads in the package and in the bench driver, and the names that
    ``__all__`` and the bench's spans list."""
    reads: Counter = Counter()
    for path in SRC.glob("*.py"):
        reads += _reads(ast.parse(path.read_text(encoding="utf-8")))
    for path in BENCH.glob("*.py"):
        if path.name != "spans.py" and not path.name.startswith("test_"):
            reads += _reads(ast.parse(path.read_text(encoding="utf-8")))
    listed = _strings(_assigned(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")), "__all__"))
    listed |= _strings(_assigned(ast.parse((BENCH / "spans.py").read_text(encoding="utf-8")), "SPANS"))
    return reads, listed


def _unreached() -> tuple[list[str], set[str]]:
    """Every public definition no reach touches, as ``module.name``, and
    the names that are reached."""
    reads, listed = reached_names()
    definitions = public_definitions()
    reached = {
        name
        for _, name, node in definitions
        if reads[name] - _reads(node)[name] > 0 or name in listed
    }
    return [f"{m}.{name}" for m, name, _ in definitions if name not in reached], reached


def _counterpart(name: str) -> str | None:
    """The other half of a wire format's encoder/decoder pair."""
    if name.endswith("_to_json"):
        return name.removesuffix("_to_json") + "_from_json"
    if name.endswith("_from_json"):
        return name.removesuffix("_from_json") + "_to_json"
    return None


def test_every_public_name_is_reached_outside_the_tests():
    definitions = public_definitions()
    assert len(definitions) > 50  # the scan sees the package's public names
    unreached, reached = _unreached()
    offenders = [
        qual
        for qual in unreached
        if qual not in AWAITING_COMMAND and _counterpart(qual.split(".", 1)[1]) not in reached
    ]
    assert offenders == []


def test_every_awaiting_name_exists_and_is_still_unreached():
    defined = {f"{m}.{name}" for m, name, _ in public_definitions()}
    unreached, _ = _unreached()
    stale = [qual for qual in AWAITING_COMMAND if qual not in defined or qual not in unreached]
    assert stale == []
