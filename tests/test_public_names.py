"""Library-only guard: every public module-level function or class in
``src/ergolab``, and every public method, property or classmethod of a
public class there, is reached by something other than a test.

A module-level name is reached by any of:

* a read in ``src/ergolab`` outside the name's own definition;
* a read in the benchmark's driver code (``bench/*.py``, except
  ``spans.py`` and the harness's own ``test_*.py``);
* an entry in the package's ``__all__`` (``ergolab/__init__.py``);
* a traced name in ``bench/spans.py``.

A member is reached by an attribute read of its name (``x.name``) in the
same sources, outside the member's own definition.  The scan cannot tell
whose attribute is read, so a member whose name another class of the
package also defines, as a member or a field, is listed in
``SHARED_NAMES`` with the read that reaches it.

A fixture, a theorem stated as a check or a reference algorithm that only
tests call belongs in ``tests/helpers.py``.  Two kinds of module-level name
are exempt: a ``*_to_json`` or ``*_from_json`` whose counterpart is reached
(the two halves of one wire format), and the verdicts in
``AWAITING_COMMAND``, each with the command that will print it.  An entry
in either list that is gone, already reached or no longer shared fails too,
so the lists cannot go stale.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ergolab"
BENCH = ROOT / "bench"

# ``module.name`` or ``module.Class.member`` -> why no command reaches it yet.
AWAITING_COMMAND: dict[str, str] = {
    "hales_jewett.insensitive_algebra": (
        "the e-insensitive algebras of a law's line marginal; `structure --law` will print them"
    ),
    "hales_jewett.line_marginal_structure_report": (
        "the line-marginal structure verdict with its witness; `structure --law` will print it"
    ),
    "upsets.StructureReport.oblique_holds": (
        "the oblique clause's verdict; `structure --system` will print it"
    ),
}

# ``module.Class.member`` -> the read that reaches it, which the scan
# cannot tell apart from a read of another class's member or field.
SHARED_NAMES: dict[str, str] = {
    "averages.VanDerCorputReport.holds": "`vdc` prints `report.holds`",
    "hales_jewett.CorrespondenceMeasure.words": "`dhj correspond` lists `cm.words`",
    "hales_jewett.StationaryLawTruncation.words": (
        "`strong_stationarity_check` names its witnesses from `law.words`"
    ),
    "measure.Coupling.support": "`Coupling.as_space` reads `self.support()`",
    "measure.ExactProbabilitySpace.support": (
        "`invariant_factor` walks `sys.space.support()`"
    ),
    "systems.FiniteZdSystem.dim": "`FiniteZdSystem.act` checks `self.dim`",
    "systems.GroupRotationSystem.dim": "`rotation_extension` checks `rot.dim`",
    "systems.JointDistributionReport.holds": "`joint` prints `report.holds`",
}


def _reads(tree: ast.AST, bare: bool = True) -> Counter:
    """Names read in ``tree``: attributes, and bare names unless ``bare``
    is false.  Imports and string constants are not reads."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def _modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))
    ]


def _reaching_trees() -> list[ast.Module]:
    """The package and the bench driver, parsed."""
    paths = [*SRC.glob("*.py")]
    paths += [
        p for p in BENCH.glob("*.py") if p.name != "spans.py" and not p.name.startswith("test_")
    ]
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def public_definitions() -> list[tuple[str, str, ast.stmt]]:
    out = []
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.append((module, node.name, node))
    return out


def public_members() -> list[tuple[str, str, ast.stmt]]:
    """``module.Class``, name and definition of every public method,
    property or classmethod of a public class."""
    return [
        (f"{module}.{cls.name}", node.name, node)
        for module, cls_name, cls in public_definitions()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def member_owners() -> Counter:
    """How many classes of the package define each name as a member or a
    field, private classes included."""
    owners: Counter = Counter()
    for _, tree in _modules():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                names = set()
                for node in cls.body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names.add(node.name)
                    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        names.add(node.target.id)
                    elif isinstance(node, ast.Assign):
                        names.update(t.id for t in node.targets if isinstance(t, ast.Name))
                owners.update(names)
    return owners


def reached_names() -> tuple[Counter, set[str]]:
    """Reads in the package and in the bench driver, and the names that
    ``__all__`` and the bench's spans list."""
    reads: Counter = Counter()
    for tree in _reaching_trees():
        reads += _reads(tree)
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


def _unreached_members() -> tuple[list[str], list[str]]:
    """The public members no attribute read touches, and the reached ones
    whose name another class shares, each as ``module.Class.member``."""
    reads: Counter = Counter()
    for tree in _reaching_trees():
        reads += _reads(tree, bare=False)
    owners = member_owners()
    unreached, shared = [], []
    for owner, name, node in public_members():
        if reads[name] - _reads(node, bare=False)[name] <= 0:
            unreached.append(f"{owner}.{name}")
        elif owners[name] > 1:
            shared.append(f"{owner}.{name}")
    return unreached, shared


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
    defined = {f"{m}.{name}" for m, name, _ in public_definitions() + public_members()}
    unreached = _unreached()[0] + _unreached_members()[0]
    stale = [qual for qual in AWAITING_COMMAND if qual not in defined or qual not in unreached]
    assert stale == []


def test_every_public_member_is_reached_outside_the_tests():
    assert len(public_members()) > 30  # the scan sees the classes' members
    unreached, shared = _unreached_members()
    assert [qual for qual in unreached if qual not in AWAITING_COMMAND] == []
    assert [qual for qual in shared if qual not in SHARED_NAMES] == []


def test_every_shared_name_exists_and_is_still_shared():
    _, shared = _unreached_members()
    assert [qual for qual in SHARED_NAMES if qual not in shared] == []
