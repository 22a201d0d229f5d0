"""JSON encodings and validation with path-precise diagnostics.

The constructors check the invariants of the objects they build; this module
checks JSON shape (keys and types) and the wire rules below, and places every
error at its JSON path.

Wire formats:

* rationals: reduced strings ``"p/q"`` (a bare integer string is accepted on
  input);
* spaces: ``{"points": [...], "weights": ["1/4", ...]}``;
* partitions: arrays of arrays of 0-based point indices;
* couplings: ``{"arity": d, "mass": [{"tuple": [i, ...], "value": "p/q"}, ...]}``
  with tuples sorted lexicographically and distinct, and values positive;
* systems: ``{"dim": D, "space": ..., "generators": [[...], ...]}``;
* subgroups: ``{"vectors": [[...], ...]}``;
* group rotations: ``{"orders": [n1, ...], "phi": [[...], ...]}``;
* vector sequences: ``{"entries": [["p/q", ...], ...]}``;
* subspaces: ``{"N": [...], "I": [[...], ...], "w": "..."}`` (1-based
  positions).

Canonical output is sorted-key JSON with no insignificant whitespace, so a
report is byte-stable for fixed inputs and seed.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .hales_jewett import (
    CombinatorialSubspace,
    CorrespondenceMeasure,
    StationaryLawTruncation,
)
from .averages import VectorSequence
from .measure import (
    Coupling,
    ExactProbabilitySpace,
    Partition,
    SimpleFunction,
    ValidationError,
    format_path,  # re-exported with ValidationError, as before they moved
)
from .systems import FiniteZdSystem, GroupRotationSystem, SubgroupSpec

if TYPE_CHECKING:
    from .removal import RemovalInstance
    from .upsets import UpSet


def format_fraction(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(s: Any, path: Sequence = ()) -> Fraction:
    if type(s) is int:  # a JSON boolean is no rational
        return Fraction(s)
    if not isinstance(s, str):
        raise ValidationError(path, f"expected a rational string, got {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(path, f"bad rational {s!r}: {exc}") from None


def _normalize_label(x: Any, path: Sequence) -> Any:
    if isinstance(x, list):
        return tuple(_normalize_label(v, path) for v in x)
    if isinstance(x, dict):
        raise ValidationError(path, "a point label cannot be an object")
    return x


def _label_out(x: Any) -> Any:
    if isinstance(x, tuple):
        return [_label_out(v) for v in x]
    return x


def _need(obj: Any, key: str, path: Sequence) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(path, "expected an object")
    if key not in obj:
        raise ValidationError(path, f"missing key {key!r}")
    return obj[key]


_INT = frozenset({int})


def _int_list(obj: Any, path: Sequence) -> list[int]:
    # The set of exact types, built in C, settles the usual array of ints.
    # Booleans pass, as 0 and 1: only the scalar fields refuse them.
    if not isinstance(obj, list) or not (
        set(map(type, obj)) <= _INT or all(isinstance(v, int) for v in obj)
    ):
        raise ValidationError(path, "expected an array of integers")
    return list(obj)


def _build(path: Sequence, ctor: Any, *args: Any) -> Any:
    """``ctor(*args)``, with the constructor's error placed at ``path``:
    a located error's own path is appended to it.  The arguments are
    evaluated by the caller, so their parse errors keep their own paths."""
    try:
        return ctor(*args)
    except ValidationError as exc:
        raise ValidationError(list(path) + exc.path, exc.message) from None
    except ValueError as exc:
        raise ValidationError(path, str(exc)) from None


def _entries(
    obj: Any,
    key: str,
    field: str,
    path: Sequence,
    stored: bool = False,
    wire: list | None = None,
) -> dict[tuple[int, ...], Fraction]:
    """Parse ``obj[key]``, an array of ``{field: [i, ...], "value": "p/q"}``,
    into a dict summing repeated tuples.  Each distinct value string is
    parsed once, and a bad one fails at its first entry.  ``stored`` adds the
    wire rules of stored masses: tuples sorted and distinct, values positive.
    A broken wire rule raises at once, or, when a list ``wire`` is given,
    only the first one is appended to it and the parse goes on.

    An entry that is an object with an array of ints and a value string
    already parsed needs no JSON path; any other entry is checked at its
    path, so the first bad entry raises, as it would in a fully checked loop.
    """
    entries = _need(obj, key, path)
    if not isinstance(entries, list):
        raise ValidationError(list(path) + [key], "expected an array")
    out: dict = {}
    parsed: dict[str, Fraction] = {}
    prev: tuple | None = None
    for i, entry in enumerate(entries):
        t = entry.get(field) if type(entry) is dict else None
        if type(t) is list and _INT.issuperset(map(type, t)):
            t = tuple(t)
        else:
            t = tuple(_int_list(_need(entry, field, [*path, key, i]), [*path, key, i, field]))
        if stored and prev is not None and t <= prev:
            _broken(wire, [*path, key, i, field], "tuples must be sorted and distinct")
        prev = t
        raw = entry.get("value")
        v = parsed.get(raw) if type(raw) is str else None
        if v is None:
            v = parse_fraction(_need(entry, "value", [*path, key, i]), [*path, key, i, "value"])
            if type(raw) is str:
                parsed[raw] = v
        if stored and v <= 0:
            _broken(wire, [*path, key, i, "value"], "stored masses must be positive")
        out[t] = out[t] + v if t in out else v
    return out


def _entries_to_json(mass: dict, keys: Sequence, field: str) -> list:
    """The array :func:`_entries` reads: ``{field: [i, ...], "value": "p/q"}``
    for each key of ``mass``, in the order of ``keys``."""
    return [{field: list(t), "value": format_fraction(mass[t])} for t in keys]


def _broken(wire: list | None, path: list, message: str) -> None:
    """Raise a broken wire rule, or keep it in ``wire`` if that is the first."""
    if wire is None:
        raise ValidationError(path, message)
    if not wire:
        wire.append(ValidationError(path, message))


# -- spaces -----------------------------------------------------------------

def space_to_json(space: ExactProbabilitySpace) -> dict:
    return {
        "points": [_label_out(p) for p in space.points],
        "weights": [format_fraction(w) for w in space.weights],
    }


def space_from_json(obj: Any, path: Sequence = ()) -> ExactProbabilitySpace:
    points = _need(obj, "points", path)
    weights = _need(obj, "weights", path)
    if not isinstance(points, list) or not isinstance(weights, list):
        raise ValidationError(path, "points and weights must be arrays")
    labels = tuple(
        _normalize_label(p, list(path) + ["points", i]) for i, p in enumerate(points)
    )
    ws = [parse_fraction(w, list(path) + ["weights", i]) for i, w in enumerate(weights)]
    return _build(path, ExactProbabilitySpace, labels, tuple(ws))


# -- partitions -------------------------------------------------------------

def partition_to_json(p: Partition) -> list:
    return [list(b) for b in p.blocks]


def partition_from_json(obj: Any, size: int, path: Sequence = ()) -> Partition:
    if not isinstance(obj, list):
        raise ValidationError(path, "expected an array of blocks")
    blocks = tuple(tuple(_int_list(b, list(path) + [i])) for i, b in enumerate(obj))
    return _build(path, Partition, size, blocks)


# -- couplings --------------------------------------------------------------

def coupling_to_json(c: Coupling, include_base: bool = True) -> dict:
    out = {"arity": c.arity, "mass": _entries_to_json(c.mass, c.support(), "tuple")}
    if include_base:
        out["base"] = space_to_json(c.base)
    return out


def _arity(obj: Any, path: Sequence) -> int:
    arity = _need(obj, "arity", path)
    if type(arity) is not int or arity < 1:
        raise ValidationError(list(path) + ["arity"], "arity must be a positive integer")
    return arity


def coupling_from_json(
    obj: Any, base: ExactProbabilitySpace | None = None, path: Sequence = ()
) -> Coupling:
    """The coupling of a document with a base, or of ``obj`` over ``base``.
    The masses are parsed once, with the wire rules of stored masses; the
    constructor checks them before a broken wire rule is raised, so a
    document that breaks both gets the constructor's error."""
    arity = _arity(obj, path)
    if base is None:
        base = space_from_json(_need(obj, "base", path), list(path) + ["base"])
    wire: list[ValidationError] = []
    mass = _entries(obj, "mass", "tuple", path, stored=True, wire=wire)
    coupling = _build(path, Coupling, arity, base, mass)
    if wire:
        raise wire[0]
    return coupling


def _baseless_coupling(arity: int, mass: dict) -> Coupling:
    """The coupling a document without a base describes: its base is the
    coordinate-0 marginal on the points ``0..max index``.  Points no tuple
    uses weigh 0 in every marginal, so the used ones, renumbered in order,
    stand for them (a huge index allocates nothing; a negative one becomes
    -1).  A marginal that is no probability vector means an entry out of
    range or a total other than 1, which ``Coupling`` reports before it
    reads the base weights, so a uniform base serves then."""
    used = sorted({i for t in mass for i in t if i >= 0}) or [0]
    number = {x: j for j, x in enumerate(used)}
    mass = {tuple(number.get(i, -1) for i in t): v for t, v in mass.items()}
    weights = [Fraction(0)] * len(used)
    for t, v in mass.items():
        if t and t[0] >= 0:
            weights[t[0]] += v
    if sum(weights) != 1:
        weights = [Fraction(1, len(used))] * len(used)
    return Coupling(arity, ExactProbabilitySpace(tuple(used), tuple(weights)), mass)


# -- systems ----------------------------------------------------------------

def system_to_json(sys: FiniteZdSystem) -> dict:
    return {
        "dim": sys.dim,
        "space": space_to_json(sys.space),
        "generators": [list(g) for g in sys.generators],
    }


def system_from_json(obj: Any, path: Sequence = ()) -> FiniteZdSystem:
    dim = _need(obj, "dim", path)
    space = space_from_json(_need(obj, "space", path), list(path) + ["space"])
    gens = _need(obj, "generators", path)
    if not isinstance(gens, list):
        raise ValidationError(list(path) + ["generators"], "expected an array")
    if type(dim) is not int or dim != len(gens):
        raise ValidationError(
            list(path) + ["dim"], "dim must equal the number of generators"
        )
    perms = [
        tuple(_int_list(g, list(path) + ["generators", i])) for i, g in enumerate(gens)
    ]
    return _build(path, FiniteZdSystem, space, tuple(perms))


# -- subgroups and rotations ------------------------------------------------

def subgroup_to_json(g: SubgroupSpec) -> dict:
    return {"vectors": [list(v) for v in g.vectors]}


def subgroup_from_json(obj: Any, path: Sequence = ()) -> SubgroupSpec:
    vecs = _need(obj, "vectors", path)
    if not isinstance(vecs, list):
        raise ValidationError(list(path) + ["vectors"], "expected an array")
    vectors = tuple(
        tuple(_int_list(v, list(path) + ["vectors", i])) for i, v in enumerate(vecs)
    )
    return _build(path, SubgroupSpec, vectors)


def rotation_to_json(rot: GroupRotationSystem) -> dict:
    return {"orders": list(rot.orders), "phi": [list(v) for v in rot.phi]}


def rotation_from_json(obj: Any, path: Sequence = ()) -> GroupRotationSystem:
    orders = _int_list(_need(obj, "orders", path), list(path) + ["orders"])
    phi = _need(obj, "phi", path)
    if not isinstance(phi, list):
        raise ValidationError(list(path) + ["phi"], "expected an array")
    images = tuple(tuple(_int_list(v, list(path) + ["phi", i])) for i, v in enumerate(phi))
    return _build(path, GroupRotationSystem, tuple(orders), images)


# -- sequences, functions, subspaces ----------------------------------------

def sequence_from_json(obj: Any, path: Sequence = ()) -> VectorSequence:
    entries = _need(obj, "entries", path)
    if not isinstance(entries, list):
        raise ValidationError(list(path) + ["entries"], "expected an array")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list):
            raise ValidationError(list(path) + ["entries", i], "expected an array")
        rows.append(
            tuple(
                parse_fraction(v, list(path) + ["entries", i, j])
                for j, v in enumerate(row)
            )
        )
    return _build(list(path) + ["entries"], VectorSequence, tuple(rows))


def function_from_json(obj: Any, path: Sequence = ()) -> SimpleFunction:
    if not isinstance(obj, list):
        raise ValidationError(path, "expected an array of rationals")
    return SimpleFunction(
        tuple(parse_fraction(v, list(path) + [i]) for i, v in enumerate(obj))
    )


def subspace_to_json(s: CombinatorialSubspace) -> dict:
    return {
        "N": list(s.breakpoints),
        "I": [sorted(w) for w in s.wildcards],
        "w": s.template,
    }


def subspace_from_json(obj: Any, k: int, path: Sequence = ()) -> CombinatorialSubspace:
    bps = _int_list(_need(obj, "N", path), list(path) + ["N"])
    wsets = _need(obj, "I", path)
    if not isinstance(wsets, list):
        raise ValidationError(list(path) + ["I"], "expected an array")
    template = _need(obj, "w", path)
    if not isinstance(template, str):
        raise ValidationError(list(path) + ["w"], "expected a word string")
    wildcards = tuple(
        frozenset(_int_list(w, list(path) + ["I", i])) for i, w in enumerate(wsets)
    )
    return _build(path, CombinatorialSubspace, k, tuple(bps), wildcards, template)


def correspondence_to_json(cm: CorrespondenceMeasure) -> dict:
    return {
        "k": cm.k,
        "L": cm.length,
        "mass": _entries_to_json(cm.mass, sorted(cm.mass), "config"),
        "words": list(cm.words),
    }


# -- laws ---------------------------------------------------------------------

def law_to_json(law: StationaryLawTruncation) -> dict:
    return {
        "k": law.k,
        "depth": law.depth,
        "carrier": space_to_json(law.carrier),
        "weights": _entries_to_json(law.weights, sorted(law.weights), "config"),
    }


def law_from_json(obj: Any, path: Sequence = ()) -> StationaryLawTruncation:
    k = _need(obj, "k", path)
    depth = _need(obj, "depth", path)
    if type(k) is not int or type(depth) is not int:
        raise ValidationError(path, "k and depth must be integers")
    carrier = space_from_json(_need(obj, "carrier", path), list(path) + ["carrier"])
    weights = _entries(obj, "weights", "config", path)
    return _build(path, StationaryLawTruncation, k, depth, carrier, weights)


# -- removal instances --------------------------------------------------------

def upset_to_json(u: "UpSet") -> dict:
    from .upsets import bits_of

    return {"d": u.d, "members": sorted(list(bits_of(m)) for m in u.members)}


def upset_from_json(obj: Any, d: int | None = None, path: Sequence = ()) -> "UpSet":
    from .upsets import UpSet, mask_of

    if d is None:
        d = _need(obj, "d", path)
        if type(d) is not int:
            raise ValidationError(list(path) + ["d"], "expected an integer")
    members = _need(obj, "members", path)
    if not isinstance(members, list):
        raise ValidationError(list(path) + ["members"], "expected an array")
    masks = frozenset(
        mask_of(_int_list(m, list(path) + ["members", i]))
        for i, m in enumerate(members)
    )
    return _build(path, UpSet, d, masks)


def removal_instance_to_json(inst: "RemovalInstance") -> dict:
    from .upsets import bits_of

    return {
        "space": space_to_json(inst.space),
        "coupling": coupling_to_json(inst.coupling, include_base=False),
        "psi": [
            {"set": list(bits_of(m)), "partition": partition_to_json(p)}
            for m, p in sorted(inst.psi.items())
        ],
        "families": [
            [
                {"upset": upset_to_json(u), "set": sorted(a)}
                for u, a in fam
            ]
            for fam in inst.families
        ],
    }


def removal_instance_from_json(obj: Any, path: Sequence = ()) -> "RemovalInstance":
    from .removal import RemovalInstance
    from .upsets import mask_of

    space = space_from_json(_need(obj, "space", path), list(path) + ["space"])
    coupling = coupling_from_json(
        _need(obj, "coupling", path), base=space, path=list(path) + ["coupling"]
    )
    psi_entries = _need(obj, "psi", path)
    if not isinstance(psi_entries, list):
        raise ValidationError(list(path) + ["psi"], "expected an array")
    psi: dict = {}
    for i, entry in enumerate(psi_entries):
        epath = list(path) + ["psi", i]
        mask = mask_of(_int_list(_need(entry, "set", epath), epath + ["set"]))
        psi[mask] = partition_from_json(
            _need(entry, "partition", epath), len(space), epath + ["partition"]
        )
    fam_entries = _need(obj, "families", path)
    if not isinstance(fam_entries, list):
        raise ValidationError(list(path) + ["families"], "expected an array")
    families = []
    for i, fam in enumerate(fam_entries):
        fpath = list(path) + ["families", i]
        if not isinstance(fam, list):
            raise ValidationError(fpath, "expected an array")
        out = []
        for j, entry in enumerate(fam):
            epath = fpath + [j]
            u = upset_from_json(
                _need(entry, "upset", epath), d=coupling.arity, path=epath + ["upset"]
            )
            a = frozenset(_int_list(_need(entry, "set", epath), epath + ["set"]))
            out.append((u, a))
        families.append(tuple(out))
    return _build(path, RemovalInstance, space, coupling, psi, tuple(families))


# -- joint-distribution instances ----------------------------------------------

def joint_instance_from_json(obj: Any, path: Sequence = ()) -> dict:
    """Parse ``{"joining", "targets", "maps", "subgroups", "lambda"}`` into the
    pieces of a joint-distribution predicate call."""
    from .systems import FactorMap

    joining = system_from_json(_need(obj, "joining", path), list(path) + ["joining"])
    targets_json = _need(obj, "targets", path)
    maps_json = _need(obj, "maps", path)
    groups_json = _need(obj, "subgroups", path)
    if not (isinstance(targets_json, list) and isinstance(maps_json, list)):
        raise ValidationError(path, "targets and maps must be arrays")
    if not isinstance(groups_json, list):
        raise ValidationError(list(path) + ["subgroups"], "expected an array")
    if len(targets_json) != len(maps_json) or len(groups_json) != len(maps_json):
        raise ValidationError(path, "targets, maps, and subgroups must align")
    maps = []
    for i, (tj, mj) in enumerate(zip(targets_json, maps_json)):
        target = system_from_json(tj, list(path) + ["targets", i])
        pm = _int_list(mj, list(path) + ["maps", i])
        maps.append(_build(list(path) + ["maps", i], FactorMap, joining, target, tuple(pm)))
    subgroups = [
        subgroup_from_json(g, list(path) + ["subgroups", i])
        for i, g in enumerate(groups_json)
    ]
    lam = subgroup_from_json(
        obj.get("lambda", {"vectors": []}), list(path) + ["lambda"]
    )
    return {"joining": joining, "maps": maps, "subgroups": subgroups, "lam": lam}


# -- canonical output and validation ----------------------------------------

def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators.  Tuples are
    written as lists, a ``Fraction`` as ``"p/q"`` and a set as the sorted
    list of its encoded members."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode)


def _encode(value: Any) -> Any:
    """``json``'s hook for the values it cannot encode itself."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, (set, frozenset)):
        return sorted(json.loads(canonical_dumps(v)) for v in value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _coupling_document_check(obj: Any) -> None:
    """Validate a coupling document.  One without a base is checked as a
    coupling of the base it implies (see :func:`_baseless_coupling`), after
    the wire rules of stored masses, since that base is read off them."""
    if isinstance(obj, dict) and "base" in obj:
        coupling_from_json(obj)
        return
    arity = _arity(obj, ())
    _build((), _baseless_coupling, arity, _entries(obj, "mass", "tuple", (), stored=True))


_SCHEMAS = {
    "space": lambda obj: space_from_json(obj),
    "system": lambda obj: system_from_json(obj),
    "coupling": _coupling_document_check,
    "subgroup": lambda obj: subgroup_from_json(obj),
    "rotation": lambda obj: rotation_from_json(obj),
    "sequence": lambda obj: sequence_from_json(obj),
    "law": lambda obj: law_from_json(obj),
    "instance": lambda obj: removal_instance_from_json(obj),
    "joint": lambda obj: joint_instance_from_json(obj),
}


def validate_document(obj: Any, schema: str) -> list[str]:
    """Structural plus invariant validation; returns diagnostics, empty when
    the document is valid."""
    if schema not in _SCHEMAS:
        return [f"unknown schema {schema!r}; expected one of {sorted(_SCHEMAS)}"]
    try:
        _SCHEMAS[schema](obj)
    except ValidationError as exc:
        return [str(exc)]
    except ValueError as exc:
        return [f"$: {exc}"]
    return []
