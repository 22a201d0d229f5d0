"""JSON encodings and validation with path-precise diagnostics.

The constructors check the invariants of the objects they build; this module
checks JSON shape (keys and types) and the wire rules below, and places every
error at its JSON path.  Each reader raises its errors relative to the value
it reads, and a constructor's located error keeps its own path.  Whoever read
that value at a key or an index places the error there as it unwinds, with
:meth:`ValidationError.within`, so no reader takes a path.

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
* vector sequences: ``{"entries": [["p/q", ...], ...]}``.

A mass table (law weights, coupling masses) is read in one batched pass
and handed to its constructor, whose exact-mass check is the one check of
its integers; only a document that fails a check is read again entry by
entry, to place the error (see :func:`_mass_table`).

Each reader of rationals (a space's weights, stored masses and law weights,
a function's values, a sequence's entries) parses through one memo per
value it reads, so each distinct string is parsed once, at its first
occurrence, and equal strings share one ``Fraction``.

Canonical output is sorted-key JSON with no insignificant whitespace, so a
report is byte-stable for fixed inputs and seed.  One encoder, built at
import, writes it.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import index, itemgetter, lt
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .hales_jewett import (
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
from .systems import FactorMap, FiniteZdSystem, GroupRotationSystem, SubgroupSpec
from .upsets import UpSet, bits_of, mask_of

if TYPE_CHECKING:
    from .removal import RemovalInstance


def format_fraction(q: Fraction) -> str:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(s: Any) -> Fraction:
    if type(s) is int:  # a JSON boolean is no rational
        return Fraction(s)
    if not isinstance(s, str):
        raise ValidationError((), f"expected a rational string, got {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError((), f"bad rational {s!r}: {exc}") from None


class _Rationals(dict):
    """A memo of parsed rationals, one per document value read: each
    distinct string is parsed by :func:`parse_fraction` at its first lookup,
    so a bad one raises there, and equal strings share one ``Fraction``."""

    def __missing__(self, s: str) -> Fraction:
        out = self[s] = parse_fraction(s)
        return out

    def read(self, s: Any) -> Fraction:
        """``parse_fraction(s)``, through the memo when ``s`` is a string (a
        JSON boolean equals an int, so only strings are keys)."""
        return self[s] if type(s) is str else parse_fraction(s)


def _normalize_label(x: Any) -> Any:
    if isinstance(x, list):
        return tuple(map(_normalize_label, x))
    if isinstance(x, dict):
        raise ValidationError((), "a point label cannot be an object")
    return x


def _label_out(x: Any) -> Any:
    if isinstance(x, tuple):
        return [_label_out(v) for v in x]
    return x


def _need(obj: Any, key: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError((), "expected an object")
    if key not in obj:
        raise ValidationError((), f"missing key {key!r}")
    return obj[key]


def _key(obj: Any, key: str, read: Callable, *args: Any) -> Any:
    """``read(obj[key], *args)``, its error located inside ``obj[key]``."""
    value = _need(obj, key)
    try:
        return read(value, *args)
    except ValidationError as exc:
        raise exc.within(key)


def _items(array: Any, read: Callable, *args: Any) -> tuple:
    """``read(item, *args)`` for each item of the array ``array``, an error
    located inside its item."""
    if not isinstance(array, list):
        raise ValidationError((), "expected an array")
    out = []
    for i, item in enumerate(array):
        try:
            out.append(read(item, *args))
        except ValidationError as exc:
            raise exc.within(i)
    return tuple(out)


_INT = frozenset({int})


def _ints(obj: Any) -> tuple[int, ...]:
    # The set of exact types, built in C, settles the usual array of ints.
    # Booleans pass, as 0 and 1: only the scalar fields refuse them.
    if not isinstance(obj, list) or not (
        set(map(type, obj)) <= _INT or all(isinstance(v, int) for v in obj)
    ):
        raise ValidationError((), "expected an array of integers")
    return tuple(obj)


def _mask(obj: Any, d: int) -> int:
    """The bitmask of an array of coordinate indices in ``range(d)``.  An
    index is checked before it becomes a bit, so a large one allocates
    nothing."""
    indices = _ints(obj)
    if any(i < 0 for i in indices):
        raise ValidationError((), "expected an array of nonnegative integers")
    for i in indices:
        if i >= d:
            raise ValidationError((), f"coordinate index {i} out of range")
    return mask_of(indices)


def _build(ctor: Callable, *args: Any) -> Any:
    """``ctor(*args)``: a located error of the constructor keeps its path,
    and any other ``ValueError`` is placed at the value being built.  The
    arguments are evaluated by the caller, so their parse errors keep their
    own paths."""
    try:
        return ctor(*args)
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError((), str(exc)) from None


def _entries(
    obj: Any,
    key: str,
    field: str,
    stored: bool = False,
    wire: list | None = None,
) -> dict[tuple[int, ...], Fraction]:
    """Parse ``obj[key]``, an array of ``{field: [i, ...], "value": "p/q"}``,
    into a dict summing repeated tuples, checking every entry in order: the
    located per-entry read.  Each distinct value string is parsed once, and
    a bad one fails at its first entry.  ``stored`` adds the wire rules of
    stored masses: tuples sorted and distinct, values positive.  A broken
    wire rule raises at once, or, when a list ``wire`` is given, only the
    first one is appended to it and the parse goes on.

    Only :func:`_mass_table` calls it, for a document its batched read
    could not build, so the first bad entry raises here, at its path,
    before (or instead of) the constructor's error.
    """
    entries = _need(obj, key)
    if not isinstance(entries, list):
        raise ValidationError([key], "expected an array")
    out: dict = {}
    parsed = _Rationals()
    prev: tuple | None = None
    for i, entry in enumerate(entries):
        try:
            t = _key(entry, field, _ints)
        except ValidationError as exc:
            raise exc.within(key, i)
        if stored and prev is not None and t <= prev:
            _broken(wire, [key, i, field], "tuples must be sorted and distinct")
        prev = t
        try:
            v = _key(entry, "value", parsed.read)
        except ValidationError as exc:
            raise exc.within(key, i)
        if stored and v <= 0:
            _broken(wire, [key, i, "value"], "stored masses must be positive")
        out[t] = out[t] + v if t in out else v
    return out


def _batched_entries(obj: dict, key: str, field: str, stored: bool) -> dict | None:
    """The table of ``obj[key]`` read by a few passes in C, or ``None``
    unless the array is the clean case: every entry an object with a list
    ``field`` and a string ``"value"``, the keys hashable and distinct, each
    distinct value string a rational (parsed once), and, when ``stored``,
    the wire rules kept.  The key entries are not looked at: the
    constructor that reads the table checks them."""
    entries = obj.get(key)
    if type(entries) is not list or not set(map(type, entries)) <= {dict}:
        return None
    try:
        lists = list(map(itemgetter(field), entries))
        raws = list(map(itemgetter("value"), entries))
        if not (set(map(type, lists)) <= {list} and set(map(type, raws)) <= {str}):
            return None
        keys = list(map(tuple, lists))
        parsed = _Rationals()
        table = dict(zip(keys, map(parsed.__getitem__, raws)))
        if len(table) != len(keys):
            return None
        if stored and not (
            all(map(lt, keys, keys[1:])) and min(parsed.values(), default=1) > 0
        ):
            return None
    except (KeyError, TypeError, ValueError):
        # A missing key, an unhashable or incomparable one, or a bad rational.
        return None
    return table


def _mass_table(
    obj: dict,
    key: str,
    field: str,
    build: Callable[[dict], Any],
    stored: bool = False,
    wire_last: bool = False,
) -> Any:
    """``build(table)`` for the mass table ``obj[key]`` (see
    :func:`_entries` for its shape and wire rules): the one reader of law
    weights, coupling masses and baseless coupling documents.

    The clean array is read by :func:`_batched_entries` and handed straight
    to ``build``, a constructor whose exact-mass check
    (:func:`measure.exact_masses`) is the one check of its integers' types
    and ranges.  Any other document, and any ``ValueError`` or
    ``TypeError`` of ``build``, goes through the located read,
    :func:`_entries`, and then ``build`` again, so a bad document gets the
    error it would get from the located read alone.  A broken wire rule
    raises there at once, or, with ``wire_last``, only after ``build``
    succeeded, so a document that breaks both gets the constructor's
    error."""
    table = _batched_entries(obj, key, field, stored)
    if table is not None:
        try:
            return build(table)
        except (ValueError, TypeError):
            pass  # the located read below decides the error
    wire: list[ValidationError] | None = [] if wire_last else None
    out = _build(build, _entries(obj, key, field, stored, wire))
    if wire:
        raise wire[0]
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


def space_from_json(obj: Any) -> ExactProbabilitySpace:
    points = _need(obj, "points")
    weights = _need(obj, "weights")
    if not isinstance(points, list) or not isinstance(weights, list):
        raise ValidationError((), "points and weights must be arrays")
    labels = _key(obj, "points", _items, _normalize_label)
    ws = _key(obj, "weights", _items, _Rationals().read)
    return _build(ExactProbabilitySpace, labels, ws)


# -- partitions -------------------------------------------------------------

def partition_to_json(p: Partition) -> list:
    return [list(b) for b in p.blocks]


def partition_from_json(obj: Any, size: int) -> Partition:
    if not isinstance(obj, list):
        raise ValidationError((), "expected an array of blocks")
    return _build(Partition, size, _items(obj, _ints))


# -- couplings --------------------------------------------------------------

def coupling_to_json(c: Coupling, include_base: bool = True) -> dict:
    out = {"arity": c.arity, "mass": _entries_to_json(c.mass, c.support(), "tuple")}
    if include_base:
        out["base"] = space_to_json(c.base)
    return out


def _arity(obj: Any) -> int:
    arity = _need(obj, "arity")
    if type(arity) is not int or arity < 1:
        raise ValidationError(["arity"], "arity must be a positive integer")
    return arity


def coupling_from_json(obj: Any, base: ExactProbabilitySpace | None = None) -> Coupling:
    """The coupling of a document with a base, or of ``obj`` over ``base``.
    The masses are parsed once, with the wire rules of stored masses; the
    constructor checks them before a broken wire rule is raised, so a
    document that breaks both gets the constructor's error."""
    arity = _arity(obj)
    if base is None:
        base = _key(obj, "base", space_from_json)
    return _mass_table(
        obj, "mass", "tuple", partial(Coupling, arity, base), stored=True, wire_last=True
    )


def _baseless_coupling(arity: int, mass: dict) -> Coupling:
    """The coupling a document without a base describes: its base is the
    coordinate-0 marginal on the points ``0..max index``.  Points no tuple
    uses weigh 0 in every marginal, so the used ones, renumbered in order,
    stand for them (a huge index allocates nothing; a negative one becomes
    -1).  A marginal that is no probability vector means an entry out of
    range or a total other than 1, which ``Coupling`` reports before it
    reads the base weights, so a uniform base serves then.  The entries are
    renumbered before ``Coupling`` reads them, so they are read here with
    ``operator.index``, as it would: a float or a string raises
    ``TypeError``."""
    used = sorted({i for i in map(index, chain.from_iterable(mass)) if i >= 0}) or [0]
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


def system_from_json(obj: Any) -> FiniteZdSystem:
    dim = _need(obj, "dim")
    space = _key(obj, "space", space_from_json)
    gens = _need(obj, "generators")
    if not isinstance(gens, list):
        raise ValidationError(["generators"], "expected an array")
    if type(dim) is not int or dim != len(gens):
        raise ValidationError(["dim"], "dim must equal the number of generators")
    return _build(FiniteZdSystem, space, _key(obj, "generators", _items, _ints))


# -- subgroups and rotations ------------------------------------------------

def subgroup_to_json(g: SubgroupSpec) -> dict:
    return {"vectors": [list(v) for v in g.vectors]}


def subgroup_from_json(obj: Any) -> SubgroupSpec:
    return _build(SubgroupSpec, _key(obj, "vectors", _items, _ints))


def rotation_to_json(rot: GroupRotationSystem) -> dict:
    return {"orders": list(rot.orders), "phi": [list(v) for v in rot.phi]}


def rotation_from_json(obj: Any) -> GroupRotationSystem:
    orders = _key(obj, "orders", _ints)
    return _build(GroupRotationSystem, orders, _key(obj, "phi", _items, _ints))


# -- sequences and functions ------------------------------------------------

def _sequence(entries: Any) -> VectorSequence:
    return _build(VectorSequence, _items(entries, _items, _Rationals().read))


def sequence_from_json(obj: Any) -> VectorSequence:
    return _key(obj, "entries", _sequence)


def function_from_json(obj: Any) -> SimpleFunction:
    if not isinstance(obj, list):
        raise ValidationError((), "expected an array of rationals")
    return SimpleFunction(_items(obj, _Rationals().read))


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


def law_from_json(obj: Any) -> StationaryLawTruncation:
    k = _need(obj, "k")
    depth = _need(obj, "depth")
    if type(k) is not int or type(depth) is not int:
        raise ValidationError((), "k and depth must be integers")
    carrier = _key(obj, "carrier", space_from_json)
    return _mass_table(
        obj, "weights", "config", partial(StationaryLawTruncation, k, depth, carrier)
    )


# -- removal instances --------------------------------------------------------

def upset_to_json(u: UpSet) -> dict:
    return {"d": u.d, "members": sorted(list(bits_of(m)) for m in u.members)}


def upset_from_json(obj: Any, d: int | None = None) -> UpSet:
    if d is None:
        d = _need(obj, "d")
        if type(d) is not int:
            raise ValidationError(["d"], "expected an integer")
    return _build(UpSet, d, frozenset(_key(obj, "members", _items, _mask, d)))


def removal_instance_to_json(inst: "RemovalInstance") -> dict:
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


def _psi_entry(entry: Any, d: int, n: int) -> tuple[int, Partition]:
    return _key(entry, "set", _mask, d), _key(entry, "partition", partition_from_json, n)


def _target(entry: Any, d: int) -> tuple[UpSet, frozenset[int]]:
    return _key(entry, "upset", upset_from_json, d), frozenset(_key(entry, "set", _ints))


def removal_instance_from_json(obj: Any) -> "RemovalInstance":
    from .removal import RemovalInstance

    space = _key(obj, "space", space_from_json)
    coupling = _key(obj, "coupling", coupling_from_json, space)
    psi = dict(_key(obj, "psi", _items, _psi_entry, coupling.arity, len(space)))
    # An array of arrays of targets.
    families = _key(obj, "families", _items, _items, _target, coupling.arity)
    return _build(RemovalInstance, space, coupling, psi, families)


# -- joint-distribution instances ----------------------------------------------

def joint_instance_from_json(obj: Any) -> dict:
    """Parse ``{"joining", "targets", "maps", "subgroups", "lambda"}`` into the
    pieces of a joint-distribution predicate call."""
    joining = _key(obj, "joining", system_from_json)
    targets_json = _need(obj, "targets")
    maps_json = _need(obj, "maps")
    groups_json = _need(obj, "subgroups")
    if not (isinstance(targets_json, list) and isinstance(maps_json, list)):
        raise ValidationError((), "targets and maps must be arrays")
    if not isinstance(groups_json, list):
        raise ValidationError(["subgroups"], "expected an array")
    if len(targets_json) != len(maps_json) or len(groups_json) != len(maps_json):
        raise ValidationError((), "targets, maps, and subgroups must align")
    maps = []
    for i, (tj, mj) in enumerate(zip(targets_json, maps_json)):
        try:
            target = system_from_json(tj)
        except ValidationError as exc:
            raise exc.within("targets", i)
        try:
            maps.append(_build(FactorMap, joining, target, _ints(mj)))
        except ValidationError as exc:
            raise exc.within("maps", i)
    subgroups = list(_key(obj, "subgroups", _items, subgroup_from_json))
    lam = _key(obj, "lambda", subgroup_from_json) if "lambda" in obj else SubgroupSpec(())
    return {"joining": joining, "maps": maps, "subgroups": subgroups, "lam": lam}


# -- canonical output and validation ----------------------------------------

def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators.  Tuples are
    written as lists, a ``Fraction`` as ``"p/q"`` and a set as the sorted
    list of its encoded members.

    One encoder, built at import, serves every call.  It skips the check for
    circular references: every value it encodes is a parsed JSON document or
    a freshly built report, and neither can hold a cycle."""
    return _ENCODER.encode(obj)


def _encode(value: Any) -> Any:
    """``json``'s hook for the values it cannot encode itself."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, (set, frozenset)):
        return sorted(json.loads(canonical_dumps(v)) for v in value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_encode, check_circular=False
)


def _coupling_document_check(obj: Any) -> Coupling:
    """The coupling of a coupling document, which validates it.  One
    without a base is read as a coupling of the base it implies (see
    :func:`_baseless_coupling`), after the wire rules of stored masses,
    since that base is read off them."""
    if isinstance(obj, dict) and "base" in obj:
        return coupling_from_json(obj)
    return _mass_table(
        obj, "mass", "tuple", partial(_baseless_coupling, _arity(obj)), stored=True
    )


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
