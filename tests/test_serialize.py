"""Wire formats: round trips and diagnostics."""
from __future__ import annotations

import copy
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from helpers import cyclic_system, torus_system

from ergolab.hales_jewett import build_correspondence, iid_law
from ergolab.measure import Coupling, ExactProbabilitySpace, Partition
from ergolab.removal import RemovalInstance, UpSet
from ergolab.serialize import (
    ValidationError,
    canonical_dumps,
    coupling_from_json,
    coupling_to_json,
    format_fraction,
    law_from_json,
    law_to_json,
    parse_fraction,
    partition_from_json,
    partition_to_json,
    removal_instance_from_json,
    removal_instance_to_json,
    rotation_from_json,
    rotation_to_json,
    space_from_json,
    space_to_json,
    subgroup_from_json,
    subgroup_to_json,
    system_from_json,
    system_to_json,
    validate_document,
)
from ergolab.systems import GroupRotationSystem, SubgroupSpec
from ergolab.upsets import ground_masks

F = Fraction


def test_fraction_format_and_parse():
    assert format_fraction(F(2, 4)) == "1/2"
    assert parse_fraction("3/9") == F(1, 3)
    assert parse_fraction("7") == F(7)
    assert parse_fraction(7) == F(7)
    with pytest.raises(ValidationError):
        parse_fraction("1/0")
    with pytest.raises(ValidationError):
        parse_fraction("x/3")


def test_space_roundtrip_and_labels():
    sp = ExactProbabilitySpace(("a", (1, 2), 3), (F(1, 2), F(1, 4), F(1, 4)))
    back = space_from_json(json.loads(canonical_dumps(space_to_json(sp))))
    assert back == sp  # tuple labels survive via array normalization


def test_partition_roundtrip():
    p = Partition(4, ((0, 2), (1, 3)))
    assert partition_from_json(partition_to_json(p), 4) == p


def test_system_roundtrip():
    sys_ = torus_system(3, (1, 0), (0, 1))
    back = system_from_json(json.loads(canonical_dumps(system_to_json(sys_))))
    assert back == sys_


def test_coupling_roundtrip_sorted_tuples():
    sp = ExactProbabilitySpace.uniform((0, 1, 2))
    c = Coupling.diagonal(sp, 2)
    doc = coupling_to_json(c)
    tuples = [entry["tuple"] for entry in doc["mass"]]
    assert tuples == sorted(tuples)
    assert coupling_from_json(doc) == c
    assert coupling_from_json(doc, base=sp) == c


def test_subgroup_and_rotation_roundtrip():
    g = SubgroupSpec(((1, -1), (0, 2)))
    assert subgroup_from_json(subgroup_to_json(g)) == g
    rot = GroupRotationSystem((2, 3), ((1, 0), (0, 2)))
    assert rotation_from_json(rotation_to_json(rot)) == rot


def test_law_roundtrip():
    law = iid_law(2, 2, ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3))))
    assert law_from_json(law_to_json(law)) == law


def test_law_from_json_merges_duplicate_configs():
    doc = {
        "k": 2,
        "depth": 1,
        "carrier": {"points": [0, 1], "weights": ["1/3", "2/3"]},
        "weights": [
            {"config": [0, 0], "value": "1/6"},
            {"config": [1, 1], "value": "2/3"},
            {"config": [0, 0], "value": "1/6"},
            {"config": [0, 1], "value": "0"},
        ],
    }
    law = law_from_json(doc)
    assert law.weights == {(0, 0): F(1, 3), (1, 1): F(2, 3)}
    assert law.pullback(("1", "2")) == {(0, 0): F(1, 3), (1, 1): F(2, 3)}
    doc["weights"][2]["value"] = "1/5"
    with pytest.raises(ValidationError, match="total mass"):
        law_from_json(doc)


def test_law_from_json_parses_each_weight_string_once(monkeypatch):
    from ergolab import serialize

    doc = law_to_json(iid_law(2, 2, ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3)))))
    values = [e["value"] for e in doc["weights"]]
    assert len(set(values)) < len(values)
    parsed = []
    real = serialize.parse_fraction

    def counting(s):
        parsed.append(s)
        return real(s)

    monkeypatch.setattr(serialize, "parse_fraction", counting)
    law = law_from_json(doc)
    # The carrier's weights, then each distinct weight string at its first entry.
    assert parsed == doc["carrier"]["weights"] + list(dict.fromkeys(values))
    assert law_to_json(law) == doc


def test_system_from_json_parses_each_weight_string_once(monkeypatch):
    from ergolab import serialize

    weights = ["1/8", "1/8", "2/16", "1/8", "2/4", "0/1", "0/1"]
    doc = _system_doc(
        [[1, 2, 3, 0, 4, 6, 5]],
        space={"points": [[0, [i]] for i in range(4)] + [[1, [0]], [2, [0]], [2, [1]]],
               "weights": weights},
    )
    parsed = []
    real = serialize.parse_fraction

    def counting(s):
        parsed.append(s)
        return real(s)

    monkeypatch.setattr(serialize, "parse_fraction", counting)
    sys_ = system_from_json(doc)
    assert parsed == ["1/8", "2/16", "2/4", "0/1"]
    # Equal strings share one Fraction; "1/8" and "2/16" are equal values.
    ws = sys_.space.weights
    assert ws[0] is ws[1] is ws[3] and ws[5] is ws[6]
    assert ws[2] == ws[0] and ws == (F(1, 8),) * 4 + (F(1, 2), F(0), F(0))


def test_readers_share_one_fraction_per_string():
    from ergolab.serialize import function_from_json, sequence_from_json

    f = function_from_json(["1/3", "2/6", "1/3", 1, 1])
    assert f.values[0] is f.values[2] and f.values[0] == f.values[1]
    seq = sequence_from_json({"entries": [["1/2", "-1"], ["-1", "1/2"]]})
    assert seq.entries[0][0] is seq.entries[1][1] and seq.entries[0][1] is seq.entries[1][0]
    law = law_from_json(_law_doc([([0, 0], "1/4"), ([0, 1], "1/4"), ([1, 0], "1/4"), ([1, 1], "1/4")]))
    assert len({id(v) for v in law.weights.values()}) == 1


def test_law_from_json_weight_errors_keep_their_entry_path():
    doc = {
        "k": 2,
        "depth": 1,
        "carrier": {"points": [0, 1], "weights": ["1/2", "1/2"]},
        "weights": [
            {"config": [c0, c1], "value": "1/4"} for c0 in (0, 1) for c1 in (0, 1)
        ] + [{"config": [0, 0], "value": "0"}],
    }
    doc["weights"][1]["value"] = doc["weights"][4]["value"] = "1/x"
    with pytest.raises(ValidationError) as exc:
        law_from_json(doc)
    assert str(exc.value).startswith("$.weights[1].value: bad rational '1/x'")
    doc["weights"][1]["value"] = "1/4"
    with pytest.raises(ValidationError) as exc:
        law_from_json(doc)
    assert str(exc.value).startswith("$.weights[4].value: bad rational '1/x'")
    doc["weights"][4]["value"] = 0.25
    with pytest.raises(ValidationError) as exc:
        law_from_json(doc)
    assert str(exc.value) == "$.weights[4].value: expected a rational string, got float"


def test_law_configs_must_be_integer_arrays():
    # Booleans are integers, and are stored as 0 and 1; any other entry is
    # rejected at the entry's path, before the constructor sees the law.
    doc = {
        "k": 2,
        "depth": 1,
        "carrier": {"points": [0, 1], "weights": ["1/2", "1/2"]},
        "weights": [
            {"config": [False, False], "value": "1/2"},
            {"config": [1, True], "value": "1/2"},
        ],
    }
    law = law_from_json(doc)
    assert law.weights == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    assert all(type(c) is int for cfg in law.weights for c in cfg)
    for bad in ("1", 1.0, None, [1]):
        doc["weights"][1]["config"] = [1, bad]
        with pytest.raises(ValidationError) as exc:
            law_from_json(doc)
        assert str(exc.value) == "$.weights[1].config: expected an array of integers"


def test_removal_instance_roundtrip():
    sp = ExactProbabilitySpace.uniform((0, 1))
    lam = Coupling.diagonal(sp, 3)
    psi = {m: Partition.singletons(2) for m in ground_masks(3)}
    ups = UpSet.principal(3, range(3))
    inst = RemovalInstance(
        sp, lam, psi, tuple(((ups, frozenset({0})),) for _ in range(3))
    )
    back = removal_instance_from_json(removal_instance_to_json(inst))
    assert back == inst


def test_validate_good_and_bad_documents():
    sys_ = cyclic_system(3, 1)
    doc = system_to_json(sys_)
    assert validate_document(doc, "system") == []

    bad = json.loads(json.dumps(doc))
    bad["generators"] = [[1, 0, 2], [1, 2, 0]]
    bad["dim"] = 2
    diags = validate_document(bad, "system")
    assert diags and "commute" in diags[0]
    assert "0" in diags[0] and "1" in diags[0]  # names the offending pair

    off = json.loads(json.dumps(space_to_json(sys_.space)))
    off["weights"] = ["33/100", "33/100", "33/100"]
    diags = validate_document(off, "space")
    assert diags and "sum" in diags[0]


def test_validate_unknown_schema():
    assert validate_document({}, "nope")


def test_canonical_dumps_sorted_and_compact():
    s = canonical_dumps({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'


def test_subspace_roundtrip():
    from ergolab.hales_jewett import CombinatorialSubspace
    from ergolab.serialize import subspace_from_json, subspace_to_json

    s = CombinatorialSubspace(
        2, (2, 4), (frozenset({1, 2}), frozenset({4})), "1121"
    )
    doc = subspace_to_json(s)
    assert doc == {"N": [2, 4], "I": [[1, 2], [4]], "w": "1121"}
    assert subspace_from_json(doc, 2) == s
    with pytest.raises(ValidationError):
        subspace_from_json({"N": [2], "I": [[]], "w": "11"}, 2)


def test_correspondence_json_shape():
    from ergolab.serialize import correspondence_to_json

    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    doc = correspondence_to_json(cm)
    assert doc["k"] == 2 and doc["L"] == 1
    assert {tuple(e["config"]) for e in doc["mass"]} == {(0, 1), (1, 0)}


# -- locked diagnostics ---------------------------------------------------------

_SP2 = {"points": [0, 1], "weights": ["1/2", "1/2"]}
_SP3 = {"points": [0, 1, 2], "weights": ["1/3", "1/3", "1/3"]}
_CYCLE = [1, 2, 0]
_SWAP = [1, 0, 2]
_MASKS = ([0, 1], [0, 2], [1, 2], [0, 1, 2])


def _system_doc(gens, space=_SP3, dim=None):
    return {"dim": len(gens) if dim is None else dim, "space": space, "generators": gens}


def _law_doc(entries):
    return {
        "k": 2,
        "depth": 1,
        "carrier": _SP2,
        "weights": [{"config": c, "value": v} for c, v in entries],
    }


def _coupling_doc(entries, arity=2, base=_SP2):
    doc = {"arity": arity, "mass": [{"tuple": t, "value": v} for t, v in entries]}
    if base is not None:
        doc["base"] = base
    return doc


def _instance_doc(partition=((0,), (1,)), masks=_MASKS, members=((0, 1, 2),), coords=3, aset=(0,)):
    return {
        "space": _SP2,
        "coupling": _coupling_doc(
            [([0, 0, 0], "1/2"), ([1, 1, 1], "1/2")], arity=3, base=None
        ),
        "psi": [{"set": m, "partition": [list(b) for b in partition]} for m in masks],
        "families": [
            [{"upset": {"d": 3, "members": [list(s) for s in members]}, "set": list(aset)}]
            for _ in range(coords)
        ],
    }


_LOCKED_DIAGNOSTICS = [
    ("system", _system_doc([[0, 1, 1]]), "$.generators[0]: not a permutation of the points"),
    ("system", _system_doc([_CYCLE, [0, 1]]), "$.generators[1]: not a permutation of the points"),
    (
        "system",
        _system_doc([_SWAP], space={"points": [0, 1, 2], "weights": ["1/2", "1/4", "1/4"]}),
        "$.generators[0]: weight not preserved at point 0",
    ),
    ("system", _system_doc([_CYCLE, _SWAP]), "$.generators: generators 0 and 1 do not commute"),
    ("system", _system_doc([_CYCLE, _CYCLE, _SWAP]), "$.generators: generators 0 and 2 do not commute"),
    ("system", _system_doc([_CYCLE], dim=2), "$.dim: dim must equal the number of generators"),
    (
        "law",
        _law_doc([([0, 0], "1/2"), ([1, "1"], "1/2")]),
        "$.weights[1].config: expected an array of integers",
    ),
    (
        "law",
        _law_doc([([0, 0], "1/2"), ([1, 1], "one half")]),
        "$.weights[1].value: bad rational 'one half': Invalid literal for Fraction: 'one half'",
    ),
    ("law", _law_doc([([0, 0], "1/2"), ([1, 1], "1/3")]), "$: total mass must be exactly 1"),
    (
        "law",
        _law_doc([([0, 0], "1/2"), ([1, 2], "1/2")]),
        "$: configurations must index the carrier at every word",
    ),
    ("coupling", _coupling_doc([([0, 0], "1/2"), ([1], "1/2")]), "$: tuple length must equal the arity"),
    ("coupling", _coupling_doc([([0, 0], "1/2"), ([1, 2], "1/2")]), "$: tuple entry out of range"),
    ("coupling", _coupling_doc([([0, 0], "1/2"), ([1, 1], "1/3")]), "$: total mass must be exactly 1"),
    (
        "coupling",
        _coupling_doc([([0, 0], "1/2"), ([0, 1], "1/2")]),
        "$: coordinate 0 marginal differs from the base weights",
    ),
    (
        "coupling",
        _coupling_doc([([0, 0], "1/2"), ([1, 1], "-1/2"), ([1, 0], "1/2")]),
        "$: masses must be nonnegative",
    ),
    ("coupling", _coupling_doc([([0, 0], "1")], arity=0), "$.arity: arity must be a positive integer"),
    (
        "coupling",
        _coupling_doc([([0, 0], "1/2"), ([1, "x"], "1/2")]),
        "$.mass[1].tuple: expected an array of integers",
    ),
    (
        "instance",
        _instance_doc(partition=((0,), (0, 1))),
        "$.psi[0].partition: blocks must be pairwise disjoint",
    ),
    ("instance", _instance_doc(partition=((0,),)), "$.psi[0].partition: blocks must cover every point"),
    (
        "instance",
        _instance_doc(partition=((0,), (2,))),
        "$.psi[0].partition: point index 2 out of range",
    ),
    (
        "instance",
        _instance_doc(masks=_MASKS[:3]),
        "$: psi must be defined exactly on the index sets of size >= 2",
    ),
    (
        "instance",
        _instance_doc(members=((0, 1),)),
        "$.families[0][0].upset: family is not upward closed",
    ),
    (
        "instance",
        _instance_doc(members=((0,),)),
        "$.families[0][0].upset: members must have size at least 2",
    ),
    ("instance", _instance_doc(coords=2), "$: need one family of target sets per coordinate"),
    (
        "instance",
        _instance_doc(aset=("a",)),
        "$.families[0][0].set: expected an array of integers",
    ),
    # The weights of a system: the first bad entry names its own index even
    # when its string repeats, signs and total are checked in that order, and
    # preservation compares values, not strings.
    (
        "system",
        _system_doc([[0, 1, 2, 3]], space={"points": [0, 1, 2, 3], "weights": ["1/2", "1/x", "1/2", "1/x"]}),
        "$.space.weights[1]: bad rational '1/x': Invalid literal for Fraction: '1/x'",
    ),
    (
        "system",
        _system_doc([_CYCLE], space={"points": [0, 1, 2], "weights": ["1/3", 0.5, "1/6"]}),
        "$.space.weights[1]: expected a rational string, got float",
    ),
    (
        "system",
        _system_doc([_CYCLE], space={"points": [0, 1, 2], "weights": ["1/3", "1/3", True]}),
        "$.space.weights[2]: expected a rational string, got bool",
    ),
    (
        "system",
        _system_doc([_CYCLE], space={"points": [0, 1, 2], "weights": ["1", "-1/2", "1/2"]}),
        "$.space: weights must be nonnegative",
    ),
    (
        "system",
        _system_doc([_CYCLE], space={"points": [0, 1, 2], "weights": ["1/3", "1/3", "1/2"]}),
        "$.space: weights must sum to exactly 1",
    ),
    (
        "system",
        _system_doc([[0, 2, 1]], space={"points": [0, 1, 2], "weights": ["1/6", "1/2", "1/3"]}),
        "$.generators[0]: weight not preserved at point 1",
    ),
    (
        "system",
        _system_doc(
            [[0, 1, 2], [1, 0, 2], [0, 2, 1]],
            space={"points": [0, 1, 2], "weights": ["1/3", "2/6", "1/3"]},
        ),
        "$.generators: generators 1 and 2 do not commute",
    ),
]


# Documents that used to pass validation, or that crashed it, and the
# diagnostic that now names each fault.
_NEW_DIAGNOSTICS = [
    (
        "coupling",
        _coupling_doc([([0, 1], "1/2"), ([0, 2], "1/2")], base=None),
        "$: coordinate 1 marginal differs from the base weights",
    ),
    ("coupling", _coupling_doc([([-1, -1], "1")], base=None), "$: tuple entry out of range"),
    (
        "coupling",
        _coupling_doc([([0, 0], "1/2"), ([1, -1], "1/2")], base=None),
        "$: tuple entry out of range",
    ),
    ("sequence", {"entries": [["1", "2"], ["3"]]}, "$.entries: vectors must share one dimension"),
    (
        "system",
        _system_doc([_CYCLE], space={"points": [{"a": 1}, {"b": 2}, 3], "weights": ["1/3"] * 3}),
        "$.space.points[0]: a point label cannot be an object",
    ),
    (
        "system",
        _system_doc([_CYCLE], space={"points": [0, [1, {"b": 2}], 3], "weights": ["1/3"] * 3}),
        "$.space.points[1]: a point label cannot be an object",
    ),
    (
        "joint",
        {"joining": _system_doc([_CYCLE]), "targets": [], "maps": [], "subgroups": 5},
        "$.subgroups: expected an array",
    ),
]


# JSON booleans where a scalar integer belongs; their ids are prefixed, so
# that no earlier row's id changes.
_BOOLEAN_DIAGNOSTICS = [
    (
        "coupling",
        {"arity": True, "mass": [{"tuple": [0], "value": "1"}]},
        "$.arity: arity must be a positive integer",
    ),
    ("system", _system_doc([_CYCLE], dim=True), "$.dim: dim must equal the number of generators"),
    ("law", {**_law_doc([([0, 0], "1")]), "depth": True}, "$: k and depth must be integers"),
    (
        "law",
        _law_doc([([0, 0], "1/2"), ([1, 1], True)]),
        "$.weights[1].value: expected a rational string, got bool",
    ),
]


def _edited(doc, *keys, value):
    """A deep copy of ``doc`` with the value at ``keys`` replaced."""
    out = json.loads(json.dumps(doc))
    inner = out
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return out


_JOINT = {
    "joining": _system_doc([_CYCLE]),
    "targets": [_system_doc([_CYCLE])],
    "maps": [[0, 1, 2]],
    "subgroups": [{"vectors": []}],
}


# Shape errors, each at the depth of the value that has the wrong shape;
# their ids are prefixed, so that no earlier row's id changes.
_SHAPE_DIAGNOSTICS = [
    ("system", _system_doc([_CYCLE], space=5), "$.space: expected an object"),
    (
        "instance",
        _edited(_instance_doc(), "psi", 0, value={"set": [0, 1]}),
        "$.psi[0]: missing key 'partition'",
    ),
    (
        "law",
        {**_law_doc([([0, 0], "1")]), "carrier": {"points": [0, 1], "weights": "1/2"}},
        "$.carrier: points and weights must be arrays",
    ),
    (
        "instance",
        _edited(_instance_doc(), "psi", 0, "partition", value=5),
        "$.psi[0].partition: expected an array of blocks",
    ),
    (
        "joint",
        _edited(_JOINT, "targets", 0, "generators", value=5),
        "$.targets[0].generators: expected an array",
    ),
    ("joint", {**_JOINT, "lambda": {"vectors": 5}}, "$.lambda.vectors: expected an array"),
    ("rotation", {"orders": [2], "phi": 5}, "$.phi: expected an array"),
    ("instance", _edited(_instance_doc(), "psi", value=5), "$.psi: expected an array"),
    (
        "instance",
        _edited(_instance_doc(), "families", value=5),
        "$.families: expected an array",
    ),
    (
        "instance",
        _edited(_instance_doc(), "families", 1, value=5),
        "$.families[1]: expected an array",
    ),
    (
        "instance",
        _edited(_instance_doc(), "families", 0, 0, "upset", "members", value=5),
        "$.families[0][0].upset.members: expected an array",
    ),
    ("joint", {**_JOINT, "targets": 5}, "$: targets and maps must be arrays"),
    ("joint", {**_JOINT, "subgroups": []}, "$: targets, maps, and subgroups must align"),
    ("law", {**_law_doc([]), "weights": 5}, "$.weights: expected an array"),
    ("coupling", {**_coupling_doc([]), "mass": 5}, "$.mass: expected an array"),
    (
        "instance",
        _edited(_instance_doc(), "coupling", "mass", value=5),
        "$.coupling.mass: expected an array",
    ),
    (
        "law",
        _edited(_law_doc([([0, 0], "1/2"), ([1, 1], "1/2")]), "weights", 1, value=5),
        "$.weights[1]: expected an object",
    ),
    (
        "law",
        _edited(_law_doc([([0, 0], "1")]), "weights", 0, value={"config": [0, 0]}),
        "$.weights[0]: missing key 'value'",
    ),
    (
        "coupling",
        _edited(_coupling_doc([([0, 0], "1")]), "mass", 0, value={"value": "1"}),
        "$.mass[0]: missing key 'tuple'",
    ),
]


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


@pytest.mark.parametrize(
    "schema, doc, expected",
    _LOCKED_DIAGNOSTICS + _NEW_DIAGNOSTICS + _BOOLEAN_DIAGNOSTICS + _SHAPE_DIAGNOSTICS,
    ids=[_slug(f"{s} {e}") for s, _, e in _LOCKED_DIAGNOSTICS + _NEW_DIAGNOSTICS]
    + [_slug(f"boolean {s} {e}") for s, _, e in _BOOLEAN_DIAGNOSTICS]
    + [_slug(f"shape {s} {e}") for s, _, e in _SHAPE_DIAGNOSTICS],
)
def test_validate_reports_the_locked_diagnostic(schema, doc, expected):
    assert validate_document(doc, schema) == [expected]


# Readers called on the value they read; no schema reaches the function and
# subspace readers.
_READER_DIAGNOSTICS = [
    ("function_from_json", (), 5, "$: expected an array of rationals"),
    (
        "function_from_json",
        (),
        ["1", "x"],
        "$[1]: bad rational 'x': Invalid literal for Fraction: 'x'",
    ),
    ("subspace_from_json", (2,), {"N": [1], "I": 5, "w": "1"}, "$.I: expected an array"),
    ("subspace_from_json", (2,), {"N": [1], "I": [[1]], "w": 5}, "$.w: expected a word string"),
    ("partition_from_json", (2,), [[0], [1, "x"]], "$[1]: expected an array of integers"),
    (
        "upset_from_json",
        (),
        {"d": 2, "members": [[0, 1], 5]},
        "$.members[1]: expected an array of integers",
    ),
    ("upset_from_json", (), {"d": 2, "members": [[0, 2]]}, "$.members[0]: coordinate index 2 out of range"),
]


@pytest.mark.parametrize(
    "reader, args, doc, expected",
    _READER_DIAGNOSTICS,
    ids=[_slug(f"{r} {e}") for r, _, _, e in _READER_DIAGNOSTICS],
)
def test_readers_report_the_locked_diagnostic(reader, args, doc, expected):
    from ergolab import serialize

    with pytest.raises(ValidationError) as exc:
        getattr(serialize, reader)(doc, *args)
    assert str(exc.value) == expected


# Indices that name no coordinate or no point: a coordinate index that is
# negative or not below the coupling's arity is refused at its array, before
# it becomes a bitmask, and a target set may hold only points.
_INDEX_DIAGNOSTICS = [
    (
        _edited(_instance_doc(), "psi", 1, "set", value=[0, -2]),
        "$.psi[1].set: expected an array of nonnegative integers",
    ),
    (
        _instance_doc(members=((0, 1, 2), (-1, 0, 1, 2))),
        "$.families[0][0].upset.members[1]: expected an array of nonnegative integers",
    ),
    (_instance_doc(aset=(0, 7)), "$: family 0: a target set holds a point index out of range"),
    (_instance_doc(aset=(-1,)), "$: family 0: a target set holds a point index out of range"),
    (
        _edited(_instance_doc(), "psi", 1, "set", value=[0, 3]),
        "$.psi[1].set: coordinate index 3 out of range",
    ),
    (
        _instance_doc(members=((0, 1, 2), (0, 1, 2, 3))),
        "$.families[0][0].upset.members[1]: coordinate index 3 out of range",
    ),
]


@pytest.mark.parametrize(
    "doc, expected",
    _INDEX_DIAGNOSTICS,
    ids=[
        "psi-set-negative",
        "upset-member-negative",
        "target-past-the-points",
        "target-negative",
        "psi-set-past-the-coordinates",
        "upset-member-past-the-coordinates",
    ],
)
def test_instances_refuse_indices_outside_their_range(doc, expected):
    assert validate_document(doc, "instance") == [expected]


def test_a_large_coordinate_index_allocates_nothing():
    # The bitmask of index 10**7 would take 1.25 MB; the index is refused
    # before any bit is set.
    import tracemalloc

    doc = _edited(_instance_doc(), "psi", 1, "set", value=[0, 10**7])
    tracemalloc.start()
    try:
        diagnostics = validate_document(doc, "instance")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diagnostics == ["$.psi[1].set: coordinate index 10000000 out of range"]
    assert peak < 2**18


# Base-less couplings: the wire rules, then the constructor's checks
# against the implied base.
_BASELESS_DIAGNOSTICS = [
    ([([0, 0], "1/2"), ([1], "1/2")], "$: tuple length must equal the arity"),
    ([([0, 0], "1/2"), ([1, 1], "1/3")], "$: total mass must be exactly 1"),
    ([], "$: total mass must be exactly 1"),
    ([([1, 1], "1/2"), ([0, 0], "1/2")], "$.mass[1].tuple: tuples must be sorted and distinct"),
    ([([0, 0], "1/2"), ([0, 0], "1/2")], "$.mass[1].tuple: tuples must be sorted and distinct"),
    ([([0, 0], "1/2"), ([1, 1], "0")], "$.mass[1].value: stored masses must be positive"),
    ([([0, 0], "1/2"), ([1, "1"], "1/2")], "$.mass[1].tuple: expected an array of integers"),
]


@pytest.mark.parametrize(
    "entries, expected", _BASELESS_DIAGNOSTICS, ids=[_slug(e) for _, e in _BASELESS_DIAGNOSTICS]
)
def test_baseless_coupling_diagnostics(entries, expected):
    assert validate_document(_coupling_doc(entries, base=None), "coupling") == [expected]


def test_upset_dimension_refuses_a_boolean():
    from ergolab.serialize import upset_from_json

    with pytest.raises(ValidationError) as exc:
        upset_from_json({"d": True, "members": [[0]]})
    assert str(exc.value) == "$.d: expected an integer"


def test_couplings_with_a_base_keep_the_wire_rules():
    # A coupling of its base whose tuples are unsorted and repeated, with a
    # zero mass: the constructor accepts the masses, the wire rules do not.
    doc = _coupling_doc(
        [([1, 1], "1/2"), ([0, 0], "1/4"), ([0, 0], "1/4"), ([0, 1], "0")], base=_SP2
    )
    assert validate_document(doc, "coupling") == [
        "$.mass[1].tuple: tuples must be sorted and distinct"
    ]
    doc = _coupling_doc([([0, 0], "1/2"), ([0, 1], "0"), ([1, 1], "1/2")], base=_SP2)
    assert validate_document(doc, "coupling") == [
        "$.mass[1].value: stored masses must be positive"
    ]
    # The coupling of a removal instance is read over the instance space.
    coupling = _coupling_doc(
        [([0, 0, 0], "1/2"), ([0, 0, 1], "0"), ([1, 1, 1], "1/2")], arity=3, base=None
    )
    inst = _edited(_instance_doc(), "coupling", value=coupling)
    with pytest.raises(ValidationError) as exc:
        removal_instance_from_json(inst)
    assert str(exc.value) == "$.coupling.mass[1].value: stored masses must be positive"


def test_couplings_with_a_base_report_the_first_broken_wire_rule_last():
    # One parse: a later malformed entry still wins over an earlier broken
    # wire rule, the constructor's error wins over it too, and of two broken
    # wire rules the first is reported.
    doc = _coupling_doc([([0, 1], "1/2"), ([0, 0], "1/4"), (["x"], "1/4")], base=_SP2)
    assert validate_document(doc, "coupling") == [
        "$.mass[2].tuple: expected an array of integers"
    ]
    doc = _coupling_doc([([1, 1], "1/2"), ([0, 0], "1/4"), ([0, 1], "0")], base=_SP2)
    assert validate_document(doc, "coupling") == ["$: total mass must be exactly 1"]
    doc = _coupling_doc(
        [([1, 1], "1/2"), ([0, 0], "1/4"), ([0, 1], "0"), ([0, 0], "1/4")], base=_SP2
    )
    assert validate_document(doc, "coupling") == [
        "$.mass[1].tuple: tuples must be sorted and distinct"
    ]


def test_baseless_couplings_that_are_couplings_pass():
    for entries in (
        [([0, 0], "1/2"), ([1, 1], "1/2")],
        [([0, 1], "1/2"), ([1, 0], "1/2")],
        # Points 1 and 2 are unused: zero weight in the implied base.
        [([0, 3], "1/4"), ([3, 0], "1/4"), ([3, 3], "1/2")],
        # A huge index is renumbered, not allocated.
        [([0, 10**12], "1/2"), ([10**12, 0], "1/2")],
    ):
        assert validate_document(_coupling_doc(entries, base=None), "coupling") == []


def test_parse_errors_are_not_wrapped_in_the_document_path():
    with pytest.raises(ValidationError) as exc:
        rotation_from_json({"orders": [2], "phi": [["a"]]})
    assert str(exc.value) == "$.phi[0]: expected an array of integers"
    assert validate_document({"orders": [2], "phi": [["a"]]}, "rotation") == [
        "$.phi[0]: expected an array of integers"
    ]
    from ergolab.serialize import subspace_from_json

    with pytest.raises(ValidationError) as exc:
        subspace_from_json({"N": [1], "I": [["x"]], "w": "1"}, 2)
    assert str(exc.value) == "$.I[0]: expected an array of integers"


def test_constructor_errors_get_the_enclosing_path():
    sys_doc = _system_doc([_CYCLE, _SWAP])
    joint = {"joining": sys_doc, "targets": [], "maps": [], "subgroups": []}
    assert validate_document(joint, "joint") == [
        "$.joining.generators: generators 0 and 1 do not commute"
    ]
    joint["lambda"] = {"vectors": [[1, 0], [1]]}
    joint["joining"] = _system_doc([_CYCLE])
    assert validate_document(joint, "joint") == [
        "$.lambda: generator vectors must share one dimension"
    ]
    with pytest.raises(ValidationError) as exc:
        subgroup_from_json({"vectors": [[1, 0], [1]]})
    assert str(exc.value.within("lambda")) == (
        "$.lambda: generator vectors must share one dimension"
    )


def test_within_places_an_error_inside_the_value_at_its_keys():
    exc = ValidationError(["vectors", 1], "expected an array of integers")
    assert exc.within("lambda") is exc
    assert exc.within("joint", 0) is exc
    assert exc.path == ["joint", 0, "lambda", "vectors", 1]
    assert exc.message == "expected an array of integers"
    assert str(exc) == "$.joint[0].lambda.vectors[1]: expected an array of integers"
    assert str(ValidationError((), "bad").within()) == "$: bad"


def test_sequence_from_json_builds_the_sequence():
    from ergolab.averages import VectorSequence
    from ergolab.serialize import sequence_from_json

    seq = sequence_from_json({"entries": [["1/2", 1], ["0", "2"]]})
    assert seq == VectorSequence(((F(1, 2), F(1)), (F(0), F(2))))
    for entries, expected in (
        ([], "$.entries: sequence must be nonempty"),
        (5, "$.entries: expected an array"),
        ([["1"], "2"], "$.entries[1]: expected an array"),
    ):
        assert validate_document({"entries": entries}, "sequence") == [expected]


# -- the batched mass-table read against the located reader --------------------

def _mass_table_documents():
    """Clean law, coupling and baseless coupling documents, each with its
    reader, the former reader, and the key and field of its mass table."""
    from ergolab.averages import furstenberg_self_joining
    from ergolab.hales_jewett import constant_law
    from ergolab.serialize import _coupling_document_check

    from helpers import old_baseless_coupling, old_coupling_from_json, old_law_from_json

    two = ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3)))
    three = ExactProbabilitySpace((0, 1, 2), (F(1, 6), F(1, 3), F(1, 2)))
    laws = [iid_law(2, 2, two), iid_law(3, 1, three), constant_law(2, 2, three)]
    couplings = [
        furstenberg_self_joining(torus_system(3, (1, 0), (0, 1))).coupling,
        Coupling.product(three, 2),
        Coupling.diagonal(three, 3),
    ]
    out = [(law_to_json(law), law_from_json, old_law_from_json, "weights", "config")
           for law in laws]
    for c in couplings:
        out.append((coupling_to_json(c), coupling_from_json, old_coupling_from_json, "mass", "tuple"))
        out.append((
            coupling_to_json(c, include_base=False),
            _coupling_document_check,
            old_baseless_coupling,
            "mass",
            "tuple",
        ))
    return out


_BAD_INDICES = (True, False, 1.0, "1", None, [0], [], 10**18, -1)
_BAD_VALUES = ("1/x", "abc", "1/0", "0", "-1/4", "0.5x", 0.5, True, None, 1, ["1/2"])
_NON_OBJECTS = ([0, 1], "x", 3, None)
_NON_LISTS = ("01", {}, 5, None)


_KINDS = (
    "index", "value", "missing", "non-object", "field", "duplicate", "unsorted",
    "total", "length", "wire-and-constructor", "equal", "split",
)
# Mutations that keep a law valid (a coupling's wire rules may break).
_BENIGN = ("unsorted", "equal", "split")


def _mutate(rng, entries, field, kinds):
    """Apply one seeded mutation of ``kinds`` to the array ``entries``;
    return its kind."""
    kind = rng.choice(kinds)
    i = rng.randrange(len(entries))
    entry = entries[i]
    obj = type(entry) is dict
    if kind == "index" and obj and type(entry.get(field)) is list and entry[field]:
        entry[field][rng.randrange(len(entry[field]))] = copy.deepcopy(rng.choice(_BAD_INDICES))
    elif kind == "value" and obj:
        entry["value"] = copy.deepcopy(rng.choice(_BAD_VALUES))
    elif kind == "missing" and obj:
        entry.pop(rng.choice((field, "value")), None)
    elif kind == "non-object":
        entries[i] = copy.deepcopy(rng.choice(_NON_OBJECTS))
    elif kind == "field" and obj:
        entry[field] = copy.deepcopy(rng.choice(_NON_LISTS))
    elif kind == "duplicate":
        entries.insert(rng.randrange(len(entries) + 1), copy.deepcopy(entry))
    elif kind in ("unsorted", "wire-and-constructor"):
        j = rng.randrange(len(entries))
        entries[i], entries[j] = entries[j], entries[i]
        if kind == "wire-and-constructor" and obj:
            entry["value"] = rng.choice(("1/7", "1/2", "3"))  # the total is no longer 1
    elif kind == "total" and obj:
        entry["value"] = rng.choice(("1/7", "1/2", "3"))
    elif kind == "length" and obj and type(entry.get(field)) is list:
        entry[field].append(0)
    elif kind == "equal" and obj and type(entry.get("value")) is str:
        # The same law or coupling: an unreduced value and boolean indices.
        q = parse_fraction(entry["value"])
        entry["value"] = f"{2 * q.numerator}/{2 * q.denominator}"
        if type(entry.get(field)) is list:
            entry[field] = [bool(c) if c in (0, 1) else c for c in entry[field]]
    elif kind == "split" and obj and type(entry.get("value")) is str:
        # Half the mass in a repeated entry: the same law, a broken wire rule.
        half = parse_fraction(entry["value"]) / 2
        entry["value"] = format_fraction(half)
        entries.insert(i + 1, dict(copy.deepcopy(entry), value=format_fraction(half)))
    return kind


def _outcome(read, doc):
    try:
        return read(doc)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def test_batched_mass_tables_match_the_located_reader():
    # Seeded mutants of law, coupling and baseless coupling documents: the
    # batched read builds the same object as the former entry-by-entry
    # reader, or raises the same error with the same text.
    rng = random.Random(24)
    documents = _mass_table_documents()
    kinds = Counter()
    built = failed = 0
    for m in range(600):
        doc, read, old_read, key, field = rng.choice(documents)
        doc = copy.deepcopy(doc)
        for _ in range(rng.randint(1, 3)):
            kinds[_mutate(rng, doc[key], field, _BENIGN if m % 4 == 0 else _KINDS)] += 1
        expected = _outcome(old_read, doc)
        assert _outcome(read, doc) == expected, doc
        if isinstance(expected, tuple):
            failed += 1
        else:
            built += 1
    assert len(kinds) == 12 and min(kinds.values()) >= 40
    assert built >= 40 and failed >= 200


def test_a_float_index_equal_to_an_int_is_refused_at_its_entry():
    # 1.0 == 1 and hashes alike, so only a typed read of every key entry
    # tells the documents apart; a baseless coupling renumbers its points
    # before ``Coupling`` reads them.
    entries = [([0, 0], "1/2"), ([1, 1.0], "1/2")]
    for doc in (_coupling_doc(entries, base=None), _coupling_doc(entries, base=_SP2)):
        assert validate_document(doc, "coupling") == [
            "$.mass[1].tuple: expected an array of integers"
        ]


def test_clean_mass_tables_skip_the_located_reader(monkeypatch):
    from ergolab import serialize

    documents = _mass_table_documents()
    expected = [read(doc) for doc, read, *_ in documents]

    def located(*args, **kwargs):
        raise AssertionError("a clean document reached the located reader")

    monkeypatch.setattr(serialize, "_entries", located)
    assert [read(doc) for doc, read, *_ in documents] == expected
