"""Wire formats: round trips and diagnostics."""
from __future__ import annotations

import json
import re
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

    def counting(s, path=()):
        parsed.append(list(path))
        return real(s, path)

    monkeypatch.setattr(serialize, "parse_fraction", counting)
    law = law_from_json(doc)
    assert sum(p[0] == "weights" for p in parsed) == len(set(values))
    assert law_to_json(law) == doc


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


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


@pytest.mark.parametrize(
    "schema, doc, expected",
    _LOCKED_DIAGNOSTICS + _NEW_DIAGNOSTICS,
    ids=[_slug(f"{s} {e}") for s, _, e in _LOCKED_DIAGNOSTICS + _NEW_DIAGNOSTICS],
)
def test_validate_reports_the_locked_diagnostic(schema, doc, expected):
    assert validate_document(doc, schema) == [expected]


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
    with pytest.raises(ValidationError) as exc:
        subgroup_from_json({"vectors": [[1, 0], [1]]}, ["lambda"])
    assert str(exc.value) == "$.lambda: generator vectors must share one dimension"


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
