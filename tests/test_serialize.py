"""Wire formats: round trips and diagnostics."""
from __future__ import annotations

import json
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
