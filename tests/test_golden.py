"""Golden stdout digests of CLI commands on fixed inputs and seeds.

Reports are canonical JSON, so a command's stdout is a pure function of its
inputs.  Each digest below is the sha256 of one command's stdout as first
recorded; a change that alters any byte of any report fails here.  When a
report is meant to change, record the new digest and say why in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from itertools import product as iter_product

import pytest

from helpers import (
    basis_subgroup,
    full_orbit_partition,
    quotient_system,
    three_direction_torus,
    torus_system,
)

from ergolab.cli import main
from ergolab.serialize import subgroup_to_json, system_to_json

Z3 = {"dim": 2, "generators": [[1, 2, 0], [2, 0, 1]],
      "space": {"points": [0, 1, 2], "weights": ["1/3", "1/3", "1/3"]}}
Z4 = {"dim": 2, "generators": [[1, 2, 3, 0], [2, 3, 0, 1]],
      "space": {"points": [0, 1, 2, 3], "weights": ["1/4", "1/4", "1/4", "1/4"]}}
# Three commuting directions on two orbits of unequal weight, {0, 1, 2} and
# {3, 4}, plus the null points 5 and 6, which the second direction swaps.
# The set [0, 3, 5] first returns at n = 2 and holds a null point.
W3 = {"dim": 3,
      "generators": [[1, 2, 0, 4, 3, 5, 6], [2, 0, 1, 3, 4, 6, 5], [0, 1, 2, 4, 3, 5, 6]],
      "space": {"points": [0, 1, 2, 3, 4, 5, 6],
                "weights": ["1/6", "1/6", "1/6", "1/4", "1/4", "0", "0"]}}
# Shaped like a generated system: labels ``[component, [coordinates]]``, a
# rotation of Z_4, a fixed point and two swapped null points, with weights
# repeated, unreduced or written as "0/1".
LABELLED = {"dim": 2,
            "generators": [[1, 2, 3, 0, 4, 6, 5], [2, 3, 0, 1, 4, 5, 6]],
            "space": {"points": [[0, [0]], [0, [1]], [0, [2]], [0, [3]], [1, [0]],
                                 [2, [0]], [2, [1]]],
                      "weights": ["1/8", "1/8", "2/16", "1/8", "2/4", "0/1", "0/1"]}}
FUNCTIONS = [["1", "0", "1/2"], ["2/3", "1", "0"]]
SEQUENCE = {"entries": [[str(Fraction((-1) ** i * (i + 1), 3)), "1/2"] for i in range(12)]}


def _iid_law(depth: int, p: Fraction) -> dict:
    """The iid law over two letters and a p-(1 - p) carrier."""
    width = sum(2**n for n in range(1, depth + 1))
    return {
        "k": 2,
        "depth": depth,
        "carrier": {"points": [0, 1], "weights": [str(p), str(1 - p)]},
        "weights": [
            {"config": list(c), "value": str(p ** c.count(0) * (1 - p) ** c.count(1))}
            for c in iter_product((0, 1), repeat=width)
        ],
    }


# The iid law of depth 2 over a 2/5-3/5 carrier: six words, 64 configurations.
IID_LAW = _iid_law(2, Fraction(2, 5))
# Depth 3 over a 1/3-2/3 carrier: 14 words, 16,384 configurations.
IID_LAW_3 = _iid_law(3, Fraction(1, 3))
PSI = [{"partition": [[0], [1]], "set": s} for s in ([0, 1], [0, 2], [1, 2], [0, 1, 2])]
FULL = {"d": 3, "members": [[0, 1, 2]]}
REMOVAL_OK = {
    "space": {"points": [0, 1], "weights": ["1/2", "1/2"]},
    "coupling": {"arity": 3, "mass": [{"tuple": [0, 0, 0], "value": "1/2"},
                                      {"tuple": [1, 1, 1], "value": "1/2"}]},
    "psi": PSI,
    "families": [[{"set": s, "upset": FULL}] for s in ([0], [1], [0, 1])],
}
# The product coupling breaks hypothesis [ii]; the report carries its witness.
REMOVAL_UNIDENTIFIED = {
    **REMOVAL_OK,
    "coupling": {"arity": 3, "mass": [{"tuple": list(t), "value": "1/8"}
                                      for t in iter_product((0, 1), repeat=3)]},
    "families": [[{"set": [0, 1], "upset": FULL}]] * 3,
}
# The diagonal coupling on four uniform points, singletons on the pairs and
# {0, 1}, {2, 3} on the full index set: hypotheses [i] and [ii] hold and
# [iii] fails, so the report carries its up-set pair and kernel witness.
REMOVAL_DEPENDENT = {
    "space": {"points": [0, 1, 2, 3], "weights": ["1/4"] * 4},
    "coupling": {"arity": 3, "mass": [{"tuple": [x] * 3, "value": "1/4"} for x in range(4)]},
    "psi": [{"partition": [[0], [1], [2], [3]], "set": s} for s in ([0, 1], [0, 2], [1, 2])]
    + [{"partition": [[0, 1], [2, 3]], "set": [0, 1, 2]}],
    "families": [[{"set": [0, 1, 2, 3], "upset": FULL}]] * 3,
}


def _joint_instance(sys_) -> dict:
    """The joining ``sys_`` with its quotients by the orbits of each basis
    direction, the basis subgroups and an empty ``lambda``."""
    gs = [basis_subgroup(sys_.dim, i) for i in range(sys_.dim)]
    quotients = [quotient_system(sys_, full_orbit_partition(sys_, g)) for g in gs]
    return {
        "joining": system_to_json(sys_),
        "targets": [system_to_json(target) for target, _ in quotients],
        "maps": [list(pi.point_map) for _, pi in quotients],
        "subgroups": [subgroup_to_json(g) for g in gs],
        "lambda": {"vectors": []},
    }


# The 2-direction torus on (Z_3)^2 holds; the 3-direction torus on (Z_3)^2
# fails at every coordinate, each with its kernel witness.
JOINT_TORUS = _joint_instance(torus_system(3, (1, 0), (0, 1)))
JOINT_THREE_DIRECTIONS = _joint_instance(three_direction_torus(3))

# Z_6 with the images 2 and 3: ergodic, and the join of its two quotients.
# Z_4 with the image 2 twice generates only {0, 2}, so it has no extension.
ROTATION_Z6 = {"orders": [6], "phi": [[2], [3]]}
ROTATION_Z4 = {"orders": [4], "phi": [[2], [2]]}
ROTATION_ONE_DIRECTION = {"orders": [5], "phi": [[1]]}

INPUTS = {
    "z3.json": Z3,
    "z4.json": Z4,
    "w3.json": W3,
    "labelled.json": LABELLED,
    "functions.json": FUNCTIONS,
    "seq.json": SEQUENCE,
    "law.json": IID_LAW,
    "law3.json": IID_LAW_3,
    "words.json": ["12", "21", "22"],
    "words3.json": ["112", "121", "211", "222"],
    "words33.json": ["113", "123", "213", "311", "322", "333", "132", "231"],
    "removal_ok.json": REMOVAL_OK,
    "removal_unidentified.json": REMOVAL_UNIDENTIFIED,
    "removal_dependent.json": REMOVAL_DEPENDENT,
    "joint_torus.json": JOINT_TORUS,
    "joint_three.json": JOINT_THREE_DIRECTIONS,
    "rotation_z6.json": ROTATION_Z6,
    "rotation_z4.json": ROTATION_Z4,
    "rotation_one.json": ROTATION_ONE_DIRECTION,
}

# name -> (argv with {dir} for the input directory, exit code, sha256 of stdout)
GOLDEN = {
    "removal-search-exhaustive": (
        ["removal", "search", "--sizes", "2", "-d", "3"], 0,
        "7d746e593b19eda38f67762a4429dd1f8ee1b07bdbb8f3e57e5b231fc3c4c9fb"),
    "removal-search-random": (
        ["removal", "search", "--sizes", "2,3,4", "-d", "3", "--random", "--samples", "20",
         "--seed", "7"], 2,
        "aa484d79e4c17c014ccf2e2d09e2134f0ba36d02e7b2f1d9593f7fa4aa50cee7"),
    "removal-check": (
        ["removal", "check", "--instance", "{dir}/removal_ok.json"], 0,
        "c87e6ca5c13a035cba661319b76489762a839254ae3c967f761e5d5592aa8af0"),
    "removal-check-unidentified": (
        ["removal", "check", "--instance", "{dir}/removal_unidentified.json"], 1,
        "f4975e93b8a71559ccfb9cf3c9cfd0d0c8e30967f03f163e6a8a2c608dff41d9"),
    "removal-check-dependent": (
        ["removal", "check", "--instance", "{dir}/removal_dependent.json"], 1,
        "f2224bad7cda15cd595f5254e9e42683b9701d04d95baf7486243ac9add543ec"),
    "fjoin": (
        ["fjoin", "--system", "{dir}/z4.json"], 0,
        "bf82a1725d405f6cdcfaa8747ad554b3ff2cfe981ca7be8d527731c780612f7a"),
    "recur": (
        ["recur", "--system", "{dir}/z4.json", "--set", "[0, 3]"], 0,
        "2d22b0169b0ac8cd825e500b1212860ff52a61d1fff70638932a42eb089a6bf5"),
    "fjoin-w3": (
        ["fjoin", "--system", "{dir}/w3.json"], 0,
        "60ae3273b78ccf0b265c3655c383285fcd2c34d27d3446c408263f4ecd7bd868"),
    "fjoin-w3-directions": (
        ["fjoin", "--system", "{dir}/w3.json", "--directions", "0,2"], 0,
        "4daa1a9c825c85a09dbbb80761d56e42b8b7c77e3e365c6265aca1c351a6ed5c"),
    "recur-w3": (
        ["recur", "--system", "{dir}/w3.json", "--set", "[0, 3, 5]"], 0,
        "a596d746f975542b98c8d20ef0ab50850a7c52d5d3b8367c85975b8285b55501"),
    "fjoin-labelled": (
        ["fjoin", "--system", "{dir}/labelled.json"], 0,
        "eafa95e1f160cb61df2d002a288832f3974a8227242a9607f96ca4c03a200418"),
    "recur-labelled": (
        ["recur", "--system", "{dir}/labelled.json", "--set", "[0, 4, 5]"], 0,
        "056dee8e0c9f12acb4f143751fab7e8e4e56abb333c79a93ab56b19cf8d7afd8"),
    "validate-labelled": (
        ["validate", "--schema", "system", "{dir}/labelled.json"], 0,
        "33543ef21ac21c0f8c80a7f4c1ca9bdebca9f0ac241c2f01a27f65c51054b44c"),
    "avg": (
        ["avg", "--system", "{dir}/z3.json", "--functions", "{dir}/functions.json", "-N", "7"], 0,
        "f5c81a9b520675ae10a5c448d6ebb759ed98f74b5ce5151f1c16dbcc0f7cca63"),
    "vdc": (
        ["vdc", "--seq", "{dir}/seq.json", "-N", "6", "-H", "3"], 0,
        "65844b6b3411610e6bd5702dea02ec2417b9bfc81f2796affa90f6a72029a451"),
    "dhj-stationarity": (
        ["dhj", "stationarity", "--law", "{dir}/law.json"], 0,
        "efe9ecaec80199cd6e03f4ab481c3a4da5ab9c79886da5c8eac4e4829d4b55e4"),
    "dhj-stationarity-depth3": (
        ["dhj", "stationarity", "--law", "{dir}/law3.json"], 0,
        "d1d3c7dc6bd9d356112364889218fc0181bdd13c1327220cd65672108e65ebc4"),
    "dhj-maxfree": (
        ["dhj", "maxfree", "-k", "3", "-N", "3"], 0,
        "562e1011b0209fb4a6d0c9901cf39b28b1333b84656a40d8db839c66eec5fa9f"),
    "dhj-maxfree-budget": (
        ["dhj", "maxfree", "-k", "2", "-N", "6", "--budget", "20000"], 2,
        "b12a9614f64d25904c2801f1062d97d07b817c88c8f2e21a977cbc5663d8ff33"),
    "joint-torus": (
        ["joint", "--instance", "{dir}/joint_torus.json"], 0,
        "7b3ef3d5ad19521205f93506ffcc8552fc01e59c1c9a93c3324d378779cb51ae"),
    "joint-three-directions": (
        ["joint", "--instance", "{dir}/joint_three.json"], 1,
        "07e74e17242b1b5a3ea08783b3ea5c634393acb93315c4cd108bc1330b68529a"),
    "dhj-correspond": (
        ["dhj", "correspond", "--set", "{dir}/words.json", "-k", "2", "-N", "2", "-L", "1"], 0,
        "95e7f3e52dd4ceb3050fd7ac09ac91f5b8cb5437b3174c23c8b68af9439fca87"),
    "dhj-lines-3-2": (
        ["dhj", "lines", "-k", "3", "-N", "2"], 0,
        "b56ccfa0c077b693b89b2dc1c503ff3e903306b410ace54a41ef172df581fb08"),
    "dhj-lines-2-3": (
        ["dhj", "lines", "-k", "2", "-N", "3"], 0,
        "49156f9fc17a7fdfa9c9bcb4333870a68ae1ee59e270950c723ea076ce6bb482"),
    "dhj-correspond-L2": (
        ["dhj", "correspond", "--set", "{dir}/words3.json", "-k", "2", "-N", "3", "-L", "2"], 0,
        "d9ff4a84e3a971e3fbf0022ee722a26488880c8ac78375a4daf52ef9254a839f"),
    "dhj-correspond-k3-L2": (
        ["dhj", "correspond", "--set", "{dir}/words33.json", "-k", "3", "-N", "3", "-L", "2"], 0,
        "82635b406a922c85faca9d075e2ad9598cbc4a280e4cfe06f7aee792b4637d61"),
    "rotation": (
        ["rotation", "--rotation", "{dir}/rotation_z6.json"], 0,
        "23e24a71345cce481d1d0dea29bc20d2ce028c15183541910ce118698a05f791"),
    "rotation-extend": (
        ["rotation", "--rotation", "{dir}/rotation_z6.json", "--extend"], 0,
        "a87e44b84f71ec9f9d59e4b7b3ded42e62d609c12900fd2f3185b729e6c7b9e9"),
    "rotation-extend-not-ergodic": (
        ["rotation", "--rotation", "{dir}/rotation_z4.json", "--extend"], 3,
        "f927af91f6e9d842d2e0a7ae9bb1a74dfc7b6322301bcf74369af6838453e637"),
    "rotation-one-direction": (
        ["rotation", "--rotation", "{dir}/rotation_one.json"], 3,
        "a56a4905a4b972de15aa603bf161dd31e3f362c154ab0179c2338f6fd6f82ef6"),
}


def run_golden(directory) -> dict[str, tuple[int, str]]:
    """Write the inputs into ``directory`` and return each command's exit
    code and stdout digest."""
    for name, doc in INPUTS.items():
        with open(f"{directory}/{name}", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    out = {}
    for name, (argv, _, _) in GOLDEN.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main([a.format(dir=directory) for a in argv])
        out[name] = (code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(name, outputs):
    _, code, digest = GOLDEN[name]
    assert outputs[name] == (code, digest)
