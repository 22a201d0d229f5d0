"""Golden stdout digests of CLI commands on fixed inputs and seeds.

Reports are canonical JSON, so a command's stdout is a pure function of its
inputs.  Each digest below is the sha256 of one command's stdout as first
recorded; a change that alters any byte of any report fails here.  When a
report is meant to change, record the new digest and say why in CHANGES.md.
A report's ``"digest"`` hashes each input file's bytes, so these digests
also pin how ``run_golden`` writes the inputs; ``MASKED`` pins every other
byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
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
        "a1e00abed2bd641d412b9e41849151f80ff09cd10d1611e1b432b0b1eef1d5e1"),
    "removal-check-unidentified": (
        ["removal", "check", "--instance", "{dir}/removal_unidentified.json"], 1,
        "9e010f06e66e499be2f0e536aee8f9e1cfbc6b235e3878d57cbc851971252cb5"),
    "removal-check-dependent": (
        ["removal", "check", "--instance", "{dir}/removal_dependent.json"], 1,
        "50a99660720e585f56d01465052b38d52398cdcf69711cbe670ca6e97d454db3"),
    "fjoin": (
        ["fjoin", "--system", "{dir}/z4.json"], 0,
        "e9f788a7760724cefca9978ce3b91dc7dd0dc26c0196e17409839f8659d64bf6"),
    "recur": (
        ["recur", "--system", "{dir}/z4.json", "--set", "[0, 3]"], 0,
        "7a99104d12dbb8c79f2ff6f8dc3e123f8d6203baecc4f11598ea5eeab3a98ebd"),
    "fjoin-w3": (
        ["fjoin", "--system", "{dir}/w3.json"], 0,
        "2791aa2b7a43748c62af91d5d94b8b7a95cb98d9bd924dc0a6f1523d21db5da8"),
    "fjoin-w3-directions": (
        ["fjoin", "--system", "{dir}/w3.json", "--directions", "0,2"], 0,
        "9e86874bafed9f74aefccc8b47d25260220e57ae1dfc7286a5b5df0a22788394"),
    "recur-w3": (
        ["recur", "--system", "{dir}/w3.json", "--set", "[0, 3, 5]"], 0,
        "48ffa0918f5f34ba2fdc7105e9319496ae827a03199c05869a0c5af4ac9e2b80"),
    "fjoin-labelled": (
        ["fjoin", "--system", "{dir}/labelled.json"], 0,
        "52b82f756f7ba83495bec31b43edbc060faafc127a31704af78550611c36ae48"),
    "recur-labelled": (
        ["recur", "--system", "{dir}/labelled.json", "--set", "[0, 4, 5]"], 0,
        "e4e60cf83d4573726cb5c6711941094d03886dcf6b52001b1daacafb9e040b72"),
    "validate-labelled": (
        ["validate", "--schema", "system", "{dir}/labelled.json"], 0,
        "ac5f723f330501a400d83222c7b9e66205cfe45ceb8c4f8038d68ed304ba892f"),
    "avg": (
        ["avg", "--system", "{dir}/z3.json", "--functions", "{dir}/functions.json", "-N", "7"], 0,
        "a96ca7706e238e3d91f3cfe98ffde46090612b9e6f02a5afcbc5c58e65dbd4e2"),
    "vdc": (
        ["vdc", "--seq", "{dir}/seq.json", "-N", "6", "-H", "3"], 0,
        "3ebe09cdbc2e1e8bda339965d7868033cb15dd12b7b49e7b4a4eaaad6bc8d39b"),
    "dhj-stationarity": (
        ["dhj", "stationarity", "--law", "{dir}/law.json"], 0,
        "09cc393a8c699fe495ed5e582291df4f889f056e93a521e477022534fc74ec2c"),
    "dhj-stationarity-depth3": (
        ["dhj", "stationarity", "--law", "{dir}/law3.json"], 0,
        "e6adbd699270d1dada54c0a67eb03d76f4c842457a848442df1d6b96fb8748c9"),
    "dhj-maxfree": (
        ["dhj", "maxfree", "-k", "3", "-N", "3"], 0,
        "562e1011b0209fb4a6d0c9901cf39b28b1333b84656a40d8db839c66eec5fa9f"),
    "dhj-maxfree-budget": (
        ["dhj", "maxfree", "-k", "2", "-N", "6", "--budget", "20000"], 2,
        "b12a9614f64d25904c2801f1062d97d07b817c88c8f2e21a977cbc5663d8ff33"),
    "joint-torus": (
        ["joint", "--instance", "{dir}/joint_torus.json"], 0,
        "296d37835117ba5eee9787f73589a93412fcae0c8c748e01c42db660cc87e7b9"),
    "joint-three-directions": (
        ["joint", "--instance", "{dir}/joint_three.json"], 1,
        "b355f0f33b2b31a6d406ee2438f6cb075e9bbe57636c6724e7282d70b366280e"),
    "dhj-correspond": (
        ["dhj", "correspond", "--set", "{dir}/words.json", "-k", "2", "-N", "2", "-L", "1"], 0,
        "26e7c5c6d8fa04283132eb9be2bc3ce219503b7b038e7168d82b27522d189dbf"),
    "dhj-lines-3-2": (
        ["dhj", "lines", "-k", "3", "-N", "2"], 0,
        "b56ccfa0c077b693b89b2dc1c503ff3e903306b410ace54a41ef172df581fb08"),
    "dhj-lines-2-3": (
        ["dhj", "lines", "-k", "2", "-N", "3"], 0,
        "49156f9fc17a7fdfa9c9bcb4333870a68ae1ee59e270950c723ea076ce6bb482"),
    "dhj-correspond-L2": (
        ["dhj", "correspond", "--set", "{dir}/words3.json", "-k", "2", "-N", "3", "-L", "2"], 0,
        "46cf84cd6317f5cf5e0a3d60d418ec1c3ffb5a3c173a3a76690ff5c6de7d0c22"),
    "dhj-correspond-k3-L2": (
        ["dhj", "correspond", "--set", "{dir}/words33.json", "-k", "3", "-N", "3", "-L", "2"], 0,
        "349299a272f821faf5e4540a333991ace51b6a28c34c995c996a5312a32aa152"),
    "rotation": (
        ["rotation", "--rotation", "{dir}/rotation_z6.json"], 0,
        "dee14a7795b53d6c2071ed0cc77296f18a3cbd93f82363557e8e4463424c5b71"),
    "rotation-extend": (
        ["rotation", "--rotation", "{dir}/rotation_z6.json", "--extend"], 0,
        "928817cf0002fd7d72a8b379a3eaead403e79a90a6b4ab729161ba476e716abd"),
    "rotation-extend-not-ergodic": (
        ["rotation", "--rotation", "{dir}/rotation_z4.json", "--extend"], 3,
        "f927af91f6e9d842d2e0a7ae9bb1a74dfc7b6322301bcf74369af6838453e637"),
    "rotation-one-direction": (
        ["rotation", "--rotation", "{dir}/rotation_one.json"], 3,
        "a56a4905a4b972de15aa603bf161dd31e3f362c154ab0179c2338f6fd6f82ef6"),
}

# name -> sha256 of the command's stdout with the 16 hex digits of its
# "digest" replaced by zeros.  This locks every byte of every report other
# than the input digest, so a change to what the digest hashes may move
# GOLDEN but not these.
MASKED = {
    "removal-search-exhaustive":
        "70dd0a7da87035571b88d380be46500aa2f251369ea3b925edf9f9dbd8128252",
    "removal-search-random":
        "be592cc0c47d56d21ef70aaf5b1fbf8711e85c831ffab3a5ab3b4361ca6ee646",
    "removal-check":
        "a81fd303ceb702c2250f01ba98289d7bde416ee5651840102145f5b458b0cdcc",
    "removal-check-unidentified":
        "dc8d86ed687be3d39848f70f76e8e0bcb16f2218df6657f33118a7694ca4d2e7",
    "removal-check-dependent":
        "49612436ca754519180b45f478dae55eda9ce2d28eda22890c3f4ab686b31994",
    "fjoin":
        "002c9f18263af12e6921b849af919ae1894474eb968d21160f15859c697dad52",
    "recur":
        "f3fc26f59d125da4a3131a7cf0cd7f6d44c82d8add7c9ab90d986e2bcbf386b5",
    "fjoin-w3":
        "16e131400109a68955d36618c186949f21316f22e59efcacc056ad82fb3c4542",
    "fjoin-w3-directions":
        "2f1eed4bcdd8cd01ab0540517b336d2f936196ab2dc4eac795196567caca1a49",
    "recur-w3":
        "c345f5272404cbcf2091158f434cac2aa0536223e8ebd98f1e2a906c34e32dc8",
    "fjoin-labelled":
        "0e66cc834518476976df835cf158b4baaa5cc1316200367b0745b59065654dac",
    "recur-labelled":
        "65ee02f4cba279e972f17e7e2cd7006f02c7410ce365f2271e795eec4cc7eee9",
    "validate-labelled":
        "e790a55a0d8d87cc93685ec598d1261928e80beb86e96726d5347c1c7815c664",
    "avg":
        "25137564f3b4daf877f1399f8b05770fa3ab569188bfd4c4df06e69a7d637836",
    "vdc":
        "440dacb4d867c30b51a2f68071ffcfaba11a9212b88b0748b7a3bbdc6fd9be9c",
    "dhj-stationarity":
        "946dca479447a1a8141fc9ae94f9aa861f217509546c65efd579ee8846d327fb",
    "dhj-stationarity-depth3":
        "0525e4a273b822d4193a5c46faa0a3c4cf88401b319ff374eaa3f49dafff8a87",
    "dhj-maxfree":
        "38a4f748e5d8d229d71980b245f22568d2e945942a6177114fef6a5e11b867af",
    "dhj-maxfree-budget":
        "7c4ba1df5abf8b7315c3acc9806237b776f03c33dd9070d60505f83f3e2d971f",
    "joint-torus":
        "8c5b0862b502080600d8c5280fcdb7a2b08e7e845a4b9b56048c236afcb09010",
    "joint-three-directions":
        "e1f48ec3a69f31f43e15aaa5b6a6598f684ac2ee4057e3526170918208bc5193",
    "dhj-correspond":
        "f6f300b008df688686634d51c421280718b2c0f68e5b49265a6d8fdfc4e0e44d",
    "dhj-lines-3-2":
        "9c8c40ad2ce01dcb7b2c9b193c9ba8d2ab5c5500f4bd590a58cdcf3d2ba69544",
    "dhj-lines-2-3":
        "6ede3c15c37b48541d69d2e797b382c4ad6749d5e70a364666d2f4dbcdb8db1a",
    "dhj-correspond-L2":
        "d1980378e3b4df3f090aefbaf8f7019086ed3a120eff6abca3f4dc0500e4e66f",
    "dhj-correspond-k3-L2":
        "87b9b10ae138eeb91acb0b67218fd663ca1ca044a2df77d0ee1f50bff32aa02a",
    "rotation":
        "363f2263bbf1aab65df9b2ce3e84a51696995af60403fbef6045bf94696ac7ea",
    "rotation-extend":
        "2ced231184f02974c4876be8cae7c7c3bb0ad7ae63011a657edecce1a2ca9aad",
    "rotation-extend-not-ergodic":
        "f927af91f6e9d842d2e0a7ae9bb1a74dfc7b6322301bcf74369af6838453e637",
    "rotation-one-direction":
        "a56a4905a4b972de15aa603bf161dd31e3f362c154ab0179c2338f6fd6f82ef6",
}

_DIGEST = re.compile(r'"digest":"[0-9a-f]{16}"')


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_golden(directory) -> dict[str, tuple[int, str]]:
    """Write the inputs into ``directory`` and return each command's exit
    code and stdout."""
    for name, doc in INPUTS.items():
        with open(f"{directory}/{name}", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    out = {}
    for name, (argv, _, _) in GOLDEN.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main([a.format(dir=directory) for a in argv])
        out[name] = (code, buf.getvalue())
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(name, outputs):
    _, code, digest = GOLDEN[name]
    assert (outputs[name][0], _sha256(outputs[name][1])) == (code, digest)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_masked_digest(name, outputs):
    masked = _DIGEST.sub('"digest":"' + "0" * 16 + '"', outputs[name][1])
    assert _sha256(masked) == MASKED[name]
