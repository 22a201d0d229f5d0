"""Golden digests of full structure reports on fixed inputs.

Each digest is the sha256 of the canonical JSON of one report: the
coordinate clause (verdict and witness), every ordered oblique pair (its
two up-sets, verdict and witness) and, for a line-marginal report, the
line-to-point implication (verdict and witness).  A change that alters any
verdict or witness of any report fails here.  When a report is meant to
change, record the new digest and say why in CHANGES.md.  Each golden
self-joining is also read as a removal instance, whose hypothesis [iii]
must agree with the report's oblique clause.
"""
from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from helpers import cyclic_system, iid_law, three_direction_torus, twice_extended_system

from ergolab.averages import (
    furstenberg_self_joining,
    self_joining_psi,
    self_joining_structure_report,
)
from ergolab.generators import random_system
from ergolab.hales_jewett import (
    LineStructureReport,
    constant_law,
    line_marginal_structure_report,
    mixture_law,
)
from ergolab.measure import ExactProbabilitySpace
from ergolab.removal import RemovalInstance, check_hypotheses
from ergolab.serialize import canonical_dumps
from ergolab.upsets import UpSet

F = Fraction


def _carrier():
    return ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3)))


def _random_3d(seed: int):
    return random_system(random.Random(seed), max_points=10, dim=3)


SYSTEMS = {
    "z3-1201": lambda: cyclic_system(3, 1, 2, 0, 1),
    "torus-3": lambda: three_direction_torus(3),
    # 152 points: its coordinate clause checks singleton factors, 152^3
    # block tuples for a loop over every tuple.
    "extended-152": twice_extended_system,
    **{f"random-3d-{seed}": (lambda seed=seed: _random_3d(seed)) for seed in range(12)},
}

LAWS = {
    "iid-2": lambda: iid_law(2, 2, _carrier()),
    "iid-3": lambda: iid_law(3, 1, _carrier()),
    "constant-2": lambda: constant_law(2, 2, _carrier()),
    "constant-3": lambda: constant_law(3, 1, _carrier()),
    "mixture-2": lambda: mixture_law(
        [iid_law(2, 2, _carrier()), constant_law(2, 2, _carrier())], [F(1, 2), F(1, 2)]
    ),
}


def report_digest(rep) -> str:
    doc = {
        "coordinate": [rep.coordinate_clause.holds, rep.coordinate_clause.witness],
        "oblique": [[a, b, r.holds, r.witness] for a, b, r in rep.oblique_pairs],
    }
    if isinstance(rep, LineStructureReport):
        doc["implication"] = [rep.implication_holds, rep.implication_witness]
    return hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()


GOLDEN = {
    "extended-152": "20b8c2c9317ab6d2116e19380316494a6c680f17de4e1b96eb6f10a6648929a4",
    "random-3d-0": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-1": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-2": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-3": "b82988af5f790be81116902daf381c59f817eab1a87d96384b34e27870c405a0",
    "random-3d-4": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-5": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-6": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-7": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-8": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "random-3d-9": "f92d1f004142f484820f7c037f08a938bbb0854304fbfa0efc862503e147fd5e",
    "random-3d-10": "a6840f184ba9fe328c7d7d2cf6b1bf5f8a21a017e37986997b092fa0b087918c",
    "random-3d-11": "a31f91150dd199d78ba47ea009c207670df1e4cc1177f53f419702d1d1ee160e",
    "torus-3": "b188afaefdc523b7e1d98b599b21b5eaa886a957f0f119cd15c0883233de7c5e",
    "z3-1201": "3ca9a0f3fc7044d3b7c1e0a64ef7c31345f6a9889fe48b50492e6db8d376c26e",
    "constant-2": "8ab63e4f35f8a5d66a00e61cf48b643b13b395e57a8d2b2abb3ac68e9cac4a6e",
    "constant-3": "e1e529c32f7f2c3766567a9956440a503cf8d4a29a37d27389afb05ccbb96a94",
    "iid-2": "8ab63e4f35f8a5d66a00e61cf48b643b13b395e57a8d2b2abb3ac68e9cac4a6e",
    "iid-3": "e1e529c32f7f2c3766567a9956440a503cf8d4a29a37d27389afb05ccbb96a94",
    "mixture-2": "c99c1c9c20f0791e268cc3f9ab0b8cdc1f0d03ab49c84c34d3f59f18bf86f082",
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_self_joining_report_digest(name):
    assert report_digest(self_joining_structure_report(SYSTEMS[name]())) == GOLDEN[name]


def test_report_on_152_points_is_fast():
    # The relative-independence checks walk the joining's support, not the
    # block product; a loop over every block tuple took over 30 s here.
    sys_ = twice_extended_system()
    start = time.perf_counter()
    rep = self_joining_structure_report(sys_)
    elapsed = time.perf_counter() - start
    assert report_digest(rep) == GOLDEN["extended-152"]
    assert elapsed < 2, f"structure report took {elapsed:.2f}s"


@pytest.mark.parametrize("name", sorted(LAWS))
def test_line_marginal_report_digest(name):
    assert report_digest(line_marginal_structure_report(LAWS[name]())) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_removal_iii_on_the_self_joining_is_the_oblique_clause(name):
    # The self-joining with its psi and full-set targets is a removal
    # instance passing [i] and [ii]; hypothesis [iii] holds exactly when the
    # report's oblique clause does, with the same first failing pair.
    sys_ = SYSTEMS[name]()
    target = (UpSet.principal(sys_.dim, range(sys_.dim)), frozenset(range(len(sys_.space))))
    inst = RemovalInstance(
        sys_.space,
        furstenberg_self_joining(sys_).coupling,
        self_joining_psi(sys_),
        ((target,),) * sys_.dim,
    )
    hyp = check_hypotheses(inst)
    rep = self_joining_structure_report(sys_)
    first = next(((a, b, r.witness) for a, b, r in rep.oblique_pairs if not r.holds), None)
    assert hyp.monotone and hyp.identified
    assert hyp.independent == rep.oblique_holds
    assert hyp.witnesses.get("independent") == first
