"""The up-set family and the one up-set-pair independence check.

The three structure tests built on ``upset_pair_independence`` (the
self-joining report, the line-marginal report and removal hypothesis [iii])
are compared with the plain ordered-pair loop in ``helpers``.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import naive_upset_pairs

from ergolab.averages import (
    furstenberg_self_joining,
    oblique_copy,
    self_joining_structure_report,
)
from ergolab.generators import random_system
from ergolab.hales_jewett import (
    build_correspondence,
    constant_law,
    iid_law,
    insensitive_algebra,
    law_from_correspondence,
    line_marginal_structure_report,
    marginals,
    mixture_law,
)
from ergolab.measure import (
    Coupling,
    ExactProbabilitySpace,
    Partition,
    common_refinement,
    relatively_independent_product,
    support_pullback_partition,
)
from ergolab.removal import RemovalInstance, UpSet, check_hypotheses
from ergolab.upsets import bits_of, enumerate_upsets, ground_masks, mask_of

F = Fraction


# -- the family ----------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_family_closed_under_intersection(d):
    family = {u.members for u in enumerate_upsets(d)}
    assert frozenset() in family
    assert UpSet.full(d).members in family
    for a in family:
        for b in family:
            assert a & b in family
    nonempty = {u.members for u in enumerate_upsets(d, include_empty=False)}
    assert nonempty == family - {frozenset()}
    assert all(a & b in nonempty for a in nonempty for b in nonempty)


def test_family_sizes():
    # Every up-set for d <= 4; beyond, the full and the empty up-set and the
    # principal up-sets of the masks of size >= 2.
    assert [len(enumerate_upsets(d)) for d in (2, 3, 4)] == [2, 9, 114]
    for d in (5, 6):
        assert len(enumerate_upsets(d)) == 2 + len(ground_masks(d))


# -- the self-joining report ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_self_joining_report_matches_reference_loop(seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_points=6, dim=2 + seed % 2)
    fj = furstenberg_self_joining(sys_)
    reference = naive_upset_pairs(
        enumerate_upsets(sys_.dim),
        lambda m: oblique_copy(fj, bits_of(m)),
        fj.coupling.as_space(),
    )
    assert self_joining_structure_report(sys_).oblique_pairs == tuple(reference)


# -- the line-marginal report ---------------------------------------------------------------

def _carrier():
    return ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3)))


LAWS = {
    "iid-2": lambda: iid_law(2, 2, _carrier()),
    "iid-3": lambda: iid_law(3, 1, _carrier()),
    "constant-2": lambda: constant_law(2, 2, _carrier()),
    "constant-3": lambda: constant_law(3, 1, _carrier()),
    "mixture-2": lambda: mixture_law(
        [iid_law(2, 2, _carrier()), constant_law(2, 2, _carrier())], [F(1, 2), F(1, 2)]
    ),
    "correspondence-2": lambda: law_from_correspondence(
        build_correspondence({"12", "21"}, 2, 2, 1)
    ),
    "correspondence-diagonal-2": lambda: law_from_correspondence(
        build_correspondence({"11", "22"}, 2, 2, 1)
    ),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_line_marginal_report_matches_reference_loop(name):
    law = LAWS[name]()
    _, line = marginals(law)

    def member_partition(mask):
        letters = [b + 1 for b in bits_of(mask)]
        algebra = common_refinement(
            *(insensitive_algebra(law, (i, j)) for i in letters for j in letters if i < j)
        )
        return support_pullback_partition(line, algebra, min(bits_of(mask)))

    reference = naive_upset_pairs(enumerate_upsets(law.k), member_partition, line.as_space())
    assert line_marginal_structure_report(law).oblique_pairs == tuple(reference)


# -- removal hypothesis [iii] -------------------------------------------------------------------

def _random_partition(rng, n):
    return Partition.from_labels(tuple(rng.randrange(n) for _ in range(n)))


def _random_coupling(rng, space, d):
    kind = rng.choice(["diagonal", "product", "fiber"])
    if kind == "diagonal":
        return Coupling.diagonal(space, d)
    if kind == "product":
        return Coupling.product(space, d)
    part = _random_partition(rng, len(space))
    return relatively_independent_product([space] * d, [part.labels] * d)


def seeded_removal_instances(seed, count, d=3):
    """Instances on 2 or 3 points passing hypotheses [i] and [ii], so that
    [iii] is evaluated; psi is drawn per index set and kept when monotone."""
    rng = random.Random(seed)
    weights = {
        2: [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(0), F(1))],
        3: [(F(1, 3),) * 3, (F(1, 6), F(1, 3), F(1, 2)), (F(0), F(1, 2), F(1, 2))],
    }
    top = UpSet.principal(d, range(d))
    out = []
    while len(out) < count:
        n = rng.choice((2, 3))
        if rng.random() < 0.25:
            sys_ = random_system(rng, max_points=n, dim=d)
            space, coupling = sys_.space, furstenberg_self_joining(sys_).coupling
        else:
            space = ExactProbabilitySpace(tuple(range(n)), rng.choice(weights[n]))
            coupling = _random_coupling(rng, space, d)
        psi = {m: _random_partition(rng, len(space)) for m in ground_masks(d)}
        families = tuple(((top, frozenset(range(len(space)))),) for _ in range(d))
        inst = RemovalInstance(space, coupling, psi, families)
        hyp = check_hypotheses(inst)
        if hyp.monotone and hyp.identified:
            out.append((inst, hyp))
    return out


def reference_iii_witness(inst):
    pairs = naive_upset_pairs(
        enumerate_upsets(inst.d),
        lambda m: support_pullback_partition(inst.coupling, inst.psi[m], min(bits_of(m))),
        inst.coupling.as_space(),
    )
    return next(((a, b, rep.witness) for a, b, rep in pairs if not rep.holds), None)


def test_removal_iii_matches_reference_loop():
    instances = seeded_removal_instances(seed=2024, count=40)
    outcomes = set()
    for inst, hyp in instances:
        witness = reference_iii_witness(inst)
        assert hyp.independent == (witness is None)
        assert hyp.witnesses.get("independent") == witness
        outcomes.add(hyp.independent)
    # The sample exercises both a passing and a failing hypothesis [iii].
    assert outcomes == {True, False}


def test_removal_iii_d4_checks_the_full_family():
    # Two points, diagonal coupling, singletons below the full index set and
    # one block at it: monotone and identified, so [iii] runs over all 114
    # up-sets at d = 4 without a missing meet.
    d = 4
    sp = ExactProbabilitySpace.uniform((0, 1))
    full = mask_of(range(d))
    psi = {
        m: Partition.one_block(2) if m == full else Partition.singletons(2)
        for m in ground_masks(d)
    }
    top = UpSet.principal(d, range(d))
    inst = RemovalInstance(
        sp, Coupling.diagonal(sp, d), psi, tuple(((top, frozenset({0, 1})),) for _ in range(d))
    )
    hyp = check_hypotheses(inst)
    assert hyp.monotone and hyp.identified
    assert hyp.witnesses.get("independent") == reference_iii_witness(inst)
