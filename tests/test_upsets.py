"""The up-set family and the one up-set-pair independence check.

The three structure tests built on ``upset_pair_independence`` (the
self-joining report, the line-marginal report and removal hypothesis [iii])
are compared with the plain ordered-pair loop in ``helpers``, and every pair
the routine answers by the tower property is run through the kernel.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import cyclic_system, iid_law, law_from_correspondence, naive_upset_pairs

from ergolab import hales_jewett, upsets
from ergolab.averages import (
    furstenberg_self_joining,
    oblique_copy,
    self_joining_structure_report,
)
from ergolab.generators import random_system
from ergolab.hales_jewett import (
    build_correspondence,
    constant_law,
    insensitive_algebra,
    line_marginal_structure_report,
    marginals,
    mixture_law,
)
from ergolab.measure import (
    Coupling,
    ExactProbabilitySpace,
    IndependenceReport,
    Partition,
    common_refinement,
    relative_independence,
    relatively_independent_product,
    support_pullback_partition,
)
from ergolab.removal import RemovalInstance, UpSet, check_hypotheses
from ergolab.serialize import upset_from_json
from ergolab.upsets import (
    bits_of,
    enumerate_upsets,
    KernelMemo,
    ground_masks,
    mask_of,
    upset_pair_independence,
)

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
    nonempty = family - {frozenset()}
    assert all(a & b in nonempty for a in nonempty for b in nonempty)


def test_family_sizes():
    # Every up-set for d <= 4; beyond, the full and the empty up-set and the
    # principal up-sets of the masks of size >= 2.
    assert [len(enumerate_upsets(d)) for d in (2, 3, 4)] == [2, 9, 114]
    for d in (5, 6):
        assert len(enumerate_upsets(d)) == 2 + len(ground_masks(d))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("include_empty", [True, False])
def test_family_is_built_once(d, include_empty):
    # Also without the empty up-set, as removal's coordinate search reads it.
    def kept(family):
        return [u for u in family if include_empty or u.members]

    family = enumerate_upsets(d)
    assert enumerate_upsets(d) is family
    assert kept(family) == kept(enumerate_upsets.__wrapped__(d))


def test_upset_of_a_huge_dimension_builds_its_mask_at_once():
    start = time.perf_counter()
    ups = upset_from_json({"d": 30_000_000, "members": []})
    assert time.perf_counter() - start < 1
    assert ups == UpSet(30_000_000, frozenset())


@pytest.mark.parametrize("build", [
    lambda: UpSet(-1, frozenset()),
    lambda: upset_from_json({"d": -1, "members": []}),
])
def test_upset_refuses_a_negative_dimension(build):
    with pytest.raises(ValueError, match=r"^\$\.d: expected a nonnegative dimension, got -1$"):
        build()


def _pairs_on_two_points(family):
    space = ExactProbabilitySpace.uniform((0, 1))
    return upset_pair_independence(family, lambda m: Partition.singletons(2), space)


def test_pair_check_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="different ground dimensions"):
        next(_pairs_on_two_points(enumerate_upsets(3) + enumerate_upsets(2)))


def test_pair_check_rejects_a_family_not_closed_under_meets():
    # principal({0, 1}) & principal({0, 2}) is principal({0, 1, 2}), which
    # the family lacks; the pairs before it are still yielded.
    family = [UpSet.principal(3, (0, 1)), UpSet.principal(3, (0, 2))]
    pairs = _pairs_on_two_points(family)
    assert next(pairs)[2].holds
    with pytest.raises(ValueError, match=r"not closed under &: the meet \[\(0, 1, 2\)\]"):
        next(pairs)


def test_pair_check_rejects_a_memo_of_another_space():
    family = enumerate_upsets(2)
    space = ExactProbabilitySpace.uniform((0, 1))
    other = ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3)))
    pairs = upset_pair_independence(
        family, lambda m: Partition.singletons(2), space, KernelMemo(other)
    )
    with pytest.raises(ValueError, match="memo belongs to another space"):
        next(pairs)
    # An equal space, built anew, shares the memo.
    memo = KernelMemo(ExactProbabilitySpace.uniform((0, 1)))
    assert all(
        rep.holds
        for _, _, rep in upset_pair_independence(
            family, lambda m: Partition.singletons(2), space, memo
        )
    )


# -- the structure-report builder ------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_structure_report_builds_each_pair_partition_once(monkeypatch, d):
    # The pair factor of i < j is psi[mask_of((i, j))].  Every partition is
    # identified on the diagonal, so each mask may carry its own, and the
    # coordinate clause's subfactor at i is the join of the pair factors
    # through i (one block at arity 1).
    rng = random.Random(d)
    space = ExactProbabilitySpace.uniform(tuple(range(4)))
    psi = {m: _random_partition(rng, 4) for m in ground_masks(d)}
    seen = []
    kernel = upsets.relative_independence

    def spy(factors, subfactors, nu):
        seen.append(tuple(subfactors))
        return kernel(factors, subfactors, nu)

    monkeypatch.setattr(upsets, "relative_independence", spy)
    upsets.structure_report(Coupling.diagonal(space, d), psi)
    expected = tuple(
        common_refinement(*(psi[mask_of((i, j))] for j in range(d) if j != i))
        if d > 1 else Partition.one_block(4)
        for i in range(d)
    )
    assert seen[0] == expected
    # The product coupling is independent over the trivial factors, the
    # only ones it identifies.
    coupling = Coupling.product(ExactProbabilitySpace.uniform((0, 1)), d)
    rep = upsets.structure_report(coupling, dict.fromkeys(ground_masks(d), Partition.one_block(2)))
    assert rep.coordinate_holds and rep.oblique_holds
    assert len(rep.oblique_pairs) == len(enumerate_upsets(d)) ** 2


def test_structure_report_gives_arity_one_a_one_block_subfactor(monkeypatch):
    seen = []
    kernel = upsets.relative_independence

    def spy(factors, subfactors, nu):
        seen.append(tuple(subfactors))
        return kernel(factors, subfactors, nu)

    monkeypatch.setattr(upsets, "relative_independence", spy)
    space = ExactProbabilitySpace((0, 1, 2), (F(1, 2), F(1, 3), F(1, 6)))
    # An arity-1 coupling has no index set of size >= 2, so psi is empty.
    rep = upsets.structure_report(Coupling.diagonal(space, 1), {})
    assert seen == [(Partition.one_block(3),)]
    assert rep.coordinate_clause == IndependenceReport(True, None)
    assert rep.oblique_pairs == ((frozenset(), frozenset(), IndependenceReport(True, None)),)


def test_structure_report_names_a_missing_extra_or_wrong_sized_mask():
    coupling = Coupling.diagonal(ExactProbabilitySpace.uniform((0, 1)), 3)
    psi = dict.fromkeys(ground_masks(3), Partition.singletons(2))
    del psi[mask_of((0, 2))]
    with pytest.raises(ValueError, match=r"no partition for the index set \(0, 2\)"):
        upsets.structure_report(coupling, psi)
    psi[mask_of((0, 2))] = Partition.singletons(3)
    with pytest.raises(ValueError, match=r"\(0, 2\) needs a partition of the base points"):
        upsets.structure_report(coupling, psi)
    psi[mask_of((0, 2))] = psi[mask_of((1,))] = Partition.singletons(2)
    with pytest.raises(ValueError, match="2 is not an index set"):
        upsets.structure_report(coupling, psi)


def test_structure_report_names_a_mask_failing_hypothesis_ii():
    # The joins of the pairwise insensitive algebras, the members the line
    # report once used: on this law the join at (0, 1, 2) separates the two
    # points, which the 3-letter insensitive algebra joins, and a support
    # tuple of the line marginal carries both at two of its coordinates.
    law = law_from_correspondence(build_correspondence({"12", "21", "31"}, 3, 2, 1))
    _, line = marginals(law)
    pairs = {mask_of((i - 1, j - 1)): insensitive_algebra(law, (i, j))
             for i, j in combinations((1, 2, 3), 2)}
    psi = {m: common_refinement(*(p for pm, p in pairs.items() if pm & m == pm))
           for m in ground_masks(3)}
    assert psi[mask_of((0, 1, 2))] != insensitive_algebra(law, (1, 2, 3))
    with pytest.raises(ValueError, match=r"\(0, 1, 2\) needs a partition .* hypothesis \[ii\]"):
        upsets.structure_report(line, psi)
    # With the insensitive algebra there, psi is the line report's own.
    psi[mask_of((0, 1, 2))] = insensitive_algebra(law, (1, 2, 3))
    rep, full = upsets.structure_report(line, psi), line_marginal_structure_report(law)
    assert (rep.coordinate_clause, rep.oblique_pairs) == (full.coordinate_clause, full.oblique_pairs)


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
        algebra = insensitive_algebra(law, letters)
        return support_pullback_partition(line, algebra, min(bits_of(mask)))

    reference = naive_upset_pairs(enumerate_upsets(law.k), member_partition, line.as_space())
    assert line_marginal_structure_report(law).oblique_pairs == tuple(reference)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_line_marginal_report_computes_the_marginals_once(monkeypatch, name):
    law = LAWS[name]()
    calls = []
    real = hales_jewett.marginals

    def counting(arg):
        calls.append(arg)
        return real(arg)

    monkeypatch.setattr(hales_jewett, "marginals", counting)
    line_marginal_structure_report(law)
    assert calls == [law]


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
        enumerate_upsets(inst.coupling.arity),
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


def test_shared_memo_matches_reference_loop():
    # Per instance, and again with one kernel memo shared by all instances
    # on the same support space.
    memos = {}
    outcomes = set()
    for inst, _ in seeded_removal_instances(seed=77, count=60):
        space = inst.coupling.as_space()

        def member_partition(m):
            return support_pullback_partition(inst.coupling, inst.psi[m], min(bits_of(m)))

        family = enumerate_upsets(inst.coupling.arity)
        expected = list(naive_upset_pairs(family, member_partition, space))
        for memo in (None, memos.setdefault(space, KernelMemo(space))):
            pairs = upset_pair_independence(family, member_partition, space, memo)
            assert [(a.members, b.members, rep) for a, b, rep in pairs] == expected
        outcomes.add(all(rep.holds for _, _, rep in expected))
    assert outcomes == {True, False}
    assert any(len(memo.reports) > 1 for memo in memos.values())


@pytest.mark.parametrize("d, include_empty", [(3, False), (5, True), (5, False)])
def test_pairs_match_reference_loop_on_other_families(d, include_empty):
    # Families where some up-sets have no one-member-smaller up-set in the
    # family: without the empty up-set, and the principal families of d >= 5.
    rng = random.Random(d)
    space = ExactProbabilitySpace(tuple(range(3)), (F(1, 6), F(1, 3), F(1, 2)))
    coupling = relatively_independent_product([space] * d, [(0, 0, 1)] * d)
    psi = {m: _random_partition(rng, 3) for m in ground_masks(d)}

    def member_partition(m):
        return support_pullback_partition(coupling, psi[m], min(bits_of(m)))

    family = tuple(u for u in enumerate_upsets(d) if include_empty or u.members)
    nu = coupling.as_space()
    got = [(a.members, b.members, rep) for a, b, rep in upset_pair_independence(family, member_partition, nu)]
    expected = list(naive_upset_pairs(family, member_partition, nu))
    assert got == expected
    assert not all(rep.holds for _, _, rep in got)


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


# -- the tower-property skip ---------------------------------------------------------------

def assert_skip_is_exact(monkeypatch, family, member_partition, space):
    """Every pair answered without the kernel holds when the kernel runs on
    it; the kernel runs exactly once per distinct (lift of a, lift of b,
    lift of the meet) triple where neither lift equals the meet, in the
    order the pairs first reach it; and every other pair carries the
    kernel's report on its triple.  Returns the numbers of skipped pairs
    and of kernel calls."""
    calls = []

    def counting_kernel(factors, subfactors, nu):
        calls.append((tuple(factors), tuple(subfactors)))
        return relative_independence(factors, subfactors, nu)

    monkeypatch.setattr(upsets, "relative_independence", counting_kernel)
    pairs = list(upset_pair_independence(family, member_partition, space))
    monkeypatch.undo()

    lifts = {}

    def lift(u):
        if u.members not in lifts:
            parts = [member_partition(m) for m in sorted(u.members)]
            lifts[u.members] = (
                common_refinement(*parts) if parts else Partition.one_block(len(space))
            )
        return lifts[u.members]

    expected_calls = []
    skipped = 0
    for a, b, rep in pairs:
        la, lb, meet = lift(a), lift(b), lift(UpSet(a.d, a.members & b.members))
        if la == meet or lb == meet:
            skipped += 1
            assert rep == IndependenceReport(True, None)
            assert relative_independence((la, lb), (meet, meet), space).holds
        else:
            assert rep == relative_independence((la, lb), (meet, meet), space)
            if ((la, lb), (meet, meet)) not in expected_calls:
                expected_calls.append(((la, lb), (meet, meet)))
    assert calls == expected_calls
    return skipped, len(calls)


def test_skip_exact_on_removal_instances(monkeypatch):
    computed = 0
    for inst, _ in seeded_removal_instances(seed=2024, count=40):
        _, c = assert_skip_is_exact(
            monkeypatch,
            enumerate_upsets(inst.coupling.arity),
            lambda m: support_pullback_partition(inst.coupling, inst.psi[m], min(bits_of(m))),
            inst.coupling.as_space(),
        )
        computed += c
    # Some pairs still reach the kernel, so the count check is not vacuous.
    assert computed > 0


@pytest.mark.parametrize("seed", range(8))
def test_skip_exact_on_self_joinings(monkeypatch, seed):
    rng = random.Random(seed)
    sys_ = random_system(rng, max_points=6, dim=2 + seed % 2)
    fj = furstenberg_self_joining(sys_)
    skipped, _ = assert_skip_is_exact(
        monkeypatch,
        enumerate_upsets(sys_.dim),
        lambda m: oblique_copy(fj, bits_of(m)),
        fj.coupling.as_space(),
    )
    assert skipped > 0


def test_skip_exact_on_z3_at_d4(monkeypatch):
    fj = furstenberg_self_joining(cyclic_system(3, 1, 2, 0, 1))
    skipped, computed = assert_skip_is_exact(
        monkeypatch,
        enumerate_upsets(4),
        lambda m: oblique_copy(fj, bits_of(m)),
        fj.coupling.as_space(),
    )
    # Every pair of this system is a tower-property tautology.
    assert (skipped, computed) == (114 * 114, 0)
