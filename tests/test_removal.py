"""Up-set combinatorics and removal-instance checking."""
from __future__ import annotations

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product as iter_product
from math import prod

import pytest

from helpers import (
    bell_triangle,
    cyclic_system,
    event_mass,
    first_dependent_naive_pair,
    fraction_identification,
    level_set_replacement,
    lifting_scenario_report,
    minimal_members,
    listed_weight_menu,
    old_conclusion_holds,
    old_exhaustive_search,
    old_psi_maps,
    old_random_instance,
    old_random_search,
    old_scan_families,
    old_self_joining_psi,
    old_translation_systems,
    pair_walk_monotone,
    product_scan_families,
    recursive_partitions,
    shell_json,
)

from ergolab import removal
from ergolab.averages import difference_subgroup, furstenberg_self_joining
from ergolab.generators import random_system
from ergolab.measure import (
    Coupling,
    ExactProbabilitySpace,
    Partition,
    common_refinement,
    relatively_independent_product,
    support_pullback_partition,
)
from ergolab.removal import (
    RemovalInstance,
    SearchConfig,
    UpSet,
    check_conclusion,
    check_hypotheses,
    enumerate_upsets,
    search_counterexample,
)
from ergolab.serialize import canonical_dumps
from ergolab.systems import invariant_factor
from ergolab.upsets import KernelMemo, bits_of, ground_masks, identified_on, mask_of

F = Fraction


# -- up-set operations -------------------------------------------------------------

def test_principal_upset_examples():
    u = UpSet.principal(3, (0, 1))
    assert u.members == frozenset({mask_of((0, 1)), mask_of((0, 1, 2))})
    assert UpSet.principal(3, range(3)).members == frozenset({mask_of((0, 1, 2))})


def test_principal_intersection_enumerated():
    a = UpSet.principal(3, (0,))
    b = UpSet.principal(3, (1,))
    meet = a.members & b.members
    # Enumerate: supersets of {0} and of {1} of size >= 2.
    expected = {m for m in ground_masks(3) if m & 1 and m & 2}
    assert meet == frozenset(expected)
    assert meet == UpSet.principal(3, (0, 1)).members


def test_upset_closure_roundtrip():
    for u in enumerate_upsets(3):  # the empty up-set included
        rebuilt = UpSet.closure(3, [bits_of(m) for m in minimal_members(u)])
        assert rebuilt == u


def test_upset_validation():
    with pytest.raises(ValueError):
        UpSet(3, frozenset({mask_of((0,))}))
    with pytest.raises(ValueError):
        UpSet(3, frozenset({mask_of((0, 1))}))  # not upward closed


def test_enumerate_upsets_count_d3():
    # Over {01, 02, 12, 012}: any subset of the 2-sets plus the top element,
    # or nothing at all.
    assert len(enumerate_upsets(3)) == 9


# -- instance construction and hypotheses -----------------------------------------

def diagonal_instance(n=2, d=3, sets=None):
    sp = ExactProbabilitySpace.uniform(tuple(range(n)))
    lam = Coupling.diagonal(sp, d)
    part = Partition.singletons(n)
    psi = {m: part for m in ground_masks(d)}
    ups = UpSet.principal(d, range(d))
    if sets is None:
        sets = [frozenset(range(n))] * d
    fams = tuple(((ups, frozenset(s)),) for s in sets)
    return RemovalInstance(sp, lam, psi, fams)


def test_diagonal_instance_hypotheses_hold():
    rep = check_hypotheses(diagonal_instance())
    assert rep.all_hold


def test_product_instance_hypotheses_hold():
    sp = ExactProbabilitySpace.uniform((0, 1))
    lam = Coupling.product(sp, 3)
    psi = {m: Partition.one_block(2) for m in ground_masks(3)}
    ups = UpSet.principal(3, range(3))
    inst = RemovalInstance(
        sp, lam, psi, tuple(((ups, frozenset({0, 1})),) for _ in range(3))
    )
    assert check_hypotheses(inst).all_hold
    assert check_conclusion(inst, verified=True)


def test_monotonicity_violation_detected():
    sp = ExactProbabilitySpace.uniform((0, 1))
    lam = Coupling.diagonal(sp, 3)
    psi = {m: Partition.one_block(2) for m in ground_masks(3)}
    psi[mask_of((0, 1, 2))] = Partition.singletons(2)  # full set finer: violates
    ups = UpSet.principal(3, range(3))
    inst = RemovalInstance(
        sp, lam, psi, tuple(((ups, frozenset({0, 1})),) for _ in range(3))
    )
    rep = check_hypotheses(inst)
    assert not rep.monotone
    assert "monotone" in rep.witnesses


def _seeded_psi(rng, n, d):
    """A psi map on ``n`` points: one random partition on every index set;
    or, on each index set, the partition of a chain of coarsenings at the
    largest rank of its coordinates, which is monotone; or such a map with
    one or two index sets given a random partition."""
    masks = ground_masks(d)
    kind = rng.randrange(3)
    if kind == 0:
        return dict.fromkeys(masks, Partition.from_labels([rng.randrange(n) for _ in range(n)]))
    labels = list(range(n))
    chain = [Partition.from_labels(labels)]
    for _ in range(3):
        a, b = rng.randrange(n), rng.randrange(n)
        labels = [labels[a] if x == labels[b] else x for x in labels]
        chain.append(Partition.from_labels(labels))
    rank = [rng.randrange(len(chain)) for _ in range(d)]
    psi = {m: chain[max(rank[i] for i in bits_of(m))] for m in masks}
    if kind == 2:
        for _ in range(rng.randint(1, 2)):
            psi[rng.choice(masks)] = Partition.from_labels([rng.randrange(n) for _ in range(n)])
    return psi


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_monotone_verdict_and_witness_match_the_pair_walk(d):
    # Hypothesis [i] walks each index set's supersets only, and skips a
    # one-partition map; the verdict and the witness must be those of the
    # walk over every ordered pair of index sets.  At d = 2 there is one
    # index set, so [i] always holds.
    rng = random.Random(300 + d)
    space = ExactProbabilitySpace.uniform(tuple(range(4)))
    coupling = Coupling.diagonal(space, d)
    families = tuple(((UpSet.principal(d, range(d)), frozenset()),) for _ in range(d))
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        psi = _seeded_psi(rng, 4, d)
        rep = check_hypotheses(RemovalInstance(space, coupling, psi, families))
        expected = pair_walk_monotone(psi, ground_masks(d))
        assert (rep.monotone, rep.witnesses.get("monotone")) == expected
        verdicts[rep.monotone] += 1
    assert verdicts[True] >= 10
    assert verdicts[False] >= 10 if d > 2 else verdicts[False] == 0


def test_identification_violation_detected():
    sp = ExactProbabilitySpace.uniform((0, 1))
    lam = Coupling.product(sp, 3)  # independent coordinates
    psi = {m: Partition.singletons(2) for m in ground_masks(3)}
    ups = UpSet.principal(3, range(3))
    inst = RemovalInstance(
        sp, lam, psi, tuple(((ups, frozenset({0, 1})),) for _ in range(3))
    )
    rep = check_hypotheses(inst)
    assert rep.monotone and not rep.identified
    with pytest.raises(ValueError):
        check_conclusion(inst)


def test_identification_witness_matches_the_fraction_loop():
    # Seeded instances with arbitrary psi, and with one arbitrary partition
    # on every index set: hypothesis [ii] and its witness (mask, block,
    # coordinate pair, exact mismatch mass) must be those of the
    # block-by-block Fraction loop.
    rng = random.Random(53)
    failing, witnesses = 0, set()
    one_partition = {True: 0, False: 0}  # outcomes of [ii]
    for _ in range(300):
        n, d = rng.randint(1, 4), rng.choice([2, 3])
        nums = [rng.randint(1, 3) for _ in range(n)]
        space = ExactProbabilitySpace(tuple(range(n)), tuple(F(v, sum(nums)) for v in nums))
        if rng.random() < 0.5:
            labels = tuple(rng.randrange(2) for _ in range(n))
            coupling = relatively_independent_product([space] * d, [labels] * d)
        else:
            # Coordinates in one group are equal, groups are independent.
            group = [rng.randrange(d) for _ in range(d)]
            groups = sorted(set(group))
            coupling = Coupling(d, space, {
                tuple(v[groups.index(g)] for g in group): prod(space.weights[x] for x in v)
                for v in iter_product(range(n), repeat=len(groups))
            })
        arbitrary = {
            m: Partition.from_labels(tuple(rng.randrange(n) for _ in range(n)))
            for m in ground_masks(d)
        }
        one = dict.fromkeys(arbitrary, Partition.from_labels(tuple(rng.randrange(n) for _ in range(n))))
        full = UpSet.principal(d, range(d))
        for psi in (arbitrary, one):
            inst = RemovalInstance(
                space, coupling, psi, tuple(((full, frozenset(range(n))),) for _ in range(d))
            )
            identified, witness = fraction_identification(inst)
            rep = check_hypotheses(inst)
            assert rep.identified == identified
            assert rep.witnesses.get("identified") == witness
            if psi is one:
                one_partition[identified] += 1
            if not identified:
                failing += 1
                witnesses.add(witness[:3])
    assert failing > 100
    assert len(witnesses) > 10
    assert min(one_partition.values()) > 50, one_partition


def test_independence_violation_detected_and_excluded():
    # Diagonal coupling with singleton pair-set partitions but a coarser full-set
    # partition: monotone and identified, yet the lifted algebras of the two
    # principal up-sets fail relative independence over their intersection.
    sp = ExactProbabilitySpace.uniform((0, 1, 2, 3))
    lam = Coupling.diagonal(sp, 3)
    coarse = Partition(4, ((0, 1), (2, 3)))
    psi = {m: Partition.singletons(4) for m in ground_masks(3)}
    psi[mask_of((0, 1, 2))] = coarse
    ups = UpSet.principal(3, range(3))
    inst = RemovalInstance(
        sp, lam, psi, tuple(((ups, frozenset(range(4))),) for _ in range(3))
    )
    rep = check_hypotheses(inst)
    assert rep.monotone and rep.identified and not rep.independent
    assert "independent" in rep.witnesses
    with pytest.raises(ValueError):
        check_conclusion(inst)


def _random_psi(rng, coupling, parts, masks):
    """A random psi map satisfying hypotheses [i] and [ii]: the masks in
    ascending order, each drawn from the partitions it identifies that
    coarsen every assigned subset's partition (one block always does)."""
    psi = {}
    for m in masks:
        psi[m] = rng.choice([
            p for p in parts
            if identified_on(coupling, m, p)
            and all(psi[s].is_refinement_of(p) for s in psi if s & m == s)
        ])
    return psi


def _family_draw(rng, family, n, d):
    """A coupling of the family and the psi map a search draw gives it."""
    masks = ground_masks(d)
    if family == "selfjoin":
        sys_ = random_system(rng, max_points=n, dim=d)
        return furstenberg_self_joining(sys_).coupling, old_self_joining_psi(sys_)
    space = ExactProbabilitySpace(tuple(range(n)), rng.choice(removal._weight_menu(n)))
    part = rng.choice(removal._all_partitions(n))
    if family == "diagonal":
        return Coupling.diagonal(space, d), dict.fromkeys(masks, part)
    if family == "product":
        return Coupling.product(space, d), dict.fromkeys(masks, Partition.one_block(n))
    coupling = relatively_independent_product([space] * d, [part.labels] * d)
    return coupling, dict.fromkeys(masks, part)


@pytest.mark.parametrize("d, rounds", [(3, 8), (4, 2)])
def test_independence_verdict_and_witness_match_the_naive_pair_loop(d, rounds):
    # Seeded instances of all four families at 1 to 4 points, each with the
    # psi map of a search draw, with a random psi map passing [i] and [ii],
    # and with one arbitrary partition on every index set: hypothesis [iii]
    # and its first witness must be those of the plain ordered-pair loop,
    # which has no family-level rule.  A one-partition map failing [ii] is
    # not checked for [iii].
    rng = random.Random(100 + d)
    seen = {"family rule": 0, "pair loop holds": 0, "fails": 0, "not identified": 0}
    for family in removal.FAMILIES:
        for n in range(1, 5):
            for _ in range(rounds):
                coupling, drawn = _family_draw(rng, family, n, d)
                space = coupling.base
                parts = removal._all_partitions(len(space))
                one = dict.fromkeys(ground_masks(d), rng.choice(parts))
                for psi in (drawn, _random_psi(rng, coupling, parts, ground_masks(d)), one):
                    full = UpSet.principal(d, range(d))
                    everything = frozenset(range(len(space)))
                    inst = RemovalInstance(
                        space, coupling, psi, tuple(((full, everything),) for _ in range(d))
                    )
                    rep = check_hypotheses(inst)
                    assert rep.monotone
                    if not fraction_identification(inst)[0]:
                        assert psi is one and not rep.identified and not rep.independent
                        seen["not identified"] += 1
                        continue
                    assert rep.identified
                    expected = first_dependent_naive_pair(coupling, psi, d)
                    assert rep.independent == (expected is None)
                    assert rep.witnesses.get("independent") == expected
                    members = {
                        support_pullback_partition(coupling, psi[m], min(bits_of(m))).labels
                        for m in ground_masks(d)
                    }
                    if expected is not None:
                        seen["fails"] += 1
                    elif len(members) == 1:
                        seen["family rule"] += 1
                    else:
                        seen["pair loop holds"] += 1
    assert sum(seen.values()) == 3 * 4 * 4 * rounds
    assert all(seen.values()), seen


@pytest.mark.parametrize("d", [2, 3, 4])
def test_draws_match_the_former_draws(d):
    # The same seed gives the same instances through the same rng calls:
    # after every draw both generators are in the same state.
    coord_upsets = removal._coordinate_upsets(d)
    for seed in range(40):
        config = SearchConfig(sizes=(1, 2, 3, 4, 5, 6), d=d, exhaustive=False, seed=seed)
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            shell = removal._random_shell(new_rng, config, coord_upsets)
            assert RemovalInstance(*shell) == old_random_instance(old_rng, config, coord_upsets)
            assert new_rng.getstate() == old_rng.getstate()


# sha256 over seeds 0..199 of the canonical JSON of one draw at sizes 1-6
# with every family (:func:`helpers.shell_json`), each followed by ``repr``
# of the generator's next draw, which pins how much of the stream the draw
# read.  Recorded when a draw still built a whole instance; the shell draw
# must give the same bytes.
DRAW_DIGESTS = {
    2: "2a3a4b48baaede3202bc9c51fea2cb4eb0443ec7ae27662552ba3cec429b291c",
    3: "a6f4899a9a48894ff0b299c7a048c615adad191c35de5caf7437e52f36e4e1c8",
    4: "27db48c3aac848826b9f6a835a06abb9c7811b52c987b685a60ae5512dd47a65",
    5: "caa5b98c87f9431289ed68887561dff8b95c0763b1299b8ef70d98586ec6e08a",
}


@pytest.mark.parametrize("d", sorted(DRAW_DIGESTS))
def test_random_draws_are_locked(d):
    coord_upsets = removal._coordinate_upsets(d)
    h = hashlib.sha256()
    for seed in range(200):
        config = SearchConfig(sizes=(1, 2, 3, 4, 5, 6), d=d, exhaustive=False, seed=seed)
        rng = random.Random(seed)
        shell = removal._random_shell(rng, config, coord_upsets)
        h.update(canonical_dumps(shell_json(*shell)).encode() + b"\n")
        h.update(repr(rng.random()).encode() + b"\n")
    assert h.hexdigest() == DRAW_DIGESTS[d]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("family", removal.FAMILIES)
def test_every_draw_is_a_valid_instance_passing_i_and_ii(d, family):
    # The random search checks only [iii] per draw and builds an instance
    # only for a counterexample, so every draw must be valid and pass [i]
    # and [ii] as they are checked for an instance given whole, and the
    # search's [iii] verdict must be check_hypotheses' verdict.
    coord_upsets = removal._coordinate_upsets(d)
    pair_loops, verdicts = 0, set()
    # Seed 887 draws a 4-point selfjoin shell at d = 4 that fails [iii].
    for seed in [*range(200), 887]:
        config = SearchConfig(
            sizes=(1, 2, 3, 4, 5, 6), d=d, families=(family,), exhaustive=False, seed=seed
        )
        space, coupling, psi, families = removal._random_shell(
            random.Random(seed), config, coord_upsets
        )
        rep = check_hypotheses(RemovalInstance(space, coupling, psi, families))
        assert rep.monotone and rep.identified
        independent = removal._first_dependent_pair(coupling, psi) is None
        assert independent == rep.independent
        verdicts.add(independent)
        pair_loops += not removal._one_partition(psi)
    # Only a selfjoin draw gives index sets distinct partitions, so only
    # there, with more than one index set, does [iii] reach the pair loop.
    assert (pair_loops > 0) == (family == "selfjoin" and d > 2)
    assert (False in verdicts) == (family == "selfjoin" and d == 4)


def test_partitions_by_rank_are_the_recursive_enumeration():
    for n in range(9):
        expected = recursive_partitions(n)
        assert removal._bell(n) == len(expected)
        assert [removal._partition_at(n, r) for r in range(len(expected))] == expected
        assert [p.labels for p in removal._all_partitions(n)] == [p.labels for p in expected]
    assert [removal._bell(n) for n in range(41)] == bell_triangle(41)


def test_weight_vectors_by_index_are_the_listed_menu():
    for n in range(1, 9):
        menu = listed_weight_menu(n)
        assert removal._menu_length(n) == len(menu)
        assert [removal._menu_weights(n, i) for i in range(len(menu))] == menu
        assert removal._weight_menu(n) == menu


def test_randrange_reads_the_stream_as_choice_does():
    # The draws pick a weight vector, a partition and a block union by
    # index with randrange(k) where the former draws chose from a list of
    # k entries; the golden digests rely on the two reading the stream
    # alike (CPython's choice and randrange both take _randbelow(k)).
    sizes = [1, 2, 3, 5, 15, 52, 4140, 2**31 - 1, 2**32 + 1, 2**62 + 3]
    for seed in range(50):
        by_index, by_choice = random.Random(seed), random.Random(seed)
        for k in sizes:
            assert by_index.randrange(k) == by_choice.choice(range(k))
            assert by_index.getstate() == by_choice.getstate()
        for k in sizes[:7]:
            assert by_index.randrange(k) == by_choice.choice(list(range(k)))
            assert by_index.getstate() == by_choice.getstate()


def test_a_draw_of_many_blocks_picks_a_union_past_the_range_length_limit():
    # choice(range(2**63)) raises OverflowError, since a range's length
    # must fit a C ssize_t.  This diagonal draw on 300 points gives psi 67
    # blocks, so it picks one of 2**67 unions.
    with pytest.raises(OverflowError):
        random.Random(0).choice(range(1 << 63))
    config = SearchConfig(sizes=(300,), d=2, families=("diagonal",), exhaustive=False, seed=0)
    _, _, psi, _ = removal._random_shell(random.Random(0), config, removal._coordinate_upsets(2))
    assert len(psi[mask_of((0, 1))].blocks) == 67
    assert search_counterexample(replace(config, samples=3)) is None


def test_two_distinct_lifts_can_fail_independence():
    # Singletons on the pairs and one block on the full index set: every
    # lift is one of two partitions, and yet [iii] fails, so the family rule
    # must not extend to two distinct lifts.
    space = ExactProbabilitySpace.uniform((0, 1))
    coupling = Coupling.diagonal(space, 3)
    psi = {m: Partition.singletons(2) for m in ground_masks(3)}
    psi[mask_of(range(3))] = Partition.one_block(2)
    expected = first_dependent_naive_pair(coupling, psi, 3)
    assert expected is not None
    a, b, rep = removal._first_dependent_pair(coupling, psi)
    assert (a.members, b.members, rep.witness) == expected


def test_selfjoin_instance_hypotheses():
    sys_ = cyclic_system(4, 1, 2)
    fj = furstenberg_self_joining(sys_)
    psi = {
        m: invariant_factor(sys_, difference_subgroup(2, bits_of(m)))
        for m in ground_masks(2)
    }
    ups = UpSet.principal(2, (0, 1))
    inst = RemovalInstance(
        sys_.space,
        fj.coupling,
        psi,
        tuple(((ups, frozenset(range(4))),) for _ in range(2)),
    )
    rep = check_hypotheses(inst)
    assert rep.monotone and rep.identified
    if rep.all_hold:
        assert check_conclusion(inst, verified=True)


def test_conclusion_base_case_disjoint_sets():
    inst = diagonal_instance(sets=[{0}, {1}, {0, 1}])
    assert check_hypotheses(inst).all_hold
    # Diagonal coupling: product event mass 0 and intersection empty.
    assert event_mass(inst.coupling, [frozenset({0}), frozenset({1}), frozenset({0, 1})]) == 0
    assert check_conclusion(inst, verified=True)


def test_conclusion_vacuous_when_product_positive():
    inst = diagonal_instance(sets=[{0, 1}, {0, 1}, {0, 1}])
    assert check_conclusion(inst, verified=True)


def test_conclusion_predicate_matches_the_set_loop():
    # The bitmask predicate against the former loop over support tuples and
    # points, on arbitrary couplings and targets (hypotheses not required),
    # so that both verdicts occur.
    rng = random.Random(5)
    verdicts = set()
    for _ in range(400):
        n, d = rng.randint(1, 4), rng.randint(2, 4)
        nums = [rng.randint(0, 3) for _ in range(n)]
        nums[rng.randrange(n)] += 1
        space = ExactProbabilitySpace(tuple(range(n)), tuple(F(v, sum(nums)) for v in nums))
        kind = rng.randrange(4)
        if kind == 0:
            coupling = Coupling.diagonal(space, d)
        elif kind == 1:
            coupling = Coupling.product(space, d)
        elif kind == 2:
            labels = tuple(rng.randrange(2) for _ in range(n))
            coupling = relatively_independent_product([space] * d, [labels] * d)
        else:
            # Coordinate c shifted by c: the product of equal sets can be
            # null while their intersection is not.
            space = ExactProbabilitySpace.uniform(tuple(range(n)))
            coupling = Coupling(
                d, space, {tuple((x + c) % n for c in range(d)): F(1, n) for x in range(n)}
            )
        targets = [
            [frozenset(x for x in range(n) if rng.random() < 0.6) for _ in range(rng.randint(1, 2))]
            for _ in range(d)
        ]
        points = frozenset(range(n))
        chosen = [
            removal._target_masks(coupling, i, points.intersection(*sets))
            for i, sets in enumerate(targets)
        ]
        expected = old_conclusion_holds(space, coupling, targets)
        assert removal._conclusion_holds(chosen, removal._positive_mask(space)) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_measurability_enforced():
    sp = ExactProbabilitySpace.uniform((0, 1))
    lam = Coupling.product(sp, 3)
    psi = {m: Partition.one_block(2) for m in ground_masks(3)}
    ups = UpSet.principal(3, range(3))
    with pytest.raises(ValueError):
        RemovalInstance(
            sp, lam, psi, tuple(((ups, frozenset({0})),) for _ in range(3))
        )


@pytest.mark.parametrize(
    "keys",
    [
        (3, 5, 6),  # one index set missing
        (3, 5, 6, 7, 11),  # one too many
        (1, 3, 5, 6),  # a singleton in place of {0, 1, 2}
        (0, 3, 5, 6),  # the empty set
        (3, 5, 6, 8),  # past range(3)
        (-1, 3, 5, 6),
        ("7", 3, 5, 6),
    ],
)
def test_psi_is_keyed_by_exactly_the_index_sets(keys):
    sp = ExactProbabilitySpace.uniform((0, 1))
    psi = {m: Partition.one_block(2) for m in keys}
    ups = UpSet.principal(3, range(3))
    fams = tuple(((ups, frozenset({0, 1})),) for _ in range(3))
    with pytest.raises(ValueError, match="psi must be defined exactly on the index sets"):
        RemovalInstance(sp, Coupling.diagonal(sp, 3), psi, fams)


@pytest.mark.parametrize("target", [{0, 7}, {-1}, {2}])
def test_target_sets_hold_only_points(target):
    # The union-of-blocks check sees only the points, so an index outside
    # them is refused on its own.
    with pytest.raises(ValueError, match="family 0: a target set holds a point index out of range"):
        diagonal_instance(sets=[target, {0, 1}, {0, 1}])
    diagonal_instance(sets=[{0}, {0, 1}, {0, 1}])


def test_upset_family_constraints_enforced():
    sp = ExactProbabilitySpace.uniform((0, 1))
    lam = Coupling.diagonal(sp, 3)
    psi = {m: Partition.singletons(2) for m in ground_masks(3)}
    bad = UpSet.principal(3, (1, 2))  # does not contain coordinate 0
    with pytest.raises(ValueError):
        RemovalInstance(
            sp,
            lam,
            psi,
            (
                ((bad, frozenset({0})),),
                ((UpSet.principal(3, range(3)), frozenset({0})),),
                ((UpSet.principal(3, range(3)), frozenset({0})),),
            ),
        )


# -- target validation -------------------------------------------------------------

def reference_target_error(d, i, ups, a, psi, n):
    """The per-target checks as ``RemovalInstance`` made them before
    ``_check_target``: the union-of-blocks test walks the blocks of the join
    built as a ``Partition``.  Returns the error text, or ``None``."""
    if ups.d != d:
        return "up-set dimension mismatch"
    if mask_of(range(d)) not in ups:
        return "each up-set must contain the full index set"
    if not all(m & (1 << i) for m in ups.members):
        return f"family {i}: up-sets must lie inside the principal up-set of {i}"
    blocks = (
        common_refinement(*(psi[m] for m in ups.members))
        if ups.members
        else Partition.one_block(n)
    )
    for b in blocks.blocks:
        if not set(b) <= a and set(b) & a:
            return f"family {i}: a target set is not a union of its algebra's blocks"
    return None


def target_error(d, i, ups, a, psi, n):
    try:
        removal._check_target(d, i, ups, a, psi, n)
    except ValueError as exc:
        return str(exc)
    return None


def test_check_target_matches_block_join_check():
    rng = random.Random(31)
    d = 3
    upsets = enumerate_upsets(d) + enumerate_upsets(2)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(1, 4)
        psi = {
            m: Partition.from_labels(tuple(rng.randrange(n) for _ in range(n)))
            for m in ground_masks(d)
        }
        ups = rng.choice(upsets)
        i = rng.randrange(d)
        a = frozenset(x for x in range(n) if rng.random() < 0.5)
        expected = reference_target_error(d, i, ups, a, psi, n)
        assert target_error(d, i, ups, a, psi, n) == expected
        outcomes.add(expected)
    # Every error text and the accepting case occur in the sample.
    assert outcomes == {
        None,
        "up-set dimension mismatch",
        "each up-set must contain the full index set",
        *(f"family {i}: up-sets must lie inside the principal up-set of {i}" for i in range(d)),
        *(f"family {i}: a target set is not a union of its algebra's blocks" for i in range(d)),
    }


def test_check_target_uses_the_join_of_the_members():
    # The join {01 | 2 | 3} is strictly finer than both member partitions,
    # so {2} is a target of the up-set without being measurable for either
    # member, while {0} splits a block of the join.
    d, n = 3, 4
    psi = {m: Partition.singletons(n) for m in ground_masks(d)}
    psi[mask_of((0, 1))] = Partition(n, ((0, 1, 2), (3,)))
    psi[mask_of((0, 1, 2))] = Partition(n, ((0, 1), (2, 3)))
    ups = UpSet.principal(d, (0, 1))
    join = common_refinement(*(psi[m] for m in ups.members))
    assert join == Partition(n, ((0, 1), (2,), (3,)))
    for m in ups.members:
        assert join != psi[m] and join.is_refinement_of(psi[m])
    for a in ({2}, {0, 1}, {0, 1, 3}, set(), set(range(n)), {0}, {1, 2}):
        a = frozenset(a)
        expected = reference_target_error(d, 0, ups, a, psi, n)
        assert target_error(d, 0, ups, a, psi, n) == expected
        assert (expected is None) == (a not in ({0}, {1, 2}))


def forced_targets(space, coupling, psi, coord_upsets, fail_at):
    """The targets of the fail_at-th combination the former scan evaluates."""
    seen = []

    def record(targets):
        seen.append(targets)
        return len(seen) != fail_at

    old_scan_families(space, coupling, psi, coord_upsets, record)
    assert len(seen) == fail_at
    return seen[-1]


def fail_on(monkeypatch, forced):
    """Make the sweep's conclusion fail exactly on the given targets (one per
    coordinate); like the real predicate, the forced one reads only the
    target sets, through their point masks.  It also fails on every prefix
    of them padded with unchosen coordinates, as the real predicate fails
    on a padded prefix whenever some completion fails, so that the scan
    does not skip the forced combination."""
    forced_masks = tuple(sum(1 << x for x in a) for a in forced)
    unchosen = removal._UNCHOSEN[1]
    holds = removal._conclusion_holds

    def forced_holds(chosen, positive):
        chosen = tuple(chosen)
        points = tuple(p for _, p in chosen)
        if all(p in (f, unchosen) for p, f in zip(points, forced_masks)):
            return False
        return holds(chosen, positive)

    monkeypatch.setattr(removal, "_conclusion_holds", forced_holds)


@pytest.mark.parametrize("fail_at", [1, 2, 37, 400])
def test_forced_failure_returns_the_reference_instance(monkeypatch, fail_at):
    # The conclusion is made to fail on the targets of the former scan's
    # fail_at-th combination, in the sweep and in the former scan alike;
    # both must return the same validated instance, the first combination
    # with those targets, although the sweep keeps one choice per target.
    d, n = 3, 3
    space = ExactProbabilitySpace(tuple(range(n)), (F(1, 6), F(1, 3), F(1, 2)))
    coupling = relatively_independent_product([space] * d, [(0, 0, 1)] * d)
    psi = {m: Partition(n, ((0, 1), (2,))) for m in ground_masks(d)}
    coord_upsets = removal._coordinate_upsets(d)
    forced = forced_targets(space, coupling, psi, coord_upsets, fail_at)
    expected = old_scan_families(
        space, coupling, psi, coord_upsets, lambda targets: targets != forced
    )
    fail_on(monkeypatch, forced)
    memo = KernelMemo(coupling.as_space())
    hit = removal._scan_families(space, coupling, psi, coord_upsets, memo)
    assert isinstance(hit, RemovalInstance)
    assert hit == expected
    assert tuple(a for ((_, a),) in hit.families) == forced


@pytest.mark.parametrize("fail_at", [1, 37, 400])
def test_forced_failure_sweep_returns_the_former_instance(monkeypatch, fail_at):
    # The same over the whole 3-point sweep: the targets of the former
    # sweep's fail_at-th evaluated combination are forced to fail, and the
    # current sweep must stop at the same shell and combination.
    config = SearchConfig(sizes=(3,), d=3)
    seen = []

    def record_for(space, coupling):
        def record(targets):
            seen.append(targets)
            return len(seen) != fail_at

        return record

    old_exhaustive_search(config, record_for)
    forced = seen[fail_at - 1]
    expected = old_exhaustive_search(
        config,
        lambda space, coupling: (
            lambda targets: targets != forced
            and old_conclusion_holds(space, coupling, [(a,) for a in targets])
        ),
    )
    fail_on(monkeypatch, forced)
    assert search_counterexample(config) == expected


def test_forced_failure_search_returns_a_validated_instance(monkeypatch):
    monkeypatch.setattr(removal, "_conclusion_holds", lambda *args: False)
    hit = search_counterexample(SearchConfig(sizes=(2,), d=3))
    assert hit is not None
    rebuilt = RemovalInstance(hit.space, hit.coupling, hit.psi, hit.families)
    assert rebuilt == hit
    assert check_hypotheses(hit).all_hold


def _scan_shell():
    d, n = 3, 3
    space = ExactProbabilitySpace(tuple(range(n)), (F(1, 6), F(1, 3), F(1, 2)))
    coupling = relatively_independent_product([space] * d, [(0, 0, 1)] * d)
    psi = {m: Partition(n, ((0, 1), (2,))) for m in ground_masks(d)}
    return space, coupling, psi, removal._coordinate_upsets(d)


@pytest.mark.parametrize("fail_at", [1, 2, 23, 64])
def test_depth_first_scan_returns_the_product_scan_instance(monkeypatch, fail_at):
    # The fail_at-th of the 64 combinations of distinct targets the former
    # product scan evaluates is forced to fail, in both scans alike; they
    # must return the same instance.
    space, coupling, psi, coord_upsets = _scan_shell()
    seen = []

    def record(chosen, positive):
        seen.append(tuple(points for _, points in chosen))
        return len(seen) != fail_at

    monkeypatch.setattr(removal, "_conclusion_holds", record)
    product_scan_families(space, coupling, psi, coord_upsets, KernelMemo(coupling.as_space()))
    assert len(seen) == fail_at
    forced = tuple(frozenset(x for x in range(len(space)) if m >> x & 1) for m in seen[-1])
    monkeypatch.undo()
    fail_on(monkeypatch, forced)
    expected = product_scan_families(
        space, coupling, psi, coord_upsets, KernelMemo(coupling.as_space())
    )
    hit = removal._scan_families(space, coupling, psi, coord_upsets, KernelMemo(coupling.as_space()))
    assert isinstance(hit, RemovalInstance)
    assert hit == expected
    assert tuple(a for ((_, a),) in hit.families) == forced


def _small_product_conclusion(limit):
    """A weaker conclusion of the same shape: a product event with at most
    ``limit`` support tuples (0 is the real conclusion) forces a null
    intersection.  Like the real one, it can only fail more often as the
    product shrinks and the intersection grows."""
    def holds(chosen, positive):
        product, meet = -1, positive
        for support, points in chosen:
            product &= support
            meet &= points
        return meet == 0 or bin(product).count("1") > limit

    return holds


@pytest.mark.parametrize("limit", [0, 1, 2, 4])
def test_depth_first_scan_matches_the_product_scan_over_a_sweep(monkeypatch, limit):
    # Over every shell of the 3-point d = 3 sweep, with the conclusion
    # weakened so that it fails on many shells, the skipping scan returns
    # the instance of the scan that evaluates every combination.  With the
    # real conclusion (limit 0) nothing fails, and the skipping scan never
    # evaluates a whole combination whose first targets already miss every
    # positive-weight point, while the product scan does.
    holds = _small_product_conclusion(limit)
    whole = {"skipping": [0, 0], "product": [0, 0]}  # [evaluated, hopeless]
    scans = {"skipping": removal._scan_families, "product": product_scan_families}
    d, n = 3, 3
    parts = removal._all_partitions(n)
    masks = ground_masks(d)
    coord_upsets = removal._coordinate_upsets(d)
    hits = set()
    for weights in removal._weight_menu(n):
        space = ExactProbabilitySpace(tuple(range(n)), weights)
        for coupling in removal._coupling_menu(space, d, SearchConfig().families):
            allowed = [
                [c for c, p in enumerate(parts) if identified_on(coupling, m, p)]
                for m in masks
            ]
            memo = KernelMemo(coupling.as_space())
            for psi in removal._psi_maps(parts, masks, allowed):
                found = {}
                for name, scan in scans.items():
                    def counting(chosen, positive, name=name):
                        chosen = tuple(chosen)
                        if all(points != removal._UNCHOSEN[1] for _, points in chosen):
                            whole[name][0] += 1
                            meet = positive
                            for _, points in chosen[:-1]:
                                meet &= points
                            whole[name][1] += meet == 0
                        return holds(chosen, positive)

                    monkeypatch.setattr(removal, "_conclusion_holds", counting)
                    found[name] = scan(space, coupling, psi, coord_upsets, memo)
                assert found["skipping"] == found["product"]
                hits.add(found["skipping"] is None)
    assert whole["skipping"][1] == 0
    assert whole["skipping"][0] < whole["product"][0]
    if limit == 0:
        assert hits == {True} and whole["product"][1] > 0
    else:
        assert hits == {True, False}


# -- the search ---------------------------------------------------------------------

def test_exhaustive_search_small_domain_clean():
    cfg = SearchConfig(sizes=(2,), d=3, exhaustive=True)
    assert search_counterexample(cfg) is None


def test_random_search_clean_and_deterministic():
    cfg = SearchConfig(sizes=(2, 3), d=3, seed=42, exhaustive=False, samples=60)
    assert search_counterexample(cfg) is None
    assert search_counterexample(cfg) is None  # same seed, same outcome


@pytest.mark.parametrize("samples", [1, 3])
def test_random_search_stops_after_80_draws_per_sample_that_fail_iii(monkeypatch, samples):
    # Every draw passes [i] and [ii] by construction, so only draws failing
    # [iii] are redrawn.  With [iii] forced to fail on every draw, the
    # search gives up after exactly 80 draws per requested sample and
    # raises, having evaluated no conclusion.
    config = SearchConfig(sizes=(2, 3), d=3, exhaustive=False, seed=11, samples=samples)
    draws, conclusions = [], []
    shell = removal._random_shell
    monkeypatch.setattr(
        removal, "_random_shell", lambda *args: draws.append(None) or shell(*args)
    )
    monkeypatch.setattr(removal, "_first_dependent_pair", lambda coupling, psi: (0, 0, None))
    monkeypatch.setattr(
        removal, "_families_conclusion", lambda *args: conclusions.append(None) or True
    )
    with pytest.raises(RuntimeError, match="^sampling failed to reach the requested"):
        search_counterexample(config)
    assert len(draws) == 80 * samples
    assert conclusions == []


def fail_at_tested(monkeypatch, fail_at):
    """Make the conclusion fail on its ``fail_at``-th evaluation only."""
    calls = []
    holds = removal._conclusion_holds

    def forced_holds(chosen, positive):
        calls.append(None)
        return len(calls) != fail_at and holds(chosen, positive)

    monkeypatch.setattr(removal, "_conclusion_holds", forced_holds)
    return calls


@pytest.mark.parametrize("d, fail_at", [(2, 1), (3, 2), (3, 17), (4, 40), (3, 61)])
def test_random_search_returns_the_former_loops_instance(monkeypatch, d, fail_at):
    # Both loops evaluate the conclusion once per draw that passes the
    # hypotheses, so forcing it to fail at the fail_at-th evaluation stops
    # both at the same tested draw; past the samples, both come out clean.
    config = SearchConfig(sizes=(1, 2, 3, 4), d=d, exhaustive=False, seed=d, samples=60)
    calls = fail_at_tested(monkeypatch, fail_at)
    hit = search_counterexample(config)
    assert len(calls) == min(fail_at, config.samples)
    calls.clear()
    expected = old_random_search(config)
    assert len(calls) == min(fail_at, config.samples)
    assert hit == expected
    assert (hit is None) == (fail_at > config.samples)


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(sizes=(2, 3), d=3, exhaustive=False, seed=5, samples=40),
        SearchConfig(sizes=(2,), d=3),
    ],
)
def test_a_search_builds_at_most_one_instance(monkeypatch, config):
    built = []
    validate = RemovalInstance.__post_init__

    def counting(self):
        built.append(None)
        validate(self)

    monkeypatch.setattr(RemovalInstance, "__post_init__", counting)
    assert search_counterexample(config) is None
    assert built == []
    monkeypatch.setattr(removal, "_conclusion_holds", lambda *args: False)
    assert isinstance(search_counterexample(config), RemovalInstance)
    assert len(built) == 1


def test_coupling_menu_matches_the_former_translation_systems(monkeypatch):
    # Every weight vector with numerators 0, 1 or 2 on up to 4 points (90
    # distinct ones): the menu's, and ones that only some shifts preserve,
    # such as (1, 2, 1, 2) / 6.  The menu of all the families is compared
    # with the one built on the former systems, in order.
    weight_vectors = {
        tuple(F(x, sum(nums)) for x in nums)
        for n in range(1, 5)
        for nums in iter_product(range(3), repeat=n)
        if any(nums)
    }
    assert len(weight_vectors) == 90
    for weights in weight_vectors:
        space = ExactProbabilitySpace(tuple(range(len(weights))), weights)
        for d in range(1, 5):
            assert removal._translation_systems(space, d) == old_translation_systems(space, d)
            if d == 1:
                continue
            menu = removal._coupling_menu(space, d, removal.FAMILIES)
            with monkeypatch.context() as m:
                m.setattr(removal, "_translation_systems", old_translation_systems)
                assert menu == removal._coupling_menu(space, d, removal.FAMILIES)


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4)])
def test_psi_maps_are_the_monotone_product_in_order(n, d):
    parts = removal._all_partitions(n)
    masks = ground_masks(d)
    maps = list(removal._psi_maps(parts, masks, [range(len(parts))] * len(masks)))
    assert maps == old_psi_maps(parts, masks, cap=len(parts) ** len(masks))
    assert len(maps) == {(2, 3): 9, (3, 3): 150, (2, 4): 114}[n, d]


def test_psi_maps_draw_only_identified_partitions():
    # Restricting each index set to the partitions it identifies drops
    # exactly the maps whose shells fail hypothesis [ii], keeping the order.
    n, d = 3, 3
    parts = removal._all_partitions(n)
    masks = ground_masks(d)
    space = ExactProbabilitySpace(tuple(range(n)), (F(1, 6), F(1, 3), F(1, 2)))
    top = UpSet.principal(d, range(d))
    families = tuple(((top, frozenset(range(n))),) for _ in range(d))
    kept = set()
    for coupling in removal._coupling_menu(space, d, SearchConfig().families):
        allowed = [
            [c for c, p in enumerate(parts) if identified_on(coupling, m, p)]
            for m in masks
        ]
        maps = list(removal._psi_maps(parts, masks, allowed))
        expected = [
            psi
            for psi in old_psi_maps(parts, masks)
            if fraction_identification(RemovalInstance(space, coupling, psi, families))[0]
        ]
        assert maps == expected
        kept.add(len(maps))
    assert len(kept) > 1 and 0 < min(kept) and max(kept) == 150


@pytest.mark.parametrize("n, d", [(3, 3), (2, 4)])
def test_sweep_checks_only_hypothesis_iii_per_map(monkeypatch, n, d):
    # Every map the sweep draws already passes [i] and [ii] as
    # check_hypotheses tests them, and the scan, which checks only [iii],
    # returns an instance exactly when the map passes [iii] too (every
    # combination is forced to fail, so any shell it keeps yields one).
    monkeypatch.setattr(removal, "_conclusion_holds", lambda *args: False)
    parts = removal._all_partitions(n)
    masks = ground_masks(d)
    coord_upsets = removal._coordinate_upsets(d)
    top = UpSet.principal(d, range(d))
    families = tuple(((top, frozenset(range(n))),) for _ in range(d))
    outcomes = set()
    for weights in removal._weight_menu(n):
        space = ExactProbabilitySpace(tuple(range(n)), weights)
        for coupling in removal._coupling_menu(space, d, SearchConfig().families):
            allowed = [
                [c for c, p in enumerate(parts) if identified_on(coupling, m, p)]
                for m in masks
            ]
            memo = KernelMemo(coupling.as_space())
            for psi in removal._psi_maps(parts, masks, allowed):
                hyp = check_hypotheses(RemovalInstance(space, coupling, psi, families))
                assert hyp.monotone and hyp.identified
                hit = removal._scan_families(space, coupling, psi, coord_upsets, memo)
                assert (hit is not None) == hyp.independent
                outcomes.add(hyp.independent)
    assert outcomes == {True, False}


def test_psi_maps_reach_every_monotone_map_at_four_points():
    # The former sweep stopped at 60 maps here (constants and graded chains).
    parts = removal._all_partitions(4)
    masks = ground_masks(3)
    maps = removal._psi_maps(parts, masks, [range(len(parts))] * len(masks))
    assert sum(1 for _ in maps) == 4116 > len(old_psi_maps(parts, masks))


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(sizes=(2,), d=3),
        SearchConfig(sizes=(4,), d=3, families=("product",)),
    ],
)
def test_sweep_verdict_matches_the_former_sweep(config):
    assert search_counterexample(config) == old_exhaustive_search(config) is None


def test_search_rejects_oversized_exhaustive_config():
    with pytest.raises(ValueError, match="too large"):
        search_counterexample(SearchConfig(sizes=(5,), d=3, exhaustive=True))
    with pytest.raises(ValueError, match="too large"):
        search_counterexample(SearchConfig(sizes=(2, 4), d=4, exhaustive=True))
    with pytest.raises(ValueError, match="too large"):
        search_counterexample(SearchConfig(sizes=(2,), d=5, exhaustive=True))


def test_exhaustive_sweep_visits_each_size_once(monkeypatch):
    swept = []
    menu = removal._weight_menu
    monkeypatch.setattr(removal, "_weight_menu", lambda n: swept.append(n) or menu(n))
    assert search_counterexample(SearchConfig(sizes=(2, 1, 2, 1), d=3)) is None
    assert swept == [2, 1]


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"sizes": (0,), "exhaustive": False, "samples": 1}, "sizes"),
        ({"sizes": (2, -1), "exhaustive": False}, "sizes"),
        ({"sizes": (0,)}, "sizes"),
        ({"sizes": ()}, "sizes"),
        ({"sizes": (2,), "exhaustive": False, "samples": 0}, "samples"),
        ({"sizes": (2,), "exhaustive": False, "samples": -3}, "samples"),
        ({"families": ()}, "families"),
        ({"families": ("bogus",)}, "families"),
        ({"families": ("diagonal", "bogus"), "exhaustive": False}, "families"),
        ({"d": 1}, "d"),
        ({"d": 0, "exhaustive": False}, "d"),
        ({"d": -2}, "d"),
    ],
)
def test_search_config_rejects_empty_domains(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field}:"):
        SearchConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"sizes": (5,), "d": 3}, "sizes: .* at most 4 points at d = 3, got 5$"),
        ({"sizes": (2, 4), "d": 4}, "sizes: .* at most 3 points at d = 4, got 4$"),
        ({"sizes": (2,), "d": 5}, "d: .* at most d = 4, got 5$"),
    ],
)
def test_oversized_exhaustive_error_names_the_limit(kwargs, error):
    config = SearchConfig(**kwargs)
    with pytest.raises(ValueError, match=f"^{error}"):
        search_counterexample(config)


@pytest.mark.parametrize(
    "sizes, d, error",
    [
        ((316,), 2, None),
        ((2, 317), 2, "sizes: .* at most 316 points at d = 2, got 317$"),
        ((46,), 3, None),
        ((47,), 3, "sizes: .* at most 46 points at d = 3, got 47$"),
        ((4,), 8, None),
        ((5,), 8, "sizes: .* at most 4 points at d = 8, got 5$"),
        ((1,), 9, "d: .* at most d = 8, got 9$"),
    ],
)
def test_random_mode_bounds_the_work_of_one_draw(sizes, d, error):
    # At most 100,000 product-coupling tuples (max(sizes)**d) and 100,000
    # index-set pairs in hypothesis [i] ((2**d - d - 1)**2) per draw.
    config = SearchConfig(sizes=sizes, d=d, exhaustive=False)
    if error is None:
        removal._check_random_domain(config)
    else:
        with pytest.raises(ValueError, match=f"^{error}"):
            search_counterexample(config)


# -- lifting scenarios -----------------------------------------------------------------

def test_level_set_replacement_randomized():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 6)
        nums = [rng.randint(0, 3) for _ in range(n)]
        if sum(nums) == 0:
            nums[0] = 1
        sp = ExactProbabilitySpace(
            tuple(range(n)), tuple(F(v, sum(nums)) for v in nums)
        )
        a = frozenset(x for x in range(n) if rng.random() < 0.5)
        part = Partition.from_labels([rng.randrange(3) for _ in range(n)])
        a2, gap = level_set_replacement(sp, a, part)
        assert gap == 0
        # The replacement is measurable for the conditioning partition.
        for block in part.blocks:
            assert set(block) <= a2 or not (set(block) & a2)


def test_lifting_scenario_report_all_pass():
    rep = lifting_scenario_report()
    assert rep["level_set"]["all_null_gaps"]
    assert rep["level_set"]["finest_gives_support"]
    assert rep["duplicate_merge"]["product_mass_preserved"]
    assert rep["duplicate_merge"]["conclusion_unchanged"]
    assert rep["threshold"]["product_null_before"]
    assert rep["threshold"]["replaced_product_null"]
    assert rep["threshold"]["delta"] < F(1, 3)
