"""Finite Z^d systems: actions, invariant factors, rotations, joinings."""
from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from helpers import (
    basis_subgroup,
    cofactor_det,
    cyclic_system,
    fraction_system_error,
    full_orbit_partition,
    generated_subgroup,
    long_period_system,
    old_perm_order,
    old_perm_power,
    old_relative_independence,
    perm_order,
    quotient_system,
    random_subgroup,
    three_direction_torus,
    torus_system,
    two_fold_joining_check,
    unreduced_subgroup_order,
)

from ergolab import systems
from ergolab.generators import random_system
from ergolab.measure import ExactProbabilitySpace, Partition, ValidationError
from ergolab.systems import (
    FactorMap,
    FiniteZdSystem,
    GroupRotationSystem,
    SubgroupSpec,
    compose,
    in_partially_trivial_join,
    invariant_factor,
    is_partially_trivial,
    joint_distribution_predicate,
    perm_power,
    rotation_extension,
    verify_direct_sum,
)

F = Fraction


# -- construction and the action ------------------------------------------------

def test_noncommuting_generators_rejected():
    sp = ExactProbabilitySpace.uniform((0, 1, 2))
    g = (1, 2, 0)
    h = (1, 0, 2)  # swap does not commute with the 3-cycle
    with pytest.raises(ValueError):
        FiniteZdSystem(sp, (g, h))


def test_generator_errors_are_located_value_errors():
    skew = ExactProbabilitySpace((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)))
    uniform = ExactProbabilitySpace.uniform((0, 1, 2))
    for space, gens, expected in (
        (skew, ((1, 2, 0),), "$.generators[0]: weight not preserved at point 0"),
        (skew, ((0, 2, 1), (0, 1)), "$.generators[1]: not a permutation of the points"),
        # The first failure is reported, also past point 0 and generator 0.
        (
            ExactProbabilitySpace((0, 1, 2), (F(1, 4), F(1, 2), F(1, 4))),
            ((0, 2, 1),),
            "$.generators[0]: weight not preserved at point 1",
        ),
        (
            ExactProbabilitySpace((0, 1, 2, 3), (F(1, 4), F(1, 4), F(1, 8), F(3, 8))),
            ((0, 1, 2, 3), (1, 0, 3, 2)),
            "$.generators[1]: weight not preserved at point 2",
        ),
        (skew, ((1, 0, 2), (0, 1)), "$.generators[0]: weight not preserved at point 0"),
        (
            uniform,
            ((0, 1, 2), (1, 2, 0), (1, 0, 2)),
            "$.generators: generators 1 and 2 do not commute",
        ),
    ):
        with pytest.raises(ValueError) as exc:
            FiniteZdSystem(space, gens)
        assert isinstance(exc.value, ValidationError)
        assert str(exc.value) == expected


def test_weight_preservation_rejected():
    sp = ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3)))
    with pytest.raises(ValueError):
        FiniteZdSystem(sp, ((1, 0),))


def _preserving_perm(rng, weights):
    """A random permutation of the points that moves each point within its
    class of equal weight."""
    perm = list(range(len(weights)))
    for w in set(weights):
        cls = [x for x in perm if weights[x] == w]
        for x, y in zip(cls, rng.sample(cls, len(cls))):
            perm[x] = y
    return tuple(perm)


def test_system_checks_on_numerators_match_the_fraction_checks():
    # Seeded spaces whose weights take two or three values, each built as a
    # separate Fraction, with generators that preserve the weights, that do
    # not, that commute or not, or that are no permutation.
    rng = random.Random(20)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(2, 7)
        values = [F(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
        raw = [rng.choice(values) for _ in range(n)]
        total = sum(raw, F(0)) or F(1)
        weights = [F(w.numerator * total.denominator, w.denominator * total.numerator) for w in raw]
        if sum(weights, F(0)) != 1:
            weights = [F(1, n)] * n
        space = ExactProbabilitySpace(tuple(range(n)), tuple(weights))
        gens = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.6:
                gens.append(_preserving_perm(rng, space.weights))
            elif roll < 0.95:
                gens.append(tuple(rng.sample(range(n), n)))
            else:
                gens.append(tuple(rng.randrange(n) for _ in range(n)))
        expected = fraction_system_error(space, gens)
        verdicts.add(expected and re.sub(r"\d+", "#", expected))
        try:
            FiniteZdSystem(space, tuple(gens))
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected
    assert verdicts == {
        None,
        "$.generators[#]: not a permutation of the points",
        "$.generators[#]: weight not preserved at point #",
        "$.generators: generators # and # do not commute",
    }


def test_act_identity_and_cyclic_power():
    sys_ = cyclic_system(4, 1)
    assert sys_.act((0,)) == (0, 1, 2, 3)
    assert sys_.act((3,)) == tuple((x + 3) % 4 for x in range(4))


def test_act_composition_example():
    sys_ = cyclic_system(5, 1, 2)
    # (+1) then (+2) applied once each: x -> x + 3 mod 5.
    assert sys_.act((1, 1)) == tuple((x + 3) % 5 for x in range(5))


def test_act_is_homomorphism_randomized():
    rng = random.Random(11)
    for _ in range(120):
        sys_ = random_system(rng, max_points=9, dim=rng.randint(1, 3))
        m = tuple(rng.randint(-3, 3) for _ in range(sys_.dim))
        n = tuple(rng.randint(-3, 3) for _ in range(sys_.dim))
        mn = tuple(a + b for a, b in zip(m, n))
        assert sys_.act(mn) == compose(sys_.act(m), sys_.act(n))


def test_perm_power_and_order_match_the_composing_loop():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(0, 9)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        order = old_perm_order(p)
        assert perm_order(p) == order
        for k in range(-2 * order - 1, 2 * order + 2):
            assert perm_power(p, k) == old_perm_power(p, k)


def _composed(p, k):
    """``p`` composed with itself ``k`` times, read for ``k < 0`` as the
    ``-k``-fold composition of the inverse, found by searching ``p``."""
    n = len(p)
    step = p if k >= 0 else tuple(p.index(x) for x in range(n))
    out = tuple(range(n))
    for _ in range(abs(k)):
        out = compose(step, out)
    return out


def test_perm_power_and_act_equal_repeated_composition():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(0, 12)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        for k in range(-3, 4):
            assert perm_power(p, k) == _composed(p, k)
        assert systems.perm_inverse(p) == _composed(p, -1)
    for _ in range(200):
        sys_ = random_system(rng, max_points=rng.choice([4, 12]), dim=rng.randint(1, 4))
        vec = tuple(rng.randint(-3, 3) for _ in range(sys_.dim))
        expected = tuple(range(len(sys_)))
        for g, k in zip(sys_.generators, vec):
            expected = compose(_composed(g, k), expected)
        assert sys_.act(vec) == expected


def test_translations_by_index_arithmetic_match_the_element_sums():
    # The former construction: add the shift to each element tuple and look
    # the sum up in the element list.
    rng = random.Random(19)
    for _ in range(300):
        orders = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        shift = tuple(rng.randrange(o) for o in orders)
        rot = GroupRotationSystem(orders, (shift,))
        elems = rot.elements()
        index = {e: i for i, e in enumerate(elems)}
        expected = [index[rot.add(e, shift)] for e in elems]
        assert systems.translation_perm(orders, shift) == expected


def test_act_reads_long_periods_off_the_cycles():
    # One generator on 100 points with cycles 2, 3, 5, ..., 23: its order is
    # 223,092,870, which a power loop would step through.
    sys_ = long_period_system()
    L = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    start = time.perf_counter()
    assert perm_order(sys_.generators[0]) == L
    assert sys_.act((L,)) == tuple(range(100))
    assert sys_.act((L + 1,)) == sys_.generators[0]
    assert sys_.act((-1,)) == perm_power(sys_.generators[0], L - 1)
    assert time.perf_counter() - start < 1.0


# -- invariant factors -------------------------------------------------------------

def test_invariant_factor_trivial_subgroup():
    sys_ = cyclic_system(5, 1)
    assert invariant_factor(sys_, SubgroupSpec(())) == Partition.singletons(5)


def test_invariant_factor_torus_rows():
    sys_ = torus_system(5, (1, 0), (0, 1))
    p = invariant_factor(sys_, basis_subgroup(2, 0))
    assert len(p.blocks) == 5
    # Blocks fix the second coordinate.
    for block in p.blocks:
        seconds = {sys_.space.points[i][1] for i in block}
        assert len(seconds) == 1


def test_invariant_factor_difference_action():
    # Orbits of the (1,-1) shift are the 5 cosets of the anti-diagonal line,
    # i.e. the level sets of the sum of coordinates.
    sys_ = torus_system(5, (1, 0), (0, 1))
    diff = SubgroupSpec(((1, -1),))
    p = invariant_factor(sys_, diff)
    assert len(p.blocks) == 5
    for block in p.blocks:
        sums = {(a + b) % 5 for a, b in (sys_.space.points[i] for i in block)}
        assert len(sums) == 1
    # The same form appears as the invariant of the diagonal direction of the
    # three-direction torus: there the difference of coordinates is constant.
    tri = three_direction_torus(5)
    p3 = invariant_factor(tri, basis_subgroup(3, 2))
    for block in p3.blocks:
        diffs = {(a - b) % 5 for a, b in (tri.space.points[i] for i in block)}
        assert len(diffs) == 1


def test_invariant_factor_minimality_blocks_are_orbits():
    rng = random.Random(5)
    for _ in range(40):
        sys_ = random_system(rng, max_points=10, dim=2)
        gamma = random_subgroup(rng, 2, max_vectors=2)
        p = invariant_factor(sys_, gamma)
        supp = set(sys_.space.support())
        perms = [sys_.act(v) for v in gamma.vectors]
        # Invariance: blocks map into blocks over the support.
        for perm in perms:
            for block in p.blocks:
                live = [x for x in block if x in supp]
                images = {p.block_of(perm[x]) for x in live}
                assert len(images) <= 1
        # Zero-weight points are singletons.
        for block in p.blocks:
            if any(x not in supp for x in block):
                assert len(block) == 1
        # Minimality: within a block, support points are connected by moves.
        for block in p.blocks:
            live = [x for x in block if x in supp]
            if len(live) <= 1:
                continue
            reach = {live[0]}
            frontier = [live[0]]
            while frontier:
                x = frontier.pop()
                for perm in perms:
                    for y in (perm[x], perm.index(x)):
                        if y in supp and y not in reach and p.block_of(y) == p.block_of(x):
                            reach.add(y)
                            frontier.append(y)
            assert set(live) == reach


def test_zero_weight_points_are_singletons():
    sp = ExactProbabilitySpace((0, 1, 2, 3), (F(1, 2), F(1, 2), F(0), F(0)))
    g = (1, 0, 3, 2)
    sys_ = FiniteZdSystem(sp, (g,))
    p = invariant_factor(sys_, SubgroupSpec(((1,),)))
    assert (2,) in p.blocks and (3,) in p.blocks
    assert (0, 1) in p.blocks


def test_invariant_factor_z2_and_identity_action():
    sys_ = cyclic_system(2, 1)
    assert invariant_factor(sys_, SubgroupSpec(((1,),))) == Partition.one_block(2)
    # A trivial action leaves every point alone: singleton invariance classes.
    ident = FiniteZdSystem(ExactProbabilitySpace.uniform((0, 1, 2)), ((0, 1, 2),))
    assert invariant_factor(ident, SubgroupSpec(((1,),))) == Partition.singletons(3)


def test_invariant_factor_sum_collapse_for_trivial_direction():
    # When the second direction acts trivially, adding it changes nothing.
    rng = random.Random(23)
    for _ in range(30):
        base = random_system(rng, max_points=8, dim=1)
        gens = (base.generators[0], tuple(range(len(base))))
        sys_ = FiniteZdSystem(base.space, gens)
        g1 = basis_subgroup(2, 0)
        g2 = basis_subgroup(2, 1)
        assert is_partially_trivial(sys_, g2)
        assert invariant_factor(sys_, g1) == invariant_factor(sys_, g1 + g2)


# -- rotations -----------------------------------------------------------------

def test_membership_examples():
    assert not in_partially_trivial_join(GroupRotationSystem((2,), ((1,), (1,))))
    assert in_partially_trivial_join(
        GroupRotationSystem((2, 2), ((1, 0), (0, 1)))
    )
    assert in_partially_trivial_join(GroupRotationSystem((4,), ((1,), (0,))))


def test_rotation_extension_z2():
    rot = GroupRotationSystem((2,), ((1,), (1,)))
    ext, fmap = rotation_extension(rot)
    assert ext.orders == (2, 2)
    assert ext.phi == ((1, 0), (0, 1))
    assert in_partially_trivial_join(ext)
    # Summation factor map.
    for i, (a, b) in enumerate(ext.elements()):
        assert fmap.target.space.points[fmap.point_map[i]] == ((a + b) % 2,)


def test_rotation_extension_already_split():
    rot = GroupRotationSystem((2, 2), ((1, 0), (0, 1)))
    ext, _ = rotation_extension(rot)
    assert sorted(ext.orders) == [2, 2]
    assert in_partially_trivial_join(ext)


def test_rotation_extension_z6():
    rot = GroupRotationSystem((6,), ((2,), (3,)))
    ext, fmap = rotation_extension(rot)
    assert sorted(ext.orders) == [2, 3]
    assert in_partially_trivial_join(ext)
    # The extension has the same size here since Z3 + Z2 = Z6.
    assert len(fmap.source.space) == 6


def test_rotation_extension_requires_generation():
    rot = GroupRotationSystem((4,), ((2,), (0,)))
    with pytest.raises(ValueError):
        rotation_extension(rot)


def test_subgroup_arithmetic_is_linear_in_the_cyclic_parts():
    # One lattice row per cyclic part: 10,000 parts of order 2 (a matrix
    # over Z^n with the o_i e_i would have 10^8 entries).
    n = 10_000
    rot = GroupRotationSystem((2,) * n, ((1,) * n, (1,) + (0,) * (n - 1)))
    start = time.perf_counter()
    assert in_partially_trivial_join(rot)
    assert not rot.is_ergodic()
    assert rot.subgroup_order(rot.phi) == 4
    assert time.perf_counter() - start < 1


def test_subgroup_order_keeps_lattice_entries_below_the_denominator():
    # 8 generators over 400 cyclic parts of orders 2 to 9: without reducing
    # mod e after each column, the entries grow through the echelon form.
    rng = random.Random(8)
    orders = tuple(rng.randint(2, 9) for _ in range(400))
    gens = [tuple(rng.randrange(o) for o in orders) for _ in range(8)]
    rot = GroupRotationSystem(orders, tuple(gens[:2]))
    start = time.perf_counter()
    order = rot.subgroup_order(gens)
    elapsed = time.perf_counter() - start
    assert order == unreduced_subgroup_order(rot, gens)
    assert elapsed < 0.2
    # Small groups, against the element-by-element subgroup too.
    for _ in range(200):
        orders = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        gens = [tuple(rng.randrange(o) for o in orders) for _ in range(rng.randint(0, 4))]
        rot = GroupRotationSystem(orders, ())
        expected = len(generated_subgroup(rot, gens))
        assert rot.subgroup_order(gens) == unreduced_subgroup_order(rot, gens) == expected


def test_rotation_extension_refuses_more_than_the_point_bound():
    # 2 * 32769 = 65538 points, two more than the bound; none is built.
    rot = GroupRotationSystem((2, 32769), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="^extension too large: at most 65536 points, got 65538$"):
        rotation_extension(rot)


def test_rotation_extension_always_passes_membership():
    rng = random.Random(3)
    done = 0
    while done < 60:
        orders = tuple(
            rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 2))
        )
        rot = GroupRotationSystem(
            orders,
            (
                tuple(rng.randrange(o) for o in orders),
                tuple(rng.randrange(o) for o in orders),
            ),
        )
        if not rot.is_ergodic():
            continue
        ext, _ = rotation_extension(rot)
        assert in_partially_trivial_join(ext)
        done += 1


# -- quotients and factor maps ----------------------------------------------------

def test_factor_map_validation():
    sys_ = cyclic_system(4, 1)
    target = cyclic_system(2, 1)
    fmap = FactorMap(sys_, target, (0, 1, 0, 1))
    assert fmap.fiber_partition() == Partition(4, ((0, 2), (1, 3)))
    with pytest.raises(ValueError):
        FactorMap(sys_, target, (0, 0, 1, 1))  # not equivariant


def test_quotient_system_roundtrip():
    sys_ = torus_system(3, (1, 0), (0, 1))
    p = full_orbit_partition(sys_, basis_subgroup(2, 0))
    target, fmap = quotient_system(sys_, p)
    assert len(target.space) == 3
    assert is_partially_trivial(target, basis_subgroup(2, 0))


# -- joining predicates ------------------------------------------------------------

def test_two_fold_joining_product_case():
    # Independent joining of two partially trivial systems.
    sys_ = torus_system(3, (1, 0), (0, 1))
    g1 = basis_subgroup(2, 0)
    g2 = basis_subgroup(2, 1)
    x1, pi1 = quotient_system(sys_, full_orbit_partition(sys_, g1))
    x2, pi2 = quotient_system(sys_, full_orbit_partition(sys_, g2))
    rep = two_fold_joining_check(sys_, pi1, pi2, g1, g2)
    assert rep.holds


def test_two_fold_joining_diagonal_same_subgroup():
    sys_ = cyclic_system(4, 1, 0)
    g = basis_subgroup(2, 1)
    x1, pi1 = quotient_system(sys_, full_orbit_partition(sys_, g))
    rep = two_fold_joining_check(sys_, pi1, pi1, g, g)
    assert rep.holds


def test_two_fold_joining_randomized():
    rng = random.Random(17)
    for _ in range(60):
        sys_ = random_system(rng, max_points=10, dim=2)
        g1 = random_subgroup(rng, 2, max_vectors=1)
        g2 = random_subgroup(rng, 2, max_vectors=1)
        x1, pi1 = quotient_system(sys_, full_orbit_partition(sys_, g1))
        x2, pi2 = quotient_system(sys_, full_orbit_partition(sys_, g2))
        rep = two_fold_joining_check(sys_, pi1, pi2, g1, g2)
        assert rep.holds, rep.witness


def test_two_fold_precondition_enforced():
    sys_ = torus_system(3, (1, 0), (0, 1))
    g1 = basis_subgroup(2, 0)
    x1, pi1 = quotient_system(sys_, full_orbit_partition(sys_, g1))
    with pytest.raises(ValueError):
        # The target is not trivial under the wrong subgroup.
        two_fold_joining_check(sys_, pi1, pi1, basis_subgroup(2, 1), g1)


def test_direct_sum_verification():
    verify_direct_sum(
        [basis_subgroup(2, 0), basis_subgroup(2, 1)], 2
    )
    verify_direct_sum([SubgroupSpec(((1, 0), (1, 1))), SubgroupSpec(())], 2)
    with pytest.raises(ValueError):
        verify_direct_sum([SubgroupSpec(((2, 0),)), SubgroupSpec(((0, 1),))], 2)
    with pytest.raises(ValueError):
        verify_direct_sum([SubgroupSpec(((1, 0),))], 2)


def test_lattice_index_matches_cofactor_expansion():
    rng = random.Random(17)
    entries = [0, 0, 0, 1, -1, 2, -3, 5, 12]  # zeros force pivot row swaps
    dets = set()
    for _ in range(1500):
        n = rng.randint(0, 6)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        expected = abs(cofactor_det(rows))
        assert systems._lattice_index(rows, n) == expected
        dets.add(expected)
    assert 0 in dets and len(dets) > 100


def test_lattice_index_of_any_row_count_is_the_gcd_of_the_maximal_minors():
    # The index of a full-rank lattice is the gcd of its n x n minors; a
    # lattice of lower rank has every such minor 0 (and gcd() is 0).
    rng = random.Random(29)
    entries = [0, 0, 1, -1, 2, -2, 3, 4, -6]
    indices = set()
    for _ in range(800):
        n = rng.randint(0, 4)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randint(0, n + 3))]
        expected = gcd(*(cofactor_det(list(sub)) for sub in combinations(rows, n)))
        assert systems._lattice_index(rows, n) == expected
        indices.add(expected)
    assert {0, 1, 2, 3} <= indices


def _random_rotation(rng):
    orders = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
    return GroupRotationSystem(
        orders, tuple(tuple(rng.randrange(o) for o in orders) for _ in range(2))
    )


def test_subgroup_arithmetic_matches_the_breadth_first_search():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(2000):
        rot = _random_rotation(rng)
        a, b = rot.phi
        ca, cb = generated_subgroup(rot, [a]), generated_subgroup(rot, [b])
        whole = generated_subgroup(rot, rot.phi)
        assert rot.subgroup_order([a]) == len(ca)
        assert rot.subgroup_order([b]) == len(cb)
        assert rot.subgroup_order(rot.phi) == len(whole)
        gens = [tuple(rng.randrange(o) for o in rot.orders) for _ in range(rng.randint(0, 3))]
        assert rot.subgroup_order(gens) == len(generated_subgroup(rot, gens))
        ergodic = len(whole) == prod(rot.orders)
        member = len(ca & cb) == 1
        assert rot.is_ergodic() == ergodic
        assert in_partially_trivial_join(rot) == member
        verdicts.add((ergodic, member))
    assert len(verdicts) == 4


def _unimodular(rng, n, steps=60):
    """An integer matrix of determinant +-1: the identity under random
    row additions and swaps."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_direct_sum_verification_at_dimension_12():
    rows = _unimodular(random.Random(5), 12)
    assert max(abs(a) for r in rows for a in r) > 1
    subgroups = [SubgroupSpec(tuple(map(tuple, rows[i : i + 3]))) for i in range(0, 12, 3)]
    start = time.perf_counter()
    verify_direct_sum(subgroups, 12)
    rows[0] = [2 * a for a in rows[0]]
    doubled = [SubgroupSpec(tuple(map(tuple, rows[i : i + 3]))) for i in range(0, 12, 3)]
    with pytest.raises(ValueError, match="not a Z-basis"):
        verify_direct_sum(doubled, 12)
    assert time.perf_counter() - start < 0.5


def _quotient_maps(sys_, subgroups):
    maps = []
    for g in subgroups:
        _, pi = quotient_system(sys_, full_orbit_partition(sys_, g))
        maps.append(pi)
    return maps


def test_joint_distribution_single_point_targets():
    sys_ = cyclic_system(3, 1, 1, 1)
    gs = [basis_subgroup(3, i) for i in range(3)]
    maps = _quotient_maps(sys_, gs)
    # All targets are one orbit, hence single-point systems.
    rep = joint_distribution_predicate(sys_, maps, gs, SubgroupSpec(()))
    assert rep.holds


def test_joint_distribution_three_direction_failure():
    sys_ = three_direction_torus(5)
    gs = [basis_subgroup(3, i) for i in range(3)]
    maps = _quotient_maps(sys_, gs)
    rep = joint_distribution_predicate(sys_, maps, gs, SubgroupSpec(()))
    assert not rep.holds
    assert all(not r.holds for r in rep.per_coordinate)


def test_joint_distribution_extension_passes():
    sys_ = torus_system(5, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    gs = [basis_subgroup(3, i) for i in range(3)]
    maps = _quotient_maps(sys_, gs)
    rep = joint_distribution_predicate(sys_, maps, gs, SubgroupSpec(()))
    assert rep.holds


def test_joint_distribution_with_complement_subgroup():
    # Two factors plus a nontrivial complement direction.
    sys_ = torus_system(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    gs = [basis_subgroup(3, 0), basis_subgroup(3, 1)]
    maps = _quotient_maps(sys_, gs)
    rep = joint_distribution_predicate(
        sys_, maps, gs, basis_subgroup(3, 2)
    )
    assert rep.holds
    # Dropping the complement breaks the direct-sum precondition.
    with pytest.raises(ValueError):
        joint_distribution_predicate(sys_, maps, gs, SubgroupSpec(()))


def test_joining_predicates_match_the_block_product_loop(monkeypatch):
    # Every kernel call of the two joining predicates gives the report of
    # the loop over every block tuple.
    kernel = systems.relative_independence
    outcomes = []

    def compared(factors, subfactors, nu):
        rep = kernel(factors, subfactors, nu)
        assert rep == old_relative_independence(factors, subfactors, nu)
        outcomes.append(rep.holds)
        return rep

    monkeypatch.setattr(systems, "relative_independence", compared)
    rng = random.Random(23)
    for _ in range(40):
        sys_ = random_system(rng, max_points=10, dim=rng.choice((2, 3)))
        g1 = random_subgroup(rng, sys_.dim, max_vectors=1)
        g2 = random_subgroup(rng, sys_.dim, max_vectors=1)
        _, pi1 = quotient_system(sys_, full_orbit_partition(sys_, g1))
        _, pi2 = quotient_system(sys_, full_orbit_partition(sys_, g2))
        two_fold_joining_check(sys_, pi1, pi2, g1, g2)
    basis = [basis_subgroup(3, i) for i in range(3)]
    joinings = [
        three_direction_torus(3),
        torus_system(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)),
        *(random_system(rng, max_points=10, dim=3) for _ in range(30)),
    ]
    for sys_ in joinings:
        joint_distribution_predicate(
            sys_, _quotient_maps(sys_, basis), basis, SubgroupSpec(())
        )
    assert set(outcomes) == {True, False}
