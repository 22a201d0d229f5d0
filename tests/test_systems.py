"""Finite Z^d systems: actions, invariant factors, rotations, joinings."""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from helpers import cofactor_det, cyclic_system, three_direction_torus, torus_system

from ergolab.generators import random_subgroup, random_system
from ergolab.measure import ExactProbabilitySpace, Partition, ae_equal, common_refinement
from ergolab.systems import (
    _int_det,
    FactorMap,
    FiniteZdSystem,
    GroupRotationSystem,
    SubgroupSpec,
    compose,
    in_partially_trivial_join,
    invariant_factor,
    is_partially_trivial,
    joint_distribution_predicate,
    orbit_partition,
    quotient_system,
    rotation_extension,
    two_fold_joining_check,
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
    from ergolab.measure import ValidationError

    skew = ExactProbabilitySpace((0, 1, 2), (F(1, 2), F(1, 4), F(1, 4)))
    uniform = ExactProbabilitySpace.uniform((0, 1, 2))
    for space, gens, expected in (
        (skew, ((1, 2, 0),), "$.generators[0]: weight not preserved at point 0"),
        (skew, ((0, 2, 1), (0, 1)), "$.generators[1]: not a permutation of the points"),
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


# -- invariant factors -------------------------------------------------------------

def test_invariant_factor_trivial_subgroup():
    sys_ = cyclic_system(5, 1)
    assert invariant_factor(sys_, SubgroupSpec.trivial()) == Partition.singletons(5)


def test_invariant_factor_torus_rows():
    sys_ = torus_system(5, (1, 0), (0, 1))
    p = invariant_factor(sys_, SubgroupSpec.basis_vector(2, 0))
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
    p3 = invariant_factor(tri, SubgroupSpec.basis_vector(3, 2))
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
        g1 = SubgroupSpec.basis_vector(2, 0)
        g2 = SubgroupSpec.basis_vector(2, 1)
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
    p = orbit_partition(sys_, SubgroupSpec.basis_vector(2, 0), restrict_to_support=False)
    target, fmap = quotient_system(sys_, p)
    assert len(target.space) == 3
    assert is_partially_trivial(target, SubgroupSpec.basis_vector(2, 0))


# -- joining predicates ------------------------------------------------------------

def test_two_fold_joining_product_case():
    # Independent joining of two partially trivial systems.
    sys_ = torus_system(3, (1, 0), (0, 1))
    g1 = SubgroupSpec.basis_vector(2, 0)
    g2 = SubgroupSpec.basis_vector(2, 1)
    x1, pi1 = quotient_system(sys_, orbit_partition(sys_, g1, False))
    x2, pi2 = quotient_system(sys_, orbit_partition(sys_, g2, False))
    rep = two_fold_joining_check(sys_, pi1, pi2, g1, g2)
    assert rep.holds


def test_two_fold_joining_diagonal_same_subgroup():
    sys_ = cyclic_system(4, 1, 0)
    g = SubgroupSpec.basis_vector(2, 1)
    x1, pi1 = quotient_system(sys_, orbit_partition(sys_, g, False))
    rep = two_fold_joining_check(sys_, pi1, pi1, g, g)
    assert rep.holds


def test_two_fold_joining_randomized():
    rng = random.Random(17)
    for _ in range(60):
        sys_ = random_system(rng, max_points=10, dim=2)
        g1 = random_subgroup(rng, 2, max_vectors=1)
        g2 = random_subgroup(rng, 2, max_vectors=1)
        x1, pi1 = quotient_system(sys_, orbit_partition(sys_, g1, False))
        x2, pi2 = quotient_system(sys_, orbit_partition(sys_, g2, False))
        rep = two_fold_joining_check(sys_, pi1, pi2, g1, g2)
        assert rep.holds, rep.witness


def test_two_fold_precondition_enforced():
    sys_ = torus_system(3, (1, 0), (0, 1))
    g1 = SubgroupSpec.basis_vector(2, 0)
    x1, pi1 = quotient_system(sys_, orbit_partition(sys_, g1, False))
    with pytest.raises(ValueError):
        # The target is not trivial under the wrong subgroup.
        two_fold_joining_check(sys_, pi1, pi1, SubgroupSpec.basis_vector(2, 1), g1)


def test_direct_sum_verification():
    verify_direct_sum(
        [SubgroupSpec.basis_vector(2, 0), SubgroupSpec.basis_vector(2, 1)], 2
    )
    verify_direct_sum([SubgroupSpec(((1, 0), (1, 1))), SubgroupSpec(())], 2)
    with pytest.raises(ValueError):
        verify_direct_sum([SubgroupSpec(((2, 0),)), SubgroupSpec(((0, 1),))], 2)
    with pytest.raises(ValueError):
        verify_direct_sum([SubgroupSpec(((1, 0),))], 2)


def test_int_det_matches_cofactor_expansion():
    rng = random.Random(17)
    entries = [0, 0, 0, 1, -1, 2, -3, 5, 12]  # zeros force pivot row swaps
    dets = set()
    for _ in range(1500):
        n = rng.randint(0, 6)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        expected = cofactor_det(rows)
        assert _int_det(rows) == expected
        dets.add(expected)
    assert 0 in dets and len(dets) > 100


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
        _, pi = quotient_system(sys_, orbit_partition(sys_, g, False))
        maps.append(pi)
    return maps


def test_joint_distribution_single_point_targets():
    sys_ = cyclic_system(3, 1, 1, 1)
    gs = [SubgroupSpec.basis_vector(3, i) for i in range(3)]
    maps = _quotient_maps(sys_, gs)
    # All targets are one orbit, hence single-point systems.
    rep = joint_distribution_predicate(sys_, maps, gs, SubgroupSpec.trivial())
    assert rep.holds


def test_joint_distribution_three_direction_failure():
    sys_ = three_direction_torus(5)
    gs = [SubgroupSpec.basis_vector(3, i) for i in range(3)]
    maps = _quotient_maps(sys_, gs)
    rep = joint_distribution_predicate(sys_, maps, gs, SubgroupSpec.trivial())
    assert not rep.holds
    assert all(not r.holds for r in rep.per_coordinate)


def test_joint_distribution_extension_passes():
    sys_ = torus_system(5, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    gs = [SubgroupSpec.basis_vector(3, i) for i in range(3)]
    maps = _quotient_maps(sys_, gs)
    rep = joint_distribution_predicate(sys_, maps, gs, SubgroupSpec.trivial())
    assert rep.holds


def test_joint_distribution_with_complement_subgroup():
    # Two factors plus a nontrivial complement direction.
    sys_ = torus_system(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    gs = [SubgroupSpec.basis_vector(3, 0), SubgroupSpec.basis_vector(3, 1)]
    maps = _quotient_maps(sys_, gs)
    rep = joint_distribution_predicate(
        sys_, maps, gs, SubgroupSpec.basis_vector(3, 2)
    )
    assert rep.holds
    # Dropping the complement breaks the direct-sum precondition.
    with pytest.raises(ValueError):
        joint_distribution_predicate(sys_, maps, gs, SubgroupSpec.trivial())
