"""Seeded random construction of finite systems, joinings, and laws.

Every generator takes an explicit ``random.Random`` so that sampling is
deterministic given a seed; the CLI records the seed in its reports.

Random commuting tuples are built from translations on disjoint unions of
finite abelian groups: translations always commute, and weight preservation
is arranged by making weights constant on the orbits of the generated
translation subgroup.  Those orbits are the connected components of the
translation edges, found by union-find.  Cyclic orders are kept small so
that the tuple period stays desk-scale.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .measure import ExactProbabilitySpace, Partition
from .systems import FiniteZdSystem, GroupRotationSystem, SubgroupSpec

_COMPONENT_ORDERS = (1, 2, 3, 4, 5, 6)


def random_system(
    rng: random.Random,
    max_points: int = 12,
    dim: int = 2,
) -> FiniteZdSystem:
    """A random finite system: commuting translations on a disjoint union of
    small abelian groups, with weights constant on translation orbits."""
    components: list[GroupRotationSystem] = []
    remaining = max_points
    for _ in range(rng.randint(1, 3)):
        if remaining < 1:
            break
        choices = [o for o in _COMPONENT_ORDERS if o <= remaining]
        o1 = rng.choice(choices)
        orders = [o1]
        if rng.random() < 0.3:
            sub = [o for o in _COMPONENT_ORDERS if o1 * o <= remaining]
            if sub:
                orders.append(rng.choice(sub))
        size = 1
        for o in orders:
            size *= o
        remaining -= size
        rot = GroupRotationSystem(
            tuple(orders),
            tuple(
                tuple(rng.randrange(o) for o in orders) for _ in range(dim)
            ),
        )
        components.append(rot)
    if not components:
        components.append(
            GroupRotationSystem((1,), tuple((0,) for _ in range(dim)))
        )

    labels: list = []
    perms: list[list[int]] = [[] for _ in range(dim)]
    for ci, rot in enumerate(components):
        elems = rot.elements()
        index = {e: i for i, e in enumerate(elems)}
        offset = len(labels)
        labels.extend((ci, e) for e in elems)
        for i in range(dim):
            for e in elems:
                perms[i].append(offset + index[rot.add(e, rot.phi[i])])
    # Orbits of the translations are the cosets of the generated subgroups,
    # numbered in order of their first element.
    n = len(labels)
    orbits = Partition.from_pairs(n, ((x, p[x]) for p in perms for x in range(n)))

    while True:
        orbit_weight = [rng.randint(0, 4) for _ in orbits.blocks]
        nums = [orbit_weight[b] for b in orbits.labels]
        total = sum(nums)
        if total > 0:
            break
    weights = tuple(Fraction(v, total) for v in nums)
    space = ExactProbabilitySpace(tuple(labels), weights)
    return FiniteZdSystem(space, tuple(tuple(p) for p in perms))


def random_subset(rng: random.Random, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if rng.random() < 0.5)


def random_nonnull_subset(rng: random.Random, space: ExactProbabilitySpace) -> frozenset[int]:
    supp = space.support()
    while True:
        s = random_subset(rng, len(space))
        if any(i in s for i in supp):
            return s


def random_subgroup(rng: random.Random, dim: int, max_vectors: int = 1) -> SubgroupSpec:
    vectors = []
    for _ in range(rng.randint(0, max_vectors)):
        vectors.append(tuple(rng.randint(-2, 2) for _ in range(dim)))
    return SubgroupSpec(tuple(vectors))


def random_vector_sequence(
    rng: random.Random, dim: int = 2, length: int = 8
) -> "tuple[tuple[Fraction, ...], ...]":
    return tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
        for _ in range(length)
    )
