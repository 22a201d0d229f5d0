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
from itertools import product as iter_product
from math import prod

from .measure import ExactProbabilitySpace
from .systems import FiniteZdSystem, _orbits, translation_perm

_COMPONENT_ORDERS = (1, 2, 3, 4, 5, 6)


def random_system(
    rng: random.Random,
    max_points: int = 12,
    dim: int = 2,
) -> FiniteZdSystem:
    """A random finite system: commuting translations on a disjoint union of
    small abelian groups, with weights constant on translation orbits.

    Each component is a product of one or two cyclic groups, its points
    labelled ``(component, element)`` in product order.  A generator's
    translation of a component is mixed-radix index arithmetic
    (:func:`~ergolab.systems.translation_perm`), offset past the earlier
    components' points; no element tuple is added or looked up.  The
    orbits come from the one union-find of the invariant factors."""
    labels: list = []
    perms: list[list[int]] = [[] for _ in range(dim)]
    remaining = max_points
    for ci in range(rng.randint(1, 3)):
        if remaining < 1:
            break
        choices = [o for o in _COMPONENT_ORDERS if o <= remaining]
        o1 = rng.choice(choices)
        orders = [o1]
        if rng.random() < 0.3:
            sub = [o for o in _COMPONENT_ORDERS if o1 * o <= remaining]
            if sub:
                orders.append(rng.choice(sub))
        remaining -= prod(orders)
        offset = len(labels)
        labels.extend((ci, e) for e in iter_product(*map(range, orders)))
        for perm in perms:
            shift = [rng.randrange(o) for o in orders]
            perm.extend(map(offset.__add__, translation_perm(orders, shift)))
    if not labels:
        # The trivial group, for a point budget below 1.
        labels.append((0, (0,)))
        for perm in perms:
            perm.append(0)
    # Orbits of the translations are the cosets of the generated subgroups,
    # numbered in order of their first element.
    n = len(labels)
    orbits = _orbits(n, range(n), perms)

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
