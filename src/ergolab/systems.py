"""Finite probability-preserving Z^d systems and their joining structure.

A system is a finite weighted point set together with d commuting
weight-preserving permutations (the generator images of the basis vectors).
Partially invariant factors are orbit partitions of subgroup subactions,
group rotations supply the concrete extension example, and the two joining
predicates test relative-independence structure of finite joinings exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import gcd, lcm
from typing import Iterable, Sequence

from .measure import (
    ExactProbabilitySpace,
    IndependenceReport,
    Partition,
    ValidationError,
    common_refinement,
    relative_independence,
)

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_permutation(p: Sequence[int], n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation ``p after q``: x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def perm_order(p: Perm) -> int:
    """lcm of the cycle lengths."""
    seen = [False] * len(p)
    out = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        out = lcm(out, length)
    return out


def perm_power(p: Perm, k: int) -> Perm:
    n = len(p)
    if n == 0:
        return p
    k %= perm_order(p)
    out = identity_perm(n)
    for _ in range(k):
        out = compose(p, out)
    return out


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteZdSystem:
    """A finite probability space acted on by d commuting weight-preserving
    permutations.  A failed check raises a :class:`ValidationError` located
    at the generator, e.g. ``$.generators[1]: not a permutation of the points``."""

    space: ExactProbabilitySpace
    generators: tuple[Perm, ...]

    def __post_init__(self) -> None:
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        n = len(self.space)
        for i, g in enumerate(gens):
            if not is_permutation(g, n):
                raise ValidationError(["generators", i], "not a permutation of the points")
            for x in range(n):
                if self.space.weights[g[x]] != self.space.weights[x]:
                    raise ValidationError(
                        ["generators", i], f"weight not preserved at point {x}"
                    )
        for (i, a), (j, b) in combinations(enumerate(gens), 2):
            if compose(a, b) != compose(b, a):
                raise ValidationError(["generators"], f"generators {i} and {j} do not commute")

    @property
    def dim(self) -> int:
        return len(self.generators)

    def __len__(self) -> int:
        return len(self.space)

    def act(self, n_vec: Sequence[int]) -> Perm:
        """The permutation of the group element with coordinates ``n_vec``."""
        if len(n_vec) != self.dim:
            raise ValueError("vector length must equal the dimension")
        out = identity_perm(len(self.space))
        for g, k in zip(self.generators, n_vec):
            out = compose(perm_power(g, k), out)
        return out


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup of Z^D given by a finite list of integer generator vectors.

    The empty list denotes the trivial subgroup.
    """

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        vecs = tuple(tuple(int(c) for c in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        dims = {len(v) for v in vecs}
        if len(dims) > 1:
            raise ValueError("generator vectors must share one dimension")

    @classmethod
    def trivial(cls) -> "SubgroupSpec":
        return cls(())

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "SubgroupSpec":
        v = [0] * dim
        v[i] = 1
        return cls((tuple(v),))

    def __add__(self, other: "SubgroupSpec") -> "SubgroupSpec":
        return SubgroupSpec(self.vectors + other.vectors)


@dataclass(frozen=True)
class FactorMap:
    """An equivariant measure-preserving point map between systems.

    Equivariance is enforced on the support of the source; zero-weight points
    must still map somewhere but their images are unconstrained.
    """

    source: FiniteZdSystem
    target: FiniteZdSystem
    point_map: tuple[int, ...]

    def __post_init__(self) -> None:
        pm = tuple(self.point_map)
        object.__setattr__(self, "point_map", pm)
        if self.source.dim != self.target.dim:
            raise ValueError("source and target must share the acting dimension")
        n, m = len(self.source), len(self.target)
        if len(pm) != n or any(not 0 <= y < m for y in pm):
            raise ValueError("point map must send source indices to target indices")
        push = [Fraction(0)] * m
        for x in range(n):
            push[pm[x]] += self.source.space.weights[x]
        if tuple(push) != self.target.space.weights:
            raise ValueError("pushforward of the source weights must equal the target weights")
        supp = self.source.space.support()
        for i in range(self.source.dim):
            g, h = self.source.generators[i], self.target.generators[i]
            for x in supp:
                if pm[g[x]] != h[pm[x]]:
                    raise ValueError(f"map fails to intertwine generator {i}")

    def fiber_partition(self) -> Partition:
        return Partition.from_labels(self.point_map)

    def pullback(self, partition: Partition) -> Partition:
        if partition.size != len(self.target):
            raise ValueError("partition must live on the target")
        return Partition.from_labels(
            tuple(partition.block_of(self.point_map[x]) for x in range(len(self.source)))
        )


# ---------------------------------------------------------------------------
# partially invariant factors
# ---------------------------------------------------------------------------

def orbit_partition(
    sys: FiniteZdSystem, subgroup: SubgroupSpec, restrict_to_support: bool = True
) -> Partition:
    """Orbits of the permutation group generated by the subgroup's images.

    With ``restrict_to_support`` the orbits are computed inside the support
    only and zero-weight points become singletons; without it the orbits run
    over all points (convenient for building quotient systems).
    """
    n = len(sys)
    if restrict_to_support:
        eligible = set(sys.space.support())
    else:
        eligible = set(range(n))
    if any(len(v) != sys.dim for v in subgroup.vectors):
        raise ValueError("subgroup vectors must match the system dimension")
    perms = [sys.act(v) for v in subgroup.vectors]
    return Partition.from_pairs(
        n, ((x, p[x]) for p in perms for x in eligible if p[x] in eligible)
    )


def invariant_factor(sys: FiniteZdSystem, subgroup: SubgroupSpec) -> Partition:
    """The partially invariant factor of a subgroup subaction.

    Blocks are subgroup orbits on the support, with zero-weight points
    attached as singletons; this is the finest partition whose block unions
    are a.e. invariant under the subaction.
    """
    return orbit_partition(sys, subgroup, restrict_to_support=True)


def is_partially_trivial(sys: FiniteZdSystem, subgroup: SubgroupSpec) -> bool:
    """Whether every subgroup generator acts as the identity on the support."""
    supp = sys.space.support()
    for v in subgroup.vectors:
        p = sys.act(v)
        if any(p[x] != x for x in supp):
            return False
    return True


def quotient_system(
    sys: FiniteZdSystem, partition: Partition
) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by a partition whose blocks are permuted by every generator."""
    if partition.size != len(sys):
        raise ValueError("partition must live on the system's points")
    labels = partition.labels
    gens_out = []
    for g in sys.generators:
        out = [None] * len(partition.blocks)
        for bi, block in enumerate(partition.blocks):
            images = {labels[g[x]] for x in block}
            if len(images) != 1:
                raise ValueError("generators must map blocks to blocks")
            out[bi] = images.pop()
        gens_out.append(tuple(out))
    weights = tuple(sys.space.measure(b) for b in partition.blocks)
    space = ExactProbabilitySpace(
        tuple(f"b{i}" for i in range(len(partition.blocks))), weights
    )
    target = FiniteZdSystem(space, tuple(gens_out))
    fmap = FactorMap(sys, target, tuple(labels))
    return target, fmap


# ---------------------------------------------------------------------------
# group rotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupRotationSystem:
    """A rotation action of Z^D on a finite abelian group given as a product
    of cyclic groups, via the images of the basis vectors."""

    orders: tuple[int, ...]
    phi: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        orders = tuple(int(o) for o in self.orders)
        if not orders or any(o < 1 for o in orders):
            raise ValueError("cyclic orders must be positive")
        phi = tuple(
            tuple(int(c) % o for c, o in zip(v, orders)) for v in self.phi
        )
        if any(len(v) != len(orders) for v in self.phi):
            raise ValueError("each image must have one coordinate per cyclic part")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "phi", phi)

    @property
    def dim(self) -> int:
        return len(self.phi)

    def elements(self) -> list[tuple[int, ...]]:
        return list(iter_product(*(range(o) for o in self.orders)))

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def scale(self, k: int, g: Sequence[int]) -> tuple[int, ...]:
        return tuple((k * x) % o for x, o in zip(g, self.orders))

    def element_order(self, g: Sequence[int]) -> int:
        return lcm(*(o // gcd(x, o) for x, o in zip(g, self.orders)))

    def cyclic_subgroup(self, g: Sequence[int]) -> frozenset[tuple[int, ...]]:
        return frozenset(self.scale(k, g) for k in range(self.element_order(g)))

    def generated_subgroup(
        self, gens: Iterable[Sequence[int]]
    ) -> frozenset[tuple[int, ...]]:
        zero = tuple(0 for _ in self.orders)
        seen = {zero}
        frontier = [zero]
        gens = [tuple(g) for g in gens]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def is_ergodic(self) -> bool:
        """Finite surrogate for ergodicity: the images generate the group."""
        return len(self.generated_subgroup(self.phi)) == len(self.elements())

    def to_system(self) -> FiniteZdSystem:
        """The induced finite system: uniform weights, translation generators."""
        elems = self.elements()
        index = {e: i for i, e in enumerate(elems)}
        space = ExactProbabilitySpace.uniform(tuple(elems))
        gens = tuple(
            tuple(index[self.add(e, v)] for e in elems) for v in self.phi
        )
        return FiniteZdSystem(space, gens)


def in_partially_trivial_join(rot: GroupRotationSystem) -> bool:
    """Whether a two-direction rotation is a join of its two one-direction
    quotients, i.e. the cyclic subgroups generated by the two images intersect
    trivially."""
    if rot.dim != 2:
        raise ValueError("the membership test is defined for two directions")
    c1 = rot.cyclic_subgroup(rot.phi[0])
    c2 = rot.cyclic_subgroup(rot.phi[1])
    return len(c1 & c2) == 1


def rotation_extension(
    rot: GroupRotationSystem,
) -> tuple[GroupRotationSystem, FactorMap]:
    """Extend an ergodic two-direction rotation to one that splits as a direct
    sum of its direction subgroups.

    The extension lives on ``Z_o1 + Z_o2`` (``o_i`` the order of the i-th
    image), the new images are ``(1,0)`` and ``(0,1)``, and the factor map is
    summation ``(a,b) -> a*phi_1 + b*phi_2``.  The output always passes
    :func:`in_partially_trivial_join`.
    """
    if rot.dim != 2:
        raise ValueError("the extension is defined for two directions")
    if not rot.is_ergodic():
        raise ValueError("ergodicity precondition fails: the images do not generate")
    o1 = rot.element_order(rot.phi[0])
    o2 = rot.element_order(rot.phi[1])
    ext = GroupRotationSystem((o1, o2), ((1, 0), (0, 1)))
    ext_sys = ext.to_system()
    base_sys = rot.to_system()
    base_index = {e: i for i, e in enumerate(rot.elements())}
    pm = []
    for a, b in ext.elements():
        img = rot.add(rot.scale(a, rot.phi[0]), rot.scale(b, rot.phi[1]))
        pm.append(base_index[img])
    fmap = FactorMap(ext_sys, base_sys, tuple(pm))
    return ext, fmap


# ---------------------------------------------------------------------------
# joining predicates
# ---------------------------------------------------------------------------

def two_fold_joining_check(
    joining: FiniteZdSystem,
    pi1: FactorMap,
    pi2: FactorMap,
    gamma1: SubgroupSpec,
    gamma2: SubgroupSpec,
) -> IndependenceReport:
    """Exhaustively verify that a joining of two partially trivial systems is
    relatively independent over their ``gamma1 + gamma2`` invariant factors.

    This holds for every valid input, so a ``False`` outcome indicates a bug
    or a violated precondition.
    """
    for pi in (pi1, pi2):
        if pi.source is not joining and pi.source != joining:
            raise ValueError("both factor maps must start from the joining system")
    for pi, gamma in ((pi1, gamma1), (pi2, gamma2)):
        if not is_partially_trivial(pi.target, gamma):
            raise ValueError("each target must be trivial under its subgroup")
    total = gamma1 + gamma2
    factors = (pi1.fiber_partition(), pi2.fiber_partition())
    subfactors = (
        pi1.pullback(invariant_factor(pi1.target, total)),
        pi2.pullback(invariant_factor(pi2.target, total)),
    )
    return relative_independence(factors, subfactors, joining.space)


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (Math. Comp. 1968), in O(n^3) integer operations.

    After step ``k`` every entry below and right of the pivot is a ``k+1``
    by ``k+1`` minor of the input, so each division by the previous pivot
    is exact; a row swap flips the sign.
    """
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, pivot_row = m[k][k], m[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if n else 1


def verify_direct_sum(subgroups: Sequence[SubgroupSpec], dim: int) -> None:
    """Check that the listed subgroups give a direct sum decomposition of Z^dim.

    The stacked generator matrix must be square of full rank with all
    elementary divisors equal to 1, i.e. an integer matrix of determinant
    +-1.  Raises ValueError otherwise.
    """
    rows = [list(v) for g in subgroups for v in g.vectors]
    if any(len(r) != dim for r in rows):
        raise ValueError("generator vectors must have length equal to the dimension")
    if len(rows) != dim:
        raise ValueError(
            "decomposition check fails: generator count differs from the dimension"
        )
    if abs(_int_det(rows)) != 1:
        raise ValueError("decomposition check fails: generators are not a Z-basis")


@dataclass(frozen=True)
class JointDistributionReport:
    """Per-coordinate relative-independence outcomes for a joining of
    partially trivial systems."""

    per_coordinate: tuple[IndependenceReport, ...]

    @property
    def holds(self) -> bool:
        return all(r.holds for r in self.per_coordinate)


def joint_distribution_predicate(
    joining: FiniteZdSystem,
    maps: Sequence[FactorMap],
    subgroups: Sequence[SubgroupSpec],
    lam: SubgroupSpec,
) -> JointDistributionReport:
    """Test, coordinate by coordinate, whether each pullback factor is
    relatively independent from the others over the pullback of the join of
    its pairwise-sum invariant factors.

    The subgroups together with ``lam`` must form a direct sum decomposition
    of ``Z^D`` and each target must be trivial under its own subgroup.  The
    predicate may legitimately fail: it measures how far a concrete joining is
    from the structured situation.
    """
    r = len(maps)
    if len(subgroups) != r or r < 1:
        raise ValueError("need one subgroup per factor map")
    verify_direct_sum(list(subgroups) + [lam], joining.dim)
    for pi, gamma in zip(maps, subgroups):
        if pi.source is not joining and pi.source != joining:
            raise ValueError("all factor maps must start from the joining system")
        if not is_partially_trivial(pi.target, gamma):
            raise ValueError("each target must be trivial under its subgroup")
    fibers = [pi.fiber_partition() for pi in maps]
    results = []
    for i in range(r):
        parts = [
            invariant_factor(maps[i].target, subgroups[i] + subgroups[j])
            for j in range(r)
            if j != i
        ]
        if parts:
            further = maps[i].pullback(common_refinement(*parts))
        else:
            further = Partition.one_block(len(joining))
        subs = list(fibers)
        subs[i] = further
        results.append(relative_independence(fibers, subs, joining.space))
    return JointDistributionReport(tuple(results))
