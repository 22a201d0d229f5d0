"""Finite probability-preserving Z^d systems and their joining structure.

A system is a finite weighted point set together with d commuting
weight-preserving permutations (the generator images of the basis vectors).
Partially invariant factors are orbit partitions of subgroup subactions,
group rotations supply the concrete extension example, and the two joining
predicates test relative-independence structure of finite joinings exactly.
Subgroup orders (so membership and ergodicity of a rotation) and direct
sums are lattice-index arithmetic (``_lattice_index``); no subgroup is
listed element by element.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import gcd, lcm, prod
from operator import index
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
    return tuple(map(p.__getitem__, q))


def cycle_decomposition(p: Perm) -> tuple[list[Perm], list[int]]:
    """Each point's cycle under ``p`` (one tuple per cycle, from its least
    point) and its position in it, so ``cycle[x][pos[x]] == x``."""
    cycle: list = [None] * len(p)
    pos = [0] * len(p)
    for start in range(len(p)):
        if cycle[start] is None:
            c = [start]
            while p[c[-1]] != start:
                c.append(p[c[-1]])
            c = tuple(c)
            for i, y in enumerate(c):
                cycle[y], pos[y] = c, i
    return cycle, pos


def perm_inverse(p: Perm) -> Perm:
    """The inverse of ``p``, built in one pass over its points."""
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def perm_power(p: Perm, k: int) -> Perm:
    """``p`` applied ``k`` times, for any integer ``k``, read off the cycles."""
    cycle, pos = cycle_decomposition(p)
    return tuple(c[(i + k) % len(c)] for c, i in zip(cycle, pos))


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
        gens = tuple(tuple(map(index, g)) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        n = len(self.space)
        # Weights compare as their numerators over the common denominator.
        _, nums = self.space.integerized()
        for i, g in enumerate(gens):
            if not is_permutation(g, n):
                raise ValidationError(["generators", i], "not a permutation of the points")
            if tuple(map(nums.__getitem__, g)) != nums:
                x = next(x for x in range(n) if nums[g[x]] != nums[x])
                raise ValidationError(["generators", i], f"weight not preserved at point {x}")
        for (i, a), (j, b) in combinations(enumerate(gens), 2):
            if compose(a, b) != compose(b, a):
                raise ValidationError(["generators"], f"generators {i} and {j} do not commute")

    @property
    def dim(self) -> int:
        return len(self.generators)

    def __len__(self) -> int:
        return len(self.space)

    def act(self, n_vec: Sequence[int]) -> Perm:
        """The permutation of the group element with coordinates ``n_vec``:
        the composition of the generators' powers, a power 1 being the
        generator itself and any other nonzero power read off its cycle
        decomposition (:func:`perm_power`)."""
        if len(n_vec) != self.dim:
            raise ValueError("vector length must equal the dimension")
        out = identity_perm(len(self.space))
        for g, k in zip(self.generators, n_vec):
            if k:
                out = compose(g if k == 1 else perm_power(g, k), out)
        return out


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup of Z^D given by a finite list of integer generator vectors.

    The empty list denotes the trivial subgroup.
    """

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        vecs = tuple(tuple(map(index, v)) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        dims = {len(v) for v in vecs}
        if len(dims) > 1:
            raise ValueError("generator vectors must share one dimension")

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

def _orbits(n: int, points: Sequence[int], perms: Sequence[Perm]) -> Partition:
    """Orbits on ``points`` of the group the permutations ``perms`` of
    ``range(n)`` generate; every other point is a singleton.  ``points``
    must be mapped onto itself by each of ``perms``, as the support is by
    every weight-preserving permutation.  This one union-find
    (:meth:`Partition.from_pairs`) builds every partially invariant factor."""
    return Partition.from_pairs(n, ((x, p[x]) for p in perms for x in points))


def invariant_factor(sys: FiniteZdSystem, subgroup: SubgroupSpec) -> Partition:
    """The partially invariant factor of a subgroup subaction.

    Blocks are subgroup orbits on the support, with zero-weight points
    attached as singletons; this is the finest partition whose block unions
    are a.e. invariant under the subaction.
    """
    if any(len(v) != sys.dim for v in subgroup.vectors):
        raise ValueError("subgroup vectors must match the system dimension")
    return _orbits(len(sys), sys.space.support(), [sys.act(v) for v in subgroup.vectors])


def is_partially_trivial(sys: FiniteZdSystem, subgroup: SubgroupSpec) -> bool:
    """Whether every subgroup generator acts as the identity on the support."""
    supp = sys.space.support()
    for v in subgroup.vectors:
        p = sys.act(v)
        if any(p[x] != x for x in supp):
            return False
    return True


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
        orders = tuple(map(index, self.orders))
        if not orders or any(o < 1 for o in orders):
            raise ValueError("cyclic orders must be positive")
        phi = tuple(
            tuple(index(c) % o for c, o in zip(v, orders)) for v in self.phi
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

    def subgroup_order(self, gens: Iterable[Sequence[int]]) -> int:
        """The order of the subgroup the ``k`` elements ``gens`` generate.

        By duality it is the order of the subgroup of ``(Q/Z)^k`` that the
        ``v_i / o_i`` generate (``v_i`` the gens' ``i``-th coordinates):
        ``e^k`` over the index of the lattice that ``e Z^k`` and the
        ``e v_i / o_i`` span, for a common denominator ``e``.
        """
        gens = [tuple(g) for g in gens]
        k = len(gens)
        cols = [(o, [g[i] % o for g in gens]) for i, o in enumerate(self.orders)]
        e = lcm(*(o // gcd(o, *v) for o, v in cols))
        rows = [[e * x // o for x in v] for o, v in cols]
        rows += ([e if j == i else 0 for j in range(k)] for i in range(k))
        return e**k // _lattice_index(rows, k, e)

    def is_ergodic(self) -> bool:
        """Finite surrogate for ergodicity: the images generate the group."""
        return self.subgroup_order(self.phi) == prod(self.orders)

    def to_system(self) -> FiniteZdSystem:
        """The induced finite system: uniform weights, translation generators."""
        space = ExactProbabilitySpace.uniform(tuple(self.elements()))
        gens = tuple(translation_perm(self.orders, v) for v in self.phi)
        return FiniteZdSystem(space, gens)


def translation_perm(orders: Sequence[int], shift: Sequence[int]) -> list[int]:
    """The translation ``e -> e + shift`` of ``Z_o1 x ... x Z_ok`` as a
    permutation of element indices, the elements numbered in product order
    (:meth:`GroupRotationSystem.elements`).  That order is mixed radix, ``e``
    having index ``(e_1 o_2 + e_2) o_3 + ...``, so the permutation is built
    one cyclic part at a time, with no element tuple made."""
    out = [0]
    for o, s in zip(orders, shift):
        digits = [(y + s) % o for y in range(o)]
        out = [x * o + y for x in out for y in digits]
    return out


def in_partially_trivial_join(rot: GroupRotationSystem) -> bool:
    """Whether a two-direction rotation is a join of its two one-direction
    quotients, i.e. the cyclic subgroups generated by the two images intersect
    trivially: ``|<a> & <b>| = |<a>| |<b>| / |<a, b>|`` is 1."""
    if rot.dim != 2:
        raise ValueError("the membership test is defined for two directions")
    a, b = rot.phi
    return rot.subgroup_order([a]) * rot.subgroup_order([b]) == rot.subgroup_order([a, b])


_MAX_EXTENSION_POINTS = 1 << 16


def rotation_extension(
    rot: GroupRotationSystem,
) -> tuple[GroupRotationSystem, FactorMap]:
    """Extend an ergodic two-direction rotation to one that splits as a direct
    sum of its direction subgroups.

    The extension lives on ``Z_o1 + Z_o2`` (``o_i`` the order of the i-th
    image), the new images are ``(1,0)`` and ``(0,1)``, and the factor map is
    summation ``(a,b) -> a*phi_1 + b*phi_2``.  The output always passes
    :func:`in_partially_trivial_join`.  Every point of the extension is
    built, so one of more than ``_MAX_EXTENSION_POINTS`` points is refused.
    """
    if rot.dim != 2:
        raise ValueError("the extension is defined for two directions")
    if not rot.is_ergodic():
        raise ValueError("ergodicity precondition fails: the images do not generate")
    o1, o2 = (rot.subgroup_order([g]) for g in rot.phi)
    if o1 * o2 > _MAX_EXTENSION_POINTS:
        raise ValueError(
            f"extension too large: at most {_MAX_EXTENSION_POINTS} points, got {o1 * o2}"
        )
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

def _lattice_index(rows: Sequence[Sequence[int]], dim: int, modulus: int = 0) -> int:
    """The index in ``Z^dim`` of the lattice the integer ``rows`` span, or 0
    when their rank is below ``dim``.

    Column by column, Euclid's algorithm on row operations folds every
    remaining row's entry into one pivot row (their gcd) and clears the
    others; the index is the product of the pivots of this echelon form.

    A nonzero ``modulus`` ``e`` promises that ``e Z^dim`` lies in the
    lattice.  Then the remaining rows span the lattice's vectors that are
    zero on the columns done, which hold ``e`` times every such vector; so
    after each column they are reduced mod ``e``, zero rows dropped, and
    ``e`` times each later unit vector added, which spans the same lattice
    and keeps every entry below ``e``.
    """
    rows = [list(r) for r in rows]
    out = 1
    for col in range(dim):
        pivot, rest = None, []
        for row in rows:
            while pivot is not None and row[col]:
                q = pivot[col] // row[col]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]
            if pivot is None and row[col]:
                pivot = row
            else:
                rest.append(row)
        if pivot is None:
            return 0
        out *= abs(pivot[col])
        if modulus:
            rest = [r for r in ([x % modulus for x in row] for row in rest) if any(r)]
            rest += ([modulus if j == i else 0 for j in range(dim)] for i in range(col + 1, dim))
        rows = rest
    return out


def verify_direct_sum(subgroups: Sequence[SubgroupSpec], dim: int) -> None:
    """Check that the listed subgroups give a direct sum decomposition of Z^dim.

    The stacked generator matrix must be square and span ``Z^dim``, i.e.
    its lattice has index 1.  Raises ValueError otherwise.
    """
    rows = [list(v) for g in subgroups for v in g.vectors]
    if any(len(r) != dim for r in rows):
        raise ValueError("generator vectors must have length equal to the dimension")
    if len(rows) != dim:
        raise ValueError(
            "decomposition check fails: generator count differs from the dimension"
        )
    if _lattice_index(rows, dim) != 1:
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
