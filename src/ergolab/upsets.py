"""Upward-closed families of index subsets of size at least 2.

Members are bitmasks over ``range(d)``.  The poset is the collection of
subsets of ``{0, ..., d-1}`` of size >= 2 ordered by inclusion; an up-set is
closed upward under inclusion.

:func:`enumerate_upsets` is the one up-set family every structure check
quantifies over, and :func:`upset_pair_independence` is the one check that
lifted up-set algebras are relatively independent over the algebra of their
intersection.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .measure import (
    ExactProbabilitySpace,
    IndependenceReport,
    Partition,
    common_refinement,
    relative_independence,
)


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def bits_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def ground_masks(d: int) -> tuple[int, ...]:
    """All subsets of ``range(d)`` of size >= 2, as bitmasks, sorted."""
    out = []
    for size in range(2, d + 1):
        for combo in combinations(range(d), size):
            out.append(mask_of(combo))
    return tuple(sorted(out))


@dataclass(frozen=True)
class UpSet:
    """An upward-closed set of bitmasks of size >= 2 over ``range(d)``."""

    d: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(int(m) for m in self.members)
        object.__setattr__(self, "members", members)
        full = mask_of(range(self.d))
        for m in members:
            if popcount(m) < 2:
                raise ValueError("members must have size at least 2")
            if m & ~full:
                raise ValueError("member out of range")
        for m in members:
            for i in range(self.d):
                sup = m | (1 << i)
                if sup != m and sup not in members:
                    raise ValueError("family is not upward closed")

    @classmethod
    def closure(cls, d: int, antichain: Iterable[Iterable[int]]) -> "UpSet":
        """Upward closure of a family of generating subsets."""
        gens = [mask_of(a) for a in antichain]
        if any(popcount(g) < 2 for g in gens):
            raise ValueError("generators must have size at least 2")
        members = {m for m in ground_masks(d) if any(m & g == g for g in gens)}
        return cls(d, frozenset(members))

    @classmethod
    def principal(cls, d: int, e: Iterable[int]) -> "UpSet":
        """All supersets of ``e`` of size >= 2 (``e`` itself may be small)."""
        em = mask_of(e)
        return cls(d, frozenset(m for m in ground_masks(d) if m & em == em))

    @classmethod
    def empty(cls, d: int) -> "UpSet":
        return cls(d, frozenset())

    @classmethod
    def full(cls, d: int) -> "UpSet":
        return cls(d, frozenset(ground_masks(d)))

    def intersect(self, other: "UpSet") -> "UpSet":
        if self.d != other.d:
            raise ValueError("up-sets live over different ground dimensions")
        return UpSet(self.d, self.members & other.members)

    __and__ = intersect

    def depth(self) -> int:
        """Minimal member size; undefined (raises) for the empty up-set."""
        if not self.members:
            raise ValueError("the empty up-set has no depth")
        return min(popcount(m) for m in self.members)

    def minimal_members(self) -> frozenset[int]:
        out = set()
        for m in self.members:
            if not any(o != m and o & m == o for o in self.members):
                out.add(m)
        return frozenset(out)

    def __contains__(self, item: int) -> bool:
        return int(item) in self.members

    def __le__(self, other: "UpSet") -> bool:
        return self.d == other.d and self.members <= other.members


@cache
def enumerate_upsets(d: int, include_empty: bool = True) -> tuple[UpSet, ...]:
    """The up-set family over subsets of ``range(d)`` of size >= 2.

    For d <= 4 this is every up-set, sorted by member list.  For larger d
    the poset of up-sets explodes combinatorially, so the family is the
    full up-set, optionally the empty one, and the principal up-sets of the
    masks of size >= 2.  Both families are closed under ``&``: up-sets
    intersect to up-sets, and principal(e) & principal(e') is
    principal(e | e').  Without the empty up-set the family stays closed,
    since every nonempty up-set contains the full index set.

    The family is built once per ``(d, include_empty)`` and the same tuple
    is returned on every later call; it is immutable, since ``UpSet`` is
    frozen and its members are a frozenset.
    """
    if d <= 4:
        ground = ground_masks(d)
        out = []
        for bits in range(1 << len(ground)):
            members = frozenset(
                ground[i] for i in range(len(ground)) if bits >> i & 1
            )
            try:
                out.append(UpSet(d, members))
            except ValueError:
                continue
        if not include_empty:
            out = [u for u in out if u.members]
        return tuple(sorted(out, key=lambda u: sorted(u.members)))
    out = [UpSet.full(d)]
    if include_empty:
        out.append(UpSet.empty(d))
    for m in ground_masks(d):
        out.append(UpSet.closure(d, [bits_of(m)]))
    unique = {u.members: u for u in out}
    return tuple(unique.values())


@dataclass(frozen=True)
class StructureReport:
    """Structure predicates of a coupling: the coordinate clause, and one
    relative-independence report per ordered pair of up-sets (the oblique
    clause).  Both clauses can fail for unstructured couplings."""

    coordinate_clause: IndependenceReport
    oblique_pairs: tuple[tuple[frozenset, frozenset, IndependenceReport], ...]

    @property
    def coordinate_holds(self) -> bool:
        return self.coordinate_clause.holds

    @property
    def oblique_holds(self) -> bool:
        return all(r.holds for _, _, r in self.oblique_pairs)


def upset_pair_independence(
    upsets: Sequence[UpSet],
    member_partition: Callable[[int], Partition],
    space: ExactProbabilitySpace,
) -> Iterator[tuple[UpSet, UpSet, IndependenceReport]]:
    """Yield ``(a, b, report)`` for every ordered pair of the up-sets.

    ``member_partition(mask)`` is a member's algebra as a partition of
    ``space``; it is called once per mask.  An up-set's lift is the join of
    its members' partitions (one block for the empty up-set), and the report
    tests the lifts of ``a`` and ``b`` for relative independence over the
    lift of ``a & b``.  The up-sets must share one ``d`` and be closed under
    ``&``, as :func:`enumerate_upsets` is; otherwise ``ValueError`` is
    raised.  The meet is looked up by ``a.members & b.members``: that set is
    the members of ``a & b``, so no ``UpSet`` is built or validated per pair.

    A pair where the lift of ``a`` or of ``b`` equals the lift of ``a & b``
    is answered ``IndependenceReport(True, None)`` (one shared report)
    without calling :func:`relative_independence`.  This is exact: say the
    lift of ``a`` is the meet.  Then its block indicator ``f`` is measurable
    for the meet, so ``E(f | meet) = f`` and, by the tower property,
    ``int f g = int E(f g | meet) = int f E(g | meet)`` for every block
    indicator ``g`` of ``b``, which is the identity the kernel checks.  The
    kernel's coarsening precondition holds here too, since a lift is the
    join of its members and the members of ``a & b`` are members of ``a``
    and of ``b``, so the skip never hides a ``ValueError``.
    """
    if len({u.d for u in upsets}) > 1:
        raise ValueError("up-sets live over different ground dimensions")
    parts: dict[int, Partition] = {}
    lift: dict[frozenset, Partition] = {}
    for u in upsets:
        for m in sorted(u.members):
            if m not in parts:
                parts[m] = member_partition(m)
        lift[u.members] = (
            common_refinement(*(parts[m] for m in u.members))
            if u.members
            else Partition.one_block(len(space))
        )
    tautology = IndependenceReport(True, None)
    for a in upsets:
        la = lift[a.members]
        for b in upsets:
            meet_members = a.members & b.members
            meet = lift.get(meet_members)
            if meet is None:
                raise ValueError(
                    "up-set family is not closed under &: the meet "
                    f"{sorted(bits_of(m) for m in meet_members)} is missing"
                )
            lb = lift[b.members]
            if la == meet or lb == meet:
                yield a, b, tautology
            else:
                yield a, b, relative_independence((la, lb), (meet, meet), space)
