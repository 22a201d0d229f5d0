"""Upward-closed families of index subsets of size at least 2.

Members are bitmasks over ``range(d)``.  The poset is the collection of
subsets of ``{0, ..., d-1}`` of size >= 2 ordered by inclusion; an up-set is
closed upward under inclusion.

:func:`enumerate_upsets` is the one up-set family every structure check
quantifies over, and :func:`upset_pair_independence` is the one check that
lifted up-set algebras are relatively independent over the algebra of their
intersection.  :func:`structure_report` builds both structure clauses of a
coupling from its family ``psi`` of algebras; the self-joining and
line-marginal reports differ only in ``psi``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from operator import index
from typing import Callable, Iterable, Iterator, Sequence

from .measure import (
    Coupling,
    ExactProbabilitySpace,
    IndependenceReport,
    Partition,
    ValidationError,
    common_refinement,
    relative_independence,
    support_pullback_partition,
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


@cache
def ground_masks(d: int) -> tuple[int, ...]:
    """All subsets of ``range(d)`` of size >= 2, as bitmasks, sorted.

    Built once per ``d``; the tuple is immutable, so every call shares it.
    """
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
        members = frozenset(map(index, self.members))
        object.__setattr__(self, "members", members)
        if self.d < 0:
            raise ValidationError(["d"], f"expected a nonnegative dimension, got {self.d}")
        full = (1 << self.d) - 1
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
        """Upward closure of a family of generating subsets: the union of
        their principal up-sets."""
        gens = [tuple(a) for a in antichain]
        if any(popcount(mask_of(g)) < 2 for g in gens):
            raise ValueError("generators must have size at least 2")
        return cls(d, frozenset().union(*(cls.principal(d, g).members for g in gens)))

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

    def __contains__(self, item: int) -> bool:
        return index(item) in self.members


@cache
def enumerate_upsets(d: int) -> tuple[UpSet, ...]:
    """The up-set family over subsets of ``range(d)`` of size >= 2.

    For d <= 4 this is every up-set, sorted by member list.  For larger d
    the poset of up-sets explodes combinatorially, so the family is the
    full up-set, the empty one, and the principal up-sets of the masks of
    size >= 2.  Both families are closed under ``&``: up-sets intersect to
    up-sets, and principal(e) & principal(e') is principal(e | e').
    Without the empty up-set the family stays closed, since every nonempty
    up-set contains the full index set.

    The family is built once per ``d`` and the same tuple is returned on
    every later call; it is immutable, since ``UpSet`` is frozen and its
    members are a frozenset.
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
        return tuple(sorted(out, key=lambda u: sorted(u.members)))
    # No two coincide: a principal up-set holds the full index set and has
    # one minimal member, so it is neither the empty nor the full up-set.
    principal = (UpSet.closure(d, [bits_of(m)]) for m in ground_masks(d))
    return (UpSet.full(d), UpSet.empty(d), *principal)


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


def structure_report(coupling: Coupling, psi: dict) -> StructureReport:
    """Both structure clauses of a coupling of arity ``d`` and its family
    ``psi``: one partition of the base points for each mask of
    :func:`ground_masks`, identified on its mask (:func:`identified_on`).
    A missing or extra mask, or a partition of the wrong size or failing
    hypothesis [ii], raises ``ValueError`` naming the mask.

    Clause one tests the singleton factors for relative independence over,
    at coordinate ``i``, the join of the pair factors ``psi[mask_of((i,
    j))]`` through ``i`` (one block when ``d == 1``).  Clause two is
    :func:`upset_pair_independence` over :func:`enumerate_upsets` with the
    :func:`oblique_members` of ``psi``.
    """
    d, n = coupling.arity, len(coupling.base)
    masks = ground_masks(d)
    for m in psi:
        if m not in masks:
            raise ValueError(f"psi: {m!r} is not an index set of size >= 2 over range({d})")
    for m in masks:
        if m not in psi:
            raise ValueError(f"psi: no partition for the index set {bits_of(m)}")
        if psi[m].size != n or not identified_on(coupling, m, psi[m]):
            raise ValueError(f"psi: {bits_of(m)} needs a partition of the base points "
                             "that satisfies hypothesis [ii]")
    subfactors = []
    for i in range(d):
        through = [psi[mask_of((i, j))] for j in range(d) if j != i]
        subfactors.append(common_refinement(*through) if through else Partition.one_block(n))
    coordinate = relative_independence([Partition.singletons(n)] * d, subfactors, coupling)
    members = oblique_members(coupling, psi).__getitem__
    oblique = upset_pair_independence(enumerate_upsets(d), members, coupling.as_space())
    return StructureReport(coordinate, tuple((a.members, b.members, r) for a, b, r in oblique))


def identified_on(coupling: Coupling, mask: int, partition: Partition) -> bool:
    """Hypothesis [ii] for one index set: every block of ``partition``, a
    partition of the base points, pulls back equally, up to null sets,
    through the coordinates of ``mask``.

    Stored masses are positive, so the mass of the tuples whose coordinates
    i and j fall on different sides of a block is nonzero exactly when some
    support tuple has different labels at i and j.
    """
    labels = partition.labels
    pairs = tuple(combinations(bits_of(mask), 2))
    return all(labels[t[i]] == labels[t[j]] for t in coupling.support() for i, j in pairs)


def oblique_members(coupling: Coupling, psi: dict) -> dict[int, Partition]:
    """The member algebra of each mask of :func:`ground_masks`: ``psi[mask]``
    pulled back through the least coordinate of the mask, a partition of
    the coupling's support tuples.

    The least coordinate is the canonical representative, which hypothesis
    [ii] makes immaterial up to null sets.  Masks with the same partition
    and least coordinate share one pullback.
    """
    pullbacks: dict = {}
    members = {}
    for m in ground_masks(coupling.arity):
        least = (m & -m).bit_length() - 1
        key = (psi[m].labels, least)
        if key not in pullbacks:
            pullbacks[key] = support_pullback_partition(coupling, psi[m], least)
        members[m] = pullbacks[key]
    return members


@dataclass(frozen=True, eq=False)
class KernelMemo:
    """Reports of :func:`relative_independence` on one space, keyed by the
    canonical labels of the three lifts (of ``a``, of ``b``, of the meet).

    Calls of :func:`upset_pair_independence` that check many families of
    partitions of one space may share one memo, so that each distinct
    triple is checked once in all.  The memo holds its space, and a call
    with another space raises ``ValueError``, so a report is never reused
    for a different measure.
    """

    space: ExactProbabilitySpace
    reports: dict = field(default_factory=dict)


def upset_pair_independence(
    upsets: Sequence[UpSet],
    member_partition: Callable[[int], Partition],
    space: ExactProbabilitySpace,
    memo: KernelMemo | None = None,
) -> Iterator[tuple[UpSet, UpSet, IndependenceReport]]:
    """Yield ``(a, b, report)`` for every ordered pair of the up-sets.

    ``member_partition(mask)`` is a member's algebra as a partition of
    ``space``; it is called once per mask.  An up-set's lift is the join of
    its members' partitions (one block for the empty up-set), and the report
    tests the lifts of ``a`` and ``b`` for relative independence over the
    lift of ``a & b``.  The up-sets must share one ``d`` and be closed under
    ``&``, as :func:`enumerate_upsets` is; otherwise ``ValueError`` is
    raised, when the first pair whose meet is missing is reached.  The meet
    of each pair is looked up in a table built once per family
    (:func:`_family_plan`), so no ``UpSet`` is built or validated per pair.

    Each distinct lift gets a small id (:func:`_interned_lifts`).  The
    report depends only on the three lifts, so :func:`relative_independence`
    runs once per distinct (lift of ``a``, lift of ``b``, lift of the meet)
    triple, and the pairs sharing a triple share its report.  ``memo``
    (a fresh one by default) keeps those reports, and may carry them over
    from earlier calls on the same space.

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
    if memo is None:
        memo = KernelMemo(space)
    elif memo.space != space:
        raise ValueError("the kernel memo belongs to another space")
    upsets, meets, lift_of, report = _interned_lifts(upsets, member_partition, memo)
    for a, la, row in zip(upsets, lift_of, meets):
        for b, lb, k in zip(upsets, lift_of, row):
            if k is None:
                raise _missing_meet(a, b)
            lm = lift_of[k]
            yield a, b, _TAUTOLOGY if la == lm or lb == lm else report(la, lb, lm)


_TAUTOLOGY = IndependenceReport(True, None)


def _missing_meet(a: UpSet, b: UpSet) -> ValueError:
    return ValueError(
        "up-set family is not closed under &: the meet "
        f"{sorted(bits_of(m) for m in a.members & b.members)} is missing"
    )


def _interned_lifts(
    upsets: Sequence[UpSet],
    member_partition: Callable[[int], Partition],
    memo: KernelMemo,
) -> tuple[
    tuple[UpSet, ...],
    tuple[tuple[int | None, ...], ...],
    list[int],
    Callable[[int, int, int], IndependenceReport],
]:
    """The family as a tuple, its meet table, the lift id of each up-set,
    and the report of a (lift a, lift b, lift of the meet) id triple, which
    calls :func:`relative_independence` once per distinct triple; the
    reports are kept in ``memo``, keyed by the triple's labels.

    Lift ids number the distinct lifts in order of first occurrence, keyed
    by their canonical labels.  Each lift is the join of a smaller lift and
    a few member partitions (:func:`_family_plan`), and the join of two ids
    is computed once.
    """
    upsets = tuple(upsets)
    if len({u.d for u in upsets}) > 1:
        raise ValueError("up-sets live over different ground dimensions")
    meets, masks, steps = _family_plan(tuple(u.members for u in upsets))
    lifts: list[Partition] = []
    ids: dict[tuple[int, ...], int] = {}

    def intern(p: Partition) -> int:
        k = ids.setdefault(p.labels, len(lifts))
        if k == len(lifts):
            lifts.append(p)
        return k

    space, reports = memo.space, memo.reports
    one_block = intern(Partition.from_labels((0,) * len(space)))
    member_id = {m: intern(member_partition(m)) for m in masks}
    joins: dict[tuple[int, int], int] = {}
    lift_of = [one_block] * len(upsets)
    for i, base, extra in steps:
        acc = one_block if base is None else lift_of[base]
        for m in extra:
            k = member_id[m]
            if k == acc or k == one_block:
                continue
            if acc == one_block:
                acc = k
                continue
            key = (acc, k) if acc < k else (k, acc)
            if key not in joins:
                joins[key] = intern(common_refinement(lifts[acc], lifts[k]))
            acc = joins[key]
        lift_of[i] = acc

    def report(la: int, lb: int, lm: int) -> IndependenceReport:
        key = (lifts[la].labels, lifts[lb].labels, lifts[lm].labels)
        rep = reports.get(key)
        if rep is None:
            meet = lifts[lm]
            rep = reports[key] = relative_independence(
                (lifts[la], lifts[lb]), (meet, meet), space
            )
        return rep

    return upsets, meets, lift_of, report


@cache
def _family_plan(family: tuple[frozenset[int], ...]) -> tuple[
    tuple[tuple[int | None, ...], ...],
    tuple[int, ...],
    tuple[tuple[int, int | None, tuple[int, ...]], ...],
]:
    """What :func:`_interned_lifts` needs of a family, given as the members
    of its up-sets, built once per family (the key hashes fast, since a
    frozenset caches its hash):

    * the meet table: ``meets[i][j]`` is the index of ``family[i] &
      family[j]`` in the family, or ``None`` when the family lacks it;
    * the member masks in order of first occurrence (up-sets in order,
      members ascending), the order the member partitions are built in;
    * steps ``(i, base, extra)`` in order of member count: the lift of
      ``family[i]`` is the lift of ``family[base]`` (one block when ``base``
      is ``None``) joined with the partitions of ``extra``.  ``base`` drops
      one member when the family holds that smaller up-set, so most lifts
      take one join.
    """
    index = {members: i for i, members in enumerate(family)}
    meets = tuple(tuple(index.get(a & b) for b in family) for a in family)
    masks = tuple(dict.fromkeys(m for members in family for m in sorted(members)))
    steps = []
    for i in sorted(range(len(family)), key=lambda i: len(family[i])):
        members = family[i]
        base = next((index[members - {m}] for m in sorted(members) if members - {m} in index), None)
        extra = members - family[base] if base is not None else members
        steps.append((i, base, tuple(sorted(extra))))
    return meets, masks, tuple(steps)
