"""Finite-instance verification of the removal implication for couplings.

An instance bundles a d-fold coupling with a family of partitions indexed by
the subsets of ``range(d)`` of size >= 2 and with up-set-measurable target
sets.  Three hypotheses are checked exhaustively and exactly:

[i]   monotonicity: smaller index sets carry finer partitions;
[ii]  identified coordinates: partition blocks pull back equally, up to
      coupling-null sets, through every coordinate of their index set;
[iii] relative independence of the lifted up-set algebras over their
      intersections.

For instances passing all three, the conclusion predicate checks that a
vanishing product event forces a vanishing intersection.  At desk scale no
counterexample exists; the search harness below therefore acts as a property
test whose only acceptable output is ``None``.

Negligibility always means exactly-zero rational mass.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product as iter_product
from typing import Iterable, Iterator, Sequence

from .averages import furstenberg_self_joining, self_joining_psi
from .generators import random_system
from .measure import (
    Coupling,
    ExactProbabilitySpace,
    IndependenceReport,
    Partition,
    common_refinement,
    relatively_independent_product,
)
from .systems import FiniteZdSystem, translation_perm
from .upsets import (
    KernelMemo,
    UpSet,
    bits_of,
    enumerate_upsets,
    ground_masks,
    identified_on,
    oblique_members,
    upset_pair_independence,
)


@dataclass(frozen=True)
class RemovalInstance:
    """A coupling, an index-set-graded partition family, and target sets.

    ``psi`` maps every bitmask of size >= 2 over ``range(d)`` to a partition
    of the base points.  ``families[i]`` lists pairs ``(upset, A)`` where the
    up-set contains the full index set, lies inside the principal up-set of
    coordinate ``i``, and ``A`` is a union of blocks of the join of ``psi``
    over the up-set's members.
    """

    space: ExactProbabilitySpace
    coupling: Coupling
    psi: dict
    families: tuple

    def __post_init__(self) -> None:
        d = self.coupling.arity
        if self.coupling.base != self.space:
            raise ValueError("coupling base must be the instance space")
        psi = dict(self.psi)
        object.__setattr__(self, "psi", psi)
        # The count comes first: it bounds the index sets built to compare
        # with by the size of psi, however large the arity.
        if len(psi) != (1 << d) - d - 1 or set(psi) != set(ground_masks(d)):
            raise ValueError("psi must be defined exactly on the index sets of size >= 2")
        for m, p in psi.items():
            if not isinstance(p, Partition) or p.size != len(self.space):
                raise ValueError("psi values must be partitions of the base points")
        families = tuple(
            tuple((ups, frozenset(a)) for ups, a in fam) for fam in self.families
        )
        object.__setattr__(self, "families", families)
        if len(families) != d:
            raise ValueError("need one family of target sets per coordinate")
        for i, fam in enumerate(families):
            for ups, a in fam:
                _check_target(d, i, ups, a, psi, len(self.space))


def _block_join(psi: dict, upset: UpSet) -> Partition:
    """Join of ``psi`` over the up-set members.  Every up-set given here
    holds the full index set, so it has a member."""
    return common_refinement(*(psi[m] for m in upset.members))


def _check_target(d: int, i: int, ups: UpSet, a: frozenset, psi: dict, n: int) -> None:
    """Raise ``ValueError`` unless ``(ups, a)`` may be a target of coordinate ``i``.

    The up-set lives over ``range(d)``, contains the full index set and lies
    inside the principal up-set of ``i``; ``a`` is a set of points of
    ``range(n)`` and a union of blocks of the join of ``psi`` over the
    up-set's members, that is, points with the same tuple of ``psi`` labels
    are all in ``a`` or all outside it.
    """
    if ups.d != d:
        raise ValueError("up-set dimension mismatch")
    if (1 << d) - 1 not in ups:
        raise ValueError("each up-set must contain the full index set")
    if not all(m & (1 << i) for m in ups.members):
        raise ValueError(
            f"family {i}: up-sets must lie inside the principal up-set of {i}"
        )
    if not all(x in range(n) for x in a):
        raise ValueError(f"family {i}: a target set holds a point index out of range")
    # The members are nonempty here, since they hold the full index set.
    keys = tuple(zip(*(psi[m].labels for m in ups.members)))
    inside = {k for x, k in enumerate(keys) if x in a}
    if any(k in inside for x, k in enumerate(keys) if x not in a):
        raise ValueError(
            f"family {i}: a target set is not a union of its algebra's blocks"
        )


@dataclass(frozen=True)
class HypothesesReport:
    monotone: bool
    identified: bool
    independent: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return self.monotone and self.identified and self.independent


def check_hypotheses(inst: RemovalInstance) -> HypothesesReport:
    """Exhaustively test the three structural hypotheses of an instance."""
    coupling, psi = inst.coupling, inst.psi
    d = coupling.arity
    witnesses: dict = {}

    # One partition on every index set refines itself, so [i] holds.
    one = _one_partition(psi)
    unrefined = None if one else _first_unrefined_pair(psi, d)
    monotone = unrefined is None
    if not monotone:
        witnesses["monotone"] = tuple(map(bits_of, unrefined))

    # With one partition on every index set, the full set's coordinate
    # pairs hold every other set's, so it decides [ii] alone when it holds;
    # otherwise the loop finds the first failing set and its witness.
    identified = True
    full = (1 << d) - 1
    if not (one and identified_on(coupling, full, psi[full])):
        for m in ground_masks(d):
            if not identified_on(coupling, m, psi[m]):
                identified = False
                witnesses["identified"] = _identification_witness(
                    coupling, psi[m], m, tuple(combinations(bits_of(m), 2))
                )
                break

    independent = monotone and identified
    if independent:
        failing = _first_dependent_pair(coupling, psi)
        if failing is not None:
            a, b, rep = failing
            independent = False
            witnesses["independent"] = (a.members, b.members, rep.witness)

    return HypothesesReport(monotone, identified, independent, witnesses)


def _first_unrefined_pair(psi: dict, d: int) -> tuple[int, int] | None:
    """Hypothesis [i]: the first index set ``small``, in ascending mask
    order, with a proper superset ``big`` such that ``psi[small]`` does not
    refine ``psi[big]``, and the first such ``big``; or ``None``.

    The supersets of ``small`` are ``small | sub`` for the nonzero submasks
    ``sub`` of its complement, and ``sub -> (sub - comp) & comp`` steps
    through those in ascending order, so ``big`` ascends too: the pair is
    the one a walk over every ordered pair of index sets meets first, found
    without visiting the pairs that are not subset pairs."""
    full = (1 << d) - 1
    for small in ground_masks(d):
        comp = full ^ small
        sub = comp & -comp
        while sub:
            if not psi[small].is_refinement_of(psi[small | sub]):
                return small, small | sub
            sub = (sub - comp) & comp
    return None


def _first_dependent_pair(
    coupling: Coupling, psi: dict, memo: KernelMemo | None = None
) -> tuple[UpSet, UpSet, IndependenceReport] | None:
    """Hypothesis [iii]: the first pair of up-sets whose lifts are not
    relatively independent over the lift of their meet, or ``None``.

    When the member partitions (:func:`~ergolab.upsets.oblique_members`)
    are all one partition, every nonempty up-set's lift is that partition
    and the empty up-set's is one block.  Every nonempty up-set of the
    family holds the full index set, so the meet of two nonempty up-sets
    is nonempty, and in every pair the lift of ``a`` or of ``b`` equals
    the lift of the meet: the tower-property tautology of
    :func:`upset_pair_independence`, decided once for the whole family,
    and ``None`` is returned.  That is so when ``psi`` gives every index
    set one partition: under [ii] it pulls back to one partition of the
    support through every coordinate, so the members are not built.

    Otherwise the pairs are checked in order against ``memo``, which holds
    the coupling's support space (``coupling.as_space()``) and its kernel
    reports; the sweep shares one across the psi maps of a coupling, and a
    fresh one is built when none is given.  Meaningful only when ``psi``
    satisfies [i] and [ii].
    """
    if _one_partition(psi):
        return None
    members = oblique_members(coupling, psi)
    if len({p.labels for p in members.values()}) == 1:
        return None
    if memo is None:
        memo = KernelMemo(coupling.as_space())
    for a, b, rep in upset_pair_independence(
        enumerate_upsets(coupling.arity), members.__getitem__, memo.space, memo
    ):
        if not rep.holds:
            return a, b, rep
    return None


def _one_partition(psi: dict) -> bool:
    """Whether ``psi`` gives every index set the same partition."""
    return len({p.labels for p in psi.values()}) == 1


def _identification_witness(
    coupling: Coupling, partition: Partition, m: int, pairs: Sequence[tuple[int, int]]
) -> tuple:
    """The first block of ``partition`` (``psi[m]``) and coordinate pair
    ``(i, j)`` whose block pulls back with nonzero mass difference, with
    that mass."""
    for block in partition.blocks:
        for i, j in pairs:
            bad = coupling.pullback_disagreement(block, i, j)
            if bad != 0:
                return (bits_of(m), block, (i, j), bad)
    raise AssertionError("psi[m] pulls back equally through every pair")


def check_conclusion(inst: RemovalInstance, *, verified: bool = False) -> bool:
    """The removal implication: a null product event forces a null intersection.

    Refuses to evaluate when the hypotheses fail (pass ``verified=True`` to
    skip re-checking them).  Returns ``True`` when the implication holds,
    which includes the vacuous case of a positive product event.
    """
    if not verified and not check_hypotheses(inst).all_hold:
        raise ValueError("hypotheses not satisfied; conclusion undefined")
    return _families_conclusion(inst.space, inst.coupling, inst.families)


def _families_conclusion(
    space: ExactProbabilitySpace, coupling: Coupling, families: Sequence[Sequence[tuple]]
) -> bool:
    """The removal implication on each coordinate's intersection of targets."""
    points = frozenset(range(len(space)))
    return _conclusion_holds(
        [
            _target_masks(coupling, i, points.intersection(*(a for _, a in fam)))
            for i, fam in enumerate(families)
        ],
        _positive_mask(space),
    )


def _target_masks(coupling: Coupling, i: int, a: frozenset) -> tuple[int, int]:
    """Bitmasks of a target set of coordinate ``i``: over the coupling's
    support tuples ``t`` with ``t[i] in a``, and over the points of ``a``."""
    support = 0
    for k, t in enumerate(coupling.support()):
        if t[i] in a:
            support |= 1 << k
    return support, sum(1 << x for x in a)


def _positive_mask(space: ExactProbabilitySpace) -> int:
    return sum(1 << x for x, w in enumerate(space.weights) if w > 0)


def _conclusion_holds(chosen: Iterable[tuple[int, int]], positive: int) -> bool:
    """The removal implication on one target per coordinate, each given by
    its :func:`_target_masks`: a null product event forces a null
    intersection.

    Stored coupling masses are positive and weights nonnegative, so an
    event is null exactly when no support tuple (no positive-weight point)
    lies in it.  The product event's support tuples are the AND of the
    support masks, and the intersection's points the AND of the point
    masks, so the test needs no rational sums.
    """
    product, meet = -1, positive
    for support, points in chosen:
        product &= support
        meet &= points
    return product != 0 or meet == 0


# ---------------------------------------------------------------------------
# instance generation and the counterexample search
# ---------------------------------------------------------------------------

def _menu_length(n: int) -> int:
    """The number of weight vectors on ``n`` points (:func:`_menu_weights`)."""
    return 1 if n == 1 else 3


def _menu_weights(n: int, i: int) -> tuple[Fraction, ...]:
    """The ``i``-th weight vector of the menu on ``n`` points: uniform,
    then weights proportional to ``1, ..., n``, then a null first point
    with the rest uniform (the last two for ``n >= 2`` only)."""
    if i == 0:
        return tuple(Fraction(1, n) for _ in range(n))
    if i == 1:
        total = n * (n + 1) // 2
        return tuple(Fraction(x + 1, total) for x in range(n))
    return (Fraction(0),) + tuple(Fraction(1, n - 1) for _ in range(n - 1))


def _weight_menu(n: int) -> list[tuple[Fraction, ...]]:
    return [_menu_weights(n, i) for i in range(_menu_length(n))]


def _completions(n: int) -> list[list[int]]:
    """Counts of the ways to finish a restricted growth string of length
    ``n``: ``rows[k][u]``, for ``k + u <= n``, is the number of ways to
    append ``k`` more labels when the labels ``0, ..., u - 1`` are in use.

    Each label is one in use (``u`` ways) or the next new one, so
    ``c(0, u) = 1`` and ``c(k, u) = u * c(k - 1, u) + c(k - 1, u + 1)``,
    and ``c(n, 0)`` is the Bell number of ``n``.
    """
    rows = [[1] * (n + 1)]
    for k in range(1, n + 1):
        prev = rows[-1]
        rows.append([u * prev[u] + prev[u + 1] for u in range(n + 1 - k)])
    return rows


def _bell(n: int) -> int:
    """The number of set partitions of ``n`` points."""
    return _completions(n)[n][0]


def _partition_at(n: int, r: int) -> Partition:
    """The partition of ``range(n)`` whose restricted growth string (its
    canonical labels) is the ``r``-th in lexicographic order, for
    ``0 <= r < _bell(n)``.

    At each point, every label in use heads ``c(k, u)`` completions and
    the new label ``c(k, u + 1)`` of them (:func:`_completions`), so the
    label is read off ``r`` by division, one point at a time.
    """
    rows = _completions(n)
    labels = []
    used = 0
    for k in range(n - 1, -1, -1):
        finish = rows[k][used]
        if r < used * finish:
            label, r = divmod(r, finish)
        else:
            r -= used * finish
            label = used
            used += 1
        labels.append(label)
    return Partition.from_labels(labels)


def _all_partitions(n: int) -> list[Partition]:
    return [_partition_at(n, r) for r in range(_bell(n))]


def _translation_systems(space: ExactProbabilitySpace, d: int) -> list[FiniteZdSystem]:
    """Every d-tuple of weight-preserving translations of ``Z_n`` on the
    points, in lexicographic order; a tuple preserves the weights when each
    of its shifts does, so each shift is tested once, on the numerators."""
    n = len(space)
    _, nums = space.integerized()
    shifts = [
        g for g in (translation_perm((n,), (s,)) for s in range(n))
        if all(nums[y] == w for y, w in zip(g, nums))
    ]
    return [FiniteZdSystem(space, gens) for gens in iter_product(shifts, repeat=d)]


def _coupling_menu(
    space: ExactProbabilitySpace, d: int, families: Sequence[str]
) -> list[Coupling]:
    seen: dict = {}
    out: list[Coupling] = []

    def add(c: Coupling) -> None:
        key = tuple(sorted(c.mass.items()))
        if key not in seen:
            seen[key] = True
            out.append(c)

    if "diagonal" in families:
        add(Coupling.diagonal(space, d))
    if "product" in families:
        add(Coupling.product(space, d))
    if "fiber" in families:
        for part in _all_partitions(len(space)):
            add(relatively_independent_product([space] * d, [part.labels] * d))
    if "selfjoin" in families:
        for sys in _translation_systems(space, d):
            add(furstenberg_self_joining(sys).coupling)
    return out


def _psi_maps(
    parts: list[Partition], masks: tuple[int, ...], allowed: Sequence[Sequence[int]]
) -> Iterator[dict]:
    """Every monotone psi assignment with ``psi[masks[k]]`` drawn from
    ``parts[c]`` for ``c`` in ``allowed[k]``; monotone means that
    ``psi[small]`` refines ``psi[big]`` whenever ``small`` is a proper
    subset of ``big``.

    ``masks`` ascend, as :func:`~ergolab.upsets.ground_masks` does, so a
    mask's subsets come before it.  The masks are assigned depth-first in
    that order, each trying its allowed indices in order, and a partition
    that does not coarsen every already-assigned subset's is pruned.  A
    pruned prefix has no monotone completion, so the maps come out exactly
    as the monotone members of the product of the allowed partitions, in
    product order.
    """
    refines = [[p.is_refinement_of(q) for q in parts] for p in parts]
    below = [[j for j in range(k) if masks[j] & m == masks[j]] for k, m in enumerate(masks)]
    choice = [0] * len(masks)

    def assign(k: int) -> Iterator[dict]:
        if k == len(masks):
            yield {m: parts[c] for m, c in zip(masks, choice)}
            return
        for c in allowed[k]:
            if all(refines[choice[j]][c] for j in below[k]):
                choice[k] = c
                yield from assign(k + 1)

    return assign(0)


def _coordinate_upsets(d: int) -> list[list[UpSet]]:
    """Per coordinate, the up-sets containing the full set and lying inside
    the coordinate's principal up-set."""
    full = (1 << d) - 1
    all_upsets = enumerate_upsets(d)
    out = []
    for i in range(d):
        opts = [
            u
            for u in all_upsets
            if full in u and all(m & (1 << i) for m in u.members)
        ]
        out.append(opts)
    return out


def _block_unions(partition: Partition) -> list[frozenset[int]]:
    """Every union of blocks, the ``bits``-th taking the blocks whose bits
    are set (:func:`_block_union`)."""
    blocks = partition.blocks
    return [_block_union(blocks, bits) for bits in range(1 << len(blocks))]


def _block_union(blocks: Sequence[Sequence[int]], bits: int) -> frozenset[int]:
    return frozenset(x for i, b in enumerate(blocks) if bits >> i & 1 for x in b)


FAMILIES = ("diagonal", "product", "fiber", "selfjoin")

# The largest point count an exhaustive sweep accepts, per d.
_EXHAUSTIVE_MAX_SIZE = {2: 4, 3: 4, 4: 3}

# The most work one random draw may take on: the coupling tuples it builds
# (``max(sizes) ** d`` for the product coupling, the largest family) and the
# ordered pairs of index sets (``(2 ** d - d - 1) ** 2``).  Hypothesis [i]
# compares only the subset pairs among them; [iii] visits about as many
# pairs of up-sets at d >= 5, where the family is one up-set per index set.
_RANDOM_MAX_WORK = 100_000
_RANDOM_MAX_D = max(
    d for d in range(2, 64) if ((1 << d) - d - 1) ** 2 <= _RANDOM_MAX_WORK
)


@dataclass(frozen=True)
class SearchConfig:
    """Domain of the counterexample search; deterministic given the seed."""

    sizes: tuple[int, ...] = (2,)
    d: int = 3
    families: tuple[str, ...] = FAMILIES
    seed: int = 0
    exhaustive: bool = True
    samples: int = 200

    def __post_init__(self) -> None:
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError(
                f"sizes: every point count must be at least 1, got {list(self.sizes)}"
            )
        if self.d < 2:
            raise ValueError(f"d: need at least two coordinates, got {self.d}")
        if not self.families or any(f not in FAMILIES for f in self.families):
            raise ValueError(
                f"families: need at least one of {list(FAMILIES)}, got {list(self.families)}"
            )
        if not self.exhaustive and self.samples < 1:
            raise ValueError(
                f"samples: random mode needs at least 1 sample, got {self.samples}"
            )


def search_counterexample(config: SearchConfig) -> RemovalInstance | None:
    """Enumerate or sample shells (a space, a coupling and a psi map) with
    their targets, and return the first instance violating the conclusion,
    or ``None``.

    Exhaustive mode sweeps, in lexicographic order and each distinct size
    once: a fixed weight menu per size, the requested coupling families,
    every monotone psi assignment (:func:`_psi_maps`), and one target set
    per coordinate ranging over every up-set and every block union.  It
    accepts up to 4 points for d <= 3 and up to 3 points for d = 4
    (``_EXHAUSTIVE_MAX_SIZE``).  Random mode draws shells and targets from
    the same ingredients (:func:`_random_shell`) until ``samples`` shells
    pass [iii].  It accepts the configurations whose draws build at most
    ``_RANDOM_MAX_WORK`` coupling tuples and have at most that many
    ordered pairs of index sets: up to d = 8, and up to 316 points at
    d = 2 and 46 at d = 3.  Both modes hold [i] and [ii] by construction,
    decide [iii] once per shell (:func:`_first_dependent_pair`), read the
    conclusion off integer masks and build only the instance returned.
    """
    if config.exhaustive:
        _check_exhaustive_domain(config)
    else:
        _check_random_domain(config)
    masks = ground_masks(config.d)
    coord_upsets = _coordinate_upsets(config.d)
    if config.exhaustive:
        for n in dict.fromkeys(config.sizes):
            parts = _all_partitions(n)
            for weights in _weight_menu(n):
                space = ExactProbabilitySpace(tuple(range(n)), weights)
                for coupling in _coupling_menu(space, config.d, config.families):
                    # A psi map failing hypothesis [ii] gives a shell with
                    # no instance, so each index set draws only from the
                    # partitions it identifies.
                    allowed = [
                        [c for c, p in enumerate(parts) if identified_on(coupling, m, p)]
                        for m in masks
                    ]
                    memo = KernelMemo(coupling.as_space())
                    for psi in _psi_maps(parts, masks, allowed):
                        hit = _scan_families(space, coupling, psi, coord_upsets, memo)
                        if hit is not None:
                            return hit
        return None

    rng = random.Random(config.seed)
    tested = attempts = 0
    while tested < config.samples and attempts < 80 * config.samples:
        attempts += 1
        space, coupling, psi, families = _random_shell(rng, config, coord_upsets)
        if _first_dependent_pair(coupling, psi) is not None:
            continue
        tested += 1
        if not _families_conclusion(space, coupling, families):
            return RemovalInstance(space, coupling, psi, families)
    if tested < config.samples:
        raise RuntimeError("sampling failed to reach the requested valid-instance count")
    return None


def _check_exhaustive_domain(config: SearchConfig) -> None:
    """Raise ``ValueError``, located at the field that breaks the limit,
    when an exhaustive sweep of ``config`` is out of reach."""
    too_large = "configuration too large for exhaustive mode"
    limit = _EXHAUSTIVE_MAX_SIZE.get(config.d)
    if limit is None:
        raise ValueError(
            f"d: {too_large}: at most d = {max(_EXHAUSTIVE_MAX_SIZE)}, got {config.d}"
        )
    if max(config.sizes) > limit:
        raise ValueError(
            f"sizes: {too_large}: at most {limit} points at d = {config.d}, "
            f"got {max(config.sizes)}"
        )


def _check_random_domain(config: SearchConfig) -> None:
    """Raise ``ValueError``, located at the field that breaks the limit,
    when one draw of ``config`` may take on more than ``_RANDOM_MAX_WORK``
    (see there).  ``d`` is compared first, so no power of a huge ``d`` is
    taken."""
    too_large = "configuration too large for random mode"
    d = config.d
    if d > _RANDOM_MAX_D:
        raise ValueError(f"d: {too_large}: at most d = {_RANDOM_MAX_D}, got {d}")
    n = max(config.sizes)
    if n ** d > _RANDOM_MAX_WORK:
        limit = 1
        while (limit + 1) ** d <= _RANDOM_MAX_WORK:
            limit += 1
        raise ValueError(f"sizes: {too_large}: at most {limit} points at d = {d}, got {n}")


def _scan_families(
    space: ExactProbabilitySpace,
    coupling: Coupling,
    psi: dict,
    coord_upsets: list[list[UpSet]],
    memo: KernelMemo,
) -> RemovalInstance | None:
    """The lexicographically first (up-set, target) combination, one per
    coordinate, whose conclusion fails, as a validated instance; ``None``
    when ``psi`` fails hypothesis [iii] or every combination passes.

    ``psi`` must satisfy hypotheses [i] and [ii], as every map of
    :func:`_psi_maps` drawn from the partitions each index set identifies
    does, so only [iii] is checked here, against ``memo`` (see
    :func:`_first_dependent_pair`).

    The conclusion reads only the target sets, so each coordinate keeps
    just the first choice of every distinct target.  That keeps the first
    failing combination: replacing each of its choices by the first choice
    with the same target gives a failing combination no later than it, so
    it consists of first choices already.
    """
    if _first_dependent_pair(coupling, psi, memo) is not None:
        return None
    # Each choice is a union of blocks of its up-set's join: a valid target.
    by_points: list[dict[int, tuple[UpSet, frozenset]]] = []
    mask_lists = []
    for i, opts in enumerate(coord_upsets):
        first: dict[frozenset, UpSet] = {}
        for ups in opts:
            for a in _block_unions(_block_join(psi, ups)):
                first.setdefault(a, ups)
        masks = [_target_masks(coupling, i, a) for a in first]
        by_points.append({points: (ups, a) for (_, points), (a, ups) in zip(masks, first.items())})
        mask_lists.append(masks)
    combo = _first_failing(mask_lists, _positive_mask(space))
    if combo is None:
        return None
    return RemovalInstance(
        space,
        coupling,
        psi,
        tuple((choices[points],) for choices, (_, points) in zip(by_points, combo)),
    )


# The masks of a coordinate whose target is not chosen yet: no support
# tuple and every point, the choice most likely to make the conclusion fail.
_UNCHOSEN = (0, -1)


def _first_failing(
    mask_lists: list[list[tuple[int, int]]], positive: int
) -> tuple[tuple[int, int], ...] | None:
    """The first combination in product order, one entry of each list of
    :func:`_target_masks`, whose conclusion fails; ``None`` when all hold.

    The walk is depth first, and each prefix is tested with the coordinates
    after it unchosen.  The conclusion fails only on a null product event
    whose intersection holds a positive-weight point, so a choice that
    shrinks the product or grows the intersection can only make it fail.
    The unchosen masks do both, so when the conclusion holds for a padded
    prefix it holds for every completion, and the prefix is skipped: its
    point masks already miss every positive-weight point.  Nothing else is
    skipped, so the first failing combination is the one the full product
    would find.
    """
    chosen = [_UNCHOSEN] * len(mask_lists)
    last = len(mask_lists) - 1

    def walk(i: int) -> bool:
        for masks in mask_lists[i]:
            chosen[i] = masks
            if not _conclusion_holds(chosen, positive) and (i == last or walk(i + 1)):
                return True
        chosen[i] = _UNCHOSEN
        return False

    return tuple(chosen) if walk(0) else None


def _random_shell(
    rng: random.Random, config: SearchConfig, coord_upsets: list[list[UpSet]]
) -> tuple[ExactProbabilitySpace, Coupling, dict, tuple]:
    """One draw of a shell and one or two targets per coordinate, each a
    union of blocks of its up-set's join.  Weights and partitions are drawn
    by rank: ``randrange(k)`` reads the stream as ``choice`` over a list of
    ``k`` entries does, so no such list is built.

    Every draw passes [i] and [ii].  A selfjoin psi gives ``m`` the factor
    of its difference subgroup, coarser as ``m`` grows, and on the
    self-joining ``T_j^k x = (T_j T_i^-1)^k T_i^k x``.  The other families
    give every index set one partition, whose blocks the coupling keeps
    together on every coordinate."""
    d = config.d
    n = rng.choice(list(config.sizes))
    family = rng.choice(list(config.families))
    if family == "selfjoin":
        sys = random_system(rng, max_points=n, dim=d)
        space = sys.space
        coupling = furstenberg_self_joining(sys).coupling
        psi = self_joining_psi(sys)
    else:
        weights = _menu_weights(n, rng.randrange(_menu_length(n)))
        space = ExactProbabilitySpace(tuple(range(n)), weights)
        if family == "product":
            coupling = Coupling.product(space, d)
            part = Partition.one_block(n)
        else:
            part = _partition_at(n, rng.randrange(_bell(n)))
            if family == "diagonal":
                coupling = Coupling.diagonal(space, d)
            else:
                coupling = relatively_independent_product([space] * d, [part.labels] * d)
        psi = dict.fromkeys(ground_masks(d), part)
    shell_families = []
    for i in range(d):
        fam = []
        for _ in range(rng.randint(1, 2)):
            ups = rng.choice(coord_upsets[i])
            # Drawing a union's index draws what choosing from the list of
            # unions does, without building the list.
            blocks = _block_join(psi, ups).blocks
            fam.append((ups, _block_union(blocks, rng.randrange(1 << len(blocks)))))
        shell_families.append(tuple(fam))
    return space, coupling, psi, tuple(shell_families)
