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
from typing import Iterable, Sequence

from .averages import difference_subgroup, furstenberg_self_joining
from .generators import random_system
from .measure import (
    Coupling,
    ExactProbabilitySpace,
    Partition,
    SimpleFunction,
    ZERO,
    common_refinement,
    conditional_expectation,
    relatively_independent_product,
    support_pullback_partition,
)
from .systems import FiniteZdSystem, invariant_factor
from .upsets import (
    UpSet,
    bits_of,
    enumerate_upsets,
    ground_masks,
    mask_of,
    popcount,
    upset_pair_independence,
)

__all__ = [
    "UpSet",
    "RemovalInstance",
    "HypothesesReport",
    "SearchConfig",
    "check_hypotheses",
    "check_conclusion",
    "search_counterexample",
    "level_set_replacement",
    "lifting_scenario_report",
    "enumerate_upsets",
]


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
        needed = set(ground_masks(d))
        if set(psi) != needed:
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

    @property
    def d(self) -> int:
        return self.coupling.arity

    def block_join(self, upset: UpSet) -> Partition:
        """Join of ``psi`` over the up-set members (trivial for the empty up-set)."""
        if not upset.members:
            return Partition.one_block(len(self.space))
        return common_refinement(*(self.psi[m] for m in upset.members))


def _check_target(d: int, i: int, ups: UpSet, a: frozenset, psi: dict, n: int) -> None:
    """Raise ``ValueError`` unless ``(ups, a)`` may be a target of coordinate ``i``.

    The up-set lives over ``range(d)``, contains the full index set and lies
    inside the principal up-set of ``i``; ``a`` is a union of blocks of the
    join of ``psi`` over the up-set's members, that is, points with the same
    tuple of ``psi`` labels are all in ``a`` or all outside it.
    """
    if ups.d != d:
        raise ValueError("up-set dimension mismatch")
    if mask_of(range(d)) not in ups:
        raise ValueError("each up-set must contain the full index set")
    if not all(m & (1 << i) for m in ups.members):
        raise ValueError(
            f"family {i}: up-sets must lie inside the principal up-set of {i}"
        )
    labels = [psi[m].labels for m in ups.members]
    inside: dict[tuple[int, ...], bool] = {}
    for x in range(n):
        if inside.setdefault(tuple(lab[x] for lab in labels), x in a) != (x in a):
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
    d = inst.d
    witnesses: dict = {}

    monotone = True
    masks = ground_masks(d)
    for small in masks:
        for big in masks:
            if small != big and small & big == small:
                if not inst.psi[small].is_refinement_of(inst.psi[big]):
                    monotone = False
                    witnesses["monotone"] = (bits_of(small), bits_of(big))
                    break
        if not monotone:
            break

    # [ii]: stored masses are positive, so the mass of the tuples whose
    # coordinates i and j fall on different sides of a block is nonzero
    # exactly when some support tuple has different psi[m] labels at i and
    # j; the rational mass is summed only for the witness.
    identified = True
    supp = inst.coupling.support()
    for m in masks:
        labels = inst.psi[m].labels
        pairs = tuple(combinations(bits_of(m), 2))
        if all(labels[t[i]] == labels[t[j]] for t in supp for i, j in pairs):
            continue
        identified = False
        witnesses["identified"] = _identification_witness(inst, m, pairs)
        break

    independent = monotone and identified
    if independent:
        def member_partition(m: int) -> Partition:
            # Pull back through the least coordinate: the canonical
            # representative, which hypothesis [ii] makes immaterial up to
            # null sets.
            return support_pullback_partition(inst.coupling, inst.psi[m], min(bits_of(m)))

        pairs = upset_pair_independence(
            enumerate_upsets(d), member_partition, inst.coupling.as_space()
        )
        for a, b, rep in pairs:
            if not rep.holds:
                independent = False
                witnesses["independent"] = (a.members, b.members, rep.witness)
                break

    return HypothesesReport(monotone, identified, independent, witnesses)


def _identification_witness(
    inst: RemovalInstance, m: int, pairs: Sequence[tuple[int, int]]
) -> tuple:
    """The first block of ``psi[m]`` and coordinate pair ``(i, j)`` whose
    block pulls back with nonzero mass difference, with that mass."""
    for block in inst.psi[m].blocks:
        bset = set(block)
        for i, j in pairs:
            bad = ZERO
            for t, v in inst.coupling.mass.items():
                if (t[i] in bset) != (t[j] in bset):
                    bad += v
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
    return _conclusion_holds(
        inst.space, inst.coupling, [[a for _, a in fam] for fam in inst.families]
    )


def _conclusion_holds(
    space: ExactProbabilitySpace, coupling: Coupling, targets: Sequence[Sequence[frozenset]]
) -> bool:
    """The removal implication on bare target sets, ``targets[i]`` being the
    sets of coordinate ``i``: a null product event forces a null
    intersection.

    Stored coupling masses are positive and weights nonnegative, so an
    event is null exactly when no support tuple (no positive-weight point)
    lies in it; the test needs no rational sums.
    """
    points = frozenset(range(len(space)))
    per_coord = [points.intersection(*sets) for sets in targets]
    if any(all(t[c] in s for c, s in enumerate(per_coord)) for t in coupling.support()):
        return True
    return not any(space.weights[x] > 0 for x in points.intersection(*per_coord))


# ---------------------------------------------------------------------------
# instance generation and the counterexample search
# ---------------------------------------------------------------------------

def _weight_menu(n: int) -> list[tuple[Fraction, ...]]:
    menu = [tuple(Fraction(1, n) for _ in range(n))]
    if n >= 2:
        total = n * (n + 1) // 2
        menu.append(tuple(Fraction(i + 1, total) for i in range(n)))
        menu.append(
            (Fraction(0),) + tuple(Fraction(1, n - 1) for _ in range(n - 1))
        )
    return menu


def _all_partitions(n: int) -> list[Partition]:
    out: list[Partition] = []

    def rec(i: int, labels: list[int], used: int) -> None:
        if i == n:
            out.append(Partition.from_labels(tuple(labels)))
            return
        for lab in range(used + 1):
            labels.append(lab)
            rec(i + 1, labels, max(used, lab + 1))
            labels.pop()

    rec(0, [], 0)
    return out


def _translation_systems(space: ExactProbabilitySpace, d: int) -> list[FiniteZdSystem]:
    """All d-tuples of translations of a cyclic group on the given points,
    kept when they preserve the weights."""
    n = len(space)
    rot_tuples = iter_product(range(n), repeat=d)
    out = []
    for phis in rot_tuples:
        gens = tuple(
            tuple((x + phi) % n for x in range(n)) for phi in phis
        )
        try:
            out.append(FiniteZdSystem(space, gens))
        except ValueError:
            continue
    return out


def _coupling_menu(
    space: ExactProbabilitySpace, d: int, families: Sequence[str]
) -> list[tuple[str, Coupling]]:
    seen: dict = {}
    out: list[tuple[str, Coupling]] = []

    def add(tag: str, c: Coupling) -> None:
        key = tuple(sorted(c.mass.items()))
        if key not in seen:
            seen[key] = True
            out.append((tag, c))

    if "diagonal" in families:
        add("diagonal", Coupling.diagonal(space, d))
    if "product" in families:
        add("product", Coupling.product(space, d))
    if "fiber" in families:
        for part in _all_partitions(len(space)):
            add(
                "fiber",
                relatively_independent_product([space] * d, [part.labels] * d),
            )
    if "selfjoin" in families:
        for sys in _translation_systems(space, d):
            fj = furstenberg_self_joining(sys)
            add("selfjoin", fj.coupling)
    return out


def _psi_maps(
    parts: list[Partition], masks: tuple[int, ...], cap: int = 1000
) -> list[dict]:
    """Monotone psi assignments.  All of them when the raw product is small,
    otherwise constants plus size-graded chains (documented restriction)."""
    total = len(parts) ** len(masks)
    maps: list[dict] = []
    if total <= cap:
        for choice in iter_product(parts, repeat=len(masks)):
            psi = dict(zip(masks, choice))
            if _monotone(psi, masks):
                maps.append(psi)
        return maps
    for p in parts:
        maps.append({m: p for m in masks})
    sizes = sorted({popcount(m) for m in masks})
    for chain in iter_product(parts, repeat=len(sizes)):
        by_size = dict(zip(sizes, chain))
        ok = all(
            by_size[a].is_refinement_of(by_size[b])
            for a in sizes
            for b in sizes
            if a < b
        )
        if ok:
            psi = {m: by_size[popcount(m)] for m in masks}
            if psi not in maps:
                maps.append(psi)
    return maps


def _monotone(psi: dict, masks: tuple[int, ...]) -> bool:
    for small in masks:
        for big in masks:
            if small != big and small & big == small:
                if not psi[small].is_refinement_of(psi[big]):
                    return False
    return True


def _coordinate_upsets(d: int) -> list[list[UpSet]]:
    """Per coordinate, the up-sets containing the full set and lying inside
    the coordinate's principal up-set."""
    full = mask_of(range(d))
    all_upsets = enumerate_upsets(d, include_empty=False)
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
    blocks = partition.blocks
    out = []
    for bits in range(1 << len(blocks)):
        s: set[int] = set()
        for i in range(len(blocks)):
            if bits >> i & 1:
                s.update(blocks[i])
        out.append(frozenset(s))
    return out


@dataclass(frozen=True)
class SearchConfig:
    """Domain of the counterexample search; deterministic given the seed."""

    sizes: tuple[int, ...] = (2,)
    d: int = 3
    families: tuple[str, ...] = ("diagonal", "product", "fiber", "selfjoin")
    seed: int = 0
    exhaustive: bool = True
    samples: int = 200

    def __post_init__(self) -> None:
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError(
                f"sizes: every point count must be at least 1, got {list(self.sizes)}"
            )
        if not self.exhaustive and self.samples < 1:
            raise ValueError(
                f"samples: random mode needs at least 1 sample, got {self.samples}"
            )


def search_counterexample(config: SearchConfig) -> RemovalInstance | None:
    """Enumerate or sample hypothesis-satisfying instances and return the
    first one violating the conclusion, or ``None``.

    Exhaustive mode sweeps, in lexicographic order: a fixed weight menu per
    size, the requested coupling families, all monotone psi assignments (see
    :func:`_psi_maps` for the documented cap), and one target set per
    coordinate ranging over every up-set and every block union.  Random mode
    draws ``samples`` valid instances from the same ingredients.
    """
    if config.d < 2:
        raise ValueError("need at least two coordinates")
    if config.exhaustive and (max(config.sizes) > 4 or config.d > 3):
        raise ValueError("configuration too large for exhaustive mode")
    masks = ground_masks(config.d)
    coord_upsets = _coordinate_upsets(config.d)
    if config.exhaustive:
        for n in config.sizes:
            for weights in _weight_menu(n):
                space = ExactProbabilitySpace(tuple(range(n)), weights)
                for _, coupling in _coupling_menu(space, config.d, config.families):
                    for psi in _psi_maps(_all_partitions(n), masks):
                        hit = _scan_families(space, coupling, psi, coord_upsets)
                        if hit is not None:
                            return hit
        return None

    rng = random.Random(config.seed)
    tested = 0
    attempts = 0
    while tested < config.samples and attempts < 80 * config.samples:
        attempts += 1
        inst = _random_instance(rng, config, coord_upsets)
        if inst is None:
            continue
        if not check_hypotheses(inst).all_hold:
            continue
        tested += 1
        if not check_conclusion(inst, verified=True):
            return inst
    if tested < config.samples:
        raise RuntimeError("sampling failed to reach the requested valid-instance count")
    return None


def _scan_families(
    space: ExactProbabilitySpace,
    coupling: Coupling,
    psi: dict,
    coord_upsets: list[list[UpSet]],
) -> RemovalInstance | None:
    shell = RemovalInstance(
        space,
        coupling,
        psi,
        tuple(
            ((opts[0], frozenset(range(len(space)))),) for opts in coord_upsets
        ),
    )
    if not check_hypotheses(shell).all_hold:
        return None
    # Each (up-set, target) choice is validated once here, so the
    # combinations only evaluate the conclusion; the instance returned is
    # built, and validated again as a whole, by the constructor.
    d, n = coupling.arity, len(space)
    choice_lists = []
    for i, opts in enumerate(coord_upsets):
        per_coord = []
        for ups in opts:
            for a in _block_unions(shell.block_join(ups)):
                _check_target(d, i, ups, a, psi, n)
                per_coord.append((ups, a))
        choice_lists.append(per_coord)
    for combo in iter_product(*choice_lists):
        if not _conclusion_holds(space, coupling, [(a,) for _, a in combo]):
            return RemovalInstance(space, coupling, psi, tuple((c,) for c in combo))
    return None


def _random_instance(
    rng: random.Random, config: SearchConfig, coord_upsets: list[list[UpSet]]
) -> RemovalInstance | None:
    d = config.d
    n = rng.choice(list(config.sizes))
    masks = ground_masks(d)
    family = rng.choice(list(config.families))
    if family == "selfjoin":
        sys = random_system(rng, max_points=n, dim=d)
        space = sys.space
        fj = furstenberg_self_joining(sys)
        coupling = fj.coupling
        psi = {
            m: invariant_factor(sys, difference_subgroup(sys.dim, bits_of(m)))
            for m in masks
        }
    else:
        space = ExactProbabilitySpace(
            tuple(range(n)), rng.choice(_weight_menu(n))
        )
        if family == "diagonal":
            coupling = Coupling.diagonal(space, d)
            psi_part = rng.choice(_all_partitions(n))
            psi = {m: psi_part for m in masks}
        elif family == "product":
            coupling = Coupling.product(space, d)
            psi = {m: Partition.one_block(n) for m in masks}
        else:
            part = rng.choice(_all_partitions(n))
            coupling = relatively_independent_product([space] * d, [part.labels] * d)
            psi = {m: part for m in masks}
    shell_families = []
    for i in range(d):
        fam = []
        for _ in range(rng.randint(1, 2)):
            ups = rng.choice(coord_upsets[i])
            algebra = (
                common_refinement(*(psi[m] for m in ups.members))
                if ups.members
                else Partition.one_block(n)
            )
            unions = _block_unions(algebra)
            fam.append((ups, rng.choice(unions)))
        shell_families.append(tuple(fam))
    try:
        return RemovalInstance(space, coupling, psi, tuple(shell_families))
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# lifting scenarios
# ---------------------------------------------------------------------------

def level_set_replacement(
    space: ExactProbabilitySpace, A: Iterable[int], partition: Partition
) -> tuple[frozenset[int], Fraction]:
    """Replace a set by the positivity level set of its conditional
    expectation; the removed part ``A minus A'`` is always null."""
    A = frozenset(A)
    ce = conditional_expectation(
        SimpleFunction.indicator(len(space), A), partition, space
    )
    a2 = frozenset(x for x in range(len(space)) if ce.values[x] > 0)
    gap = space.measure(A - a2)
    return a2, gap


def lifting_scenario_report() -> dict:
    """Run the three proof manipulations on small deterministic instances and
    report whether each preserves the relevant null sets.

    Scenarios: positivity-level-set replacement, duplicate principal up-set
    merging, and the thresholded conditional-expectation replacement with
    threshold strictly below the reciprocal of the total set count.
    """
    report: dict = {}

    # Level-set replacement, including the finest-partition case where the
    # replacement is exactly the support of the set.
    space = ExactProbabilitySpace(
        (0, 1, 2, 3),
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)),
    )
    cases = []
    for partition in (
        Partition.singletons(4),
        Partition.one_block(4),
        Partition(4, ((0, 1), (2, 3))),
    ):
        for a in (frozenset({1, 3}), frozenset({0}), frozenset()):
            a2, gap = level_set_replacement(space, a, partition)
            cases.append(gap == 0)
    singleton_a2, _ = level_set_replacement(space, frozenset({1, 3}), Partition.singletons(4))
    report["level_set"] = {
        "all_null_gaps": all(cases),
        "finest_gives_support": singleton_a2 == frozenset({1}),
    }

    # Duplicate principal up-sets at two coordinates merge into one.
    d = 3
    base = ExactProbabilitySpace.uniform(tuple(range(3)))
    lam = Coupling.diagonal(base, d)
    part = Partition.singletons(3)
    psi = {m: part for m in ground_masks(d)}
    e = (0, 1)
    ups = UpSet.principal(d, e)
    full_ups = UpSet.principal(d, range(d))
    a1 = frozenset({0, 1})
    a2 = frozenset({1, 2})
    inst = RemovalInstance(
        base,
        lam,
        psi,
        (
            ((ups, a1),),
            ((ups, a2),),
            ((full_ups, frozenset({0, 1, 2})),),
        ),
    )
    merged = RemovalInstance(
        base,
        lam,
        psi,
        (
            ((ups, a1 & a2),),
            ((ups, frozenset({0, 1, 2})),),
            ((full_ups, frozenset({0, 1, 2})),),
        ),
    )
    before = check_conclusion(inst)
    after = check_conclusion(merged)
    prod_before = lam.event_mass([a1, a2, frozenset({0, 1, 2})])
    prod_after = lam.event_mass([a1 & a2, frozenset({0, 1, 2}), frozenset({0, 1, 2})])
    report["duplicate_merge"] = {
        "product_mass_preserved": prod_before == prod_after,
        "conclusion_unchanged": before == after,
    }

    # Thresholded replacement: with delta below 1/(total set count) the
    # product of the replaced sets keeps zero coupling mass.
    spaces = ExactProbabilitySpace.uniform(tuple(range(4)))
    quotient = Partition(4, ((0, 2), (1, 3)))
    lam2 = relatively_independent_product([spaces] * 3, [quotient.labels] * 3)
    psi2 = {m: quotient for m in ground_masks(3)}
    sets = (frozenset({0, 2}), frozenset({1, 3}), frozenset({0, 2}))
    inst2 = RemovalInstance(
        spaces,
        lam2,
        psi2,
        tuple(((UpSet.principal(3, range(3)), s),) for s in sets),
    )
    total_sets = sum(len(fam) for fam in inst2.families)
    delta = Fraction(1, total_sets + 1)
    replaced = []
    for fam in inst2.families:
        out = []
        for ups, a in fam:
            ce = conditional_expectation(
                SimpleFunction.indicator(4, a), inst2.block_join(ups), spaces
            )
            out.append(
                frozenset(x for x in range(4) if ce.values[x] > 1 - delta)
            )
        replaced.append(out)
    product_null_before = lam2.event_mass([a for ((_, a),) in inst2.families])
    f_mass = lam2.event_mass([frozenset.intersection(*r) for r in replaced])
    report["threshold"] = {
        "delta": delta,
        "product_null_before": product_null_before == 0,
        "replaced_product_null": f_mass == 0,
    }
    return report
