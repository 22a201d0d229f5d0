"""Nonconventional averages, Furstenberg self-joinings, and recurrence.

For a finite system every generator permutation has finite order, so the
Cesaro averages of the off-diagonal joinings are eventually periodic and the
limiting self-joining is computed exactly as the average over one full
period.  Because the averages are exactly periodic, the limit is also
uniform in the location of the averaging interval; this needs no separate
implementation.

The period ``L`` of a direction set is the lcm of the cycle lengths of the
product-space permutation, i.e. the order of the tuple of generator
permutations; reports give it.  The scans walk each support point ``x``
only over its local period ``L_x`` (the lcm of its own cycle lengths, which
divides ``L``), weighted by ``1/L_x``.  Witness searches are bounded by
``L_x``, which is exhaustive for ``x``: the ``n = L_x`` term reproduces ``x``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import or_
from typing import Iterable, Sequence

from .measure import (
    Coupling,
    Partition,
    SimpleFunction,
    ZERO,
    _SharedFractions,
    _frac,
    support_pullback_partition,
)
from .systems import (
    FiniteZdSystem,
    Perm,
    SubgroupSpec,
    cycle_decomposition,
    identity_perm,
    invariant_factor,
)
from .upsets import StructureReport, bits_of, ground_masks, identified_on, mask_of, structure_report


@dataclass(frozen=True)
class FurstenbergJoining:
    """The exact limiting self-joining of a direction set of a finite system.

    ``directions`` are 0-based generator indices; the coupling has one
    coordinate per direction, marginals equal to the system measure, and is
    invariant under the diagonal action.  The invariance is checked in
    place, generator by generator, with :meth:`Coupling.invariant_under`:
    no moved coupling is built.
    """

    system: FiniteZdSystem
    directions: tuple[int, ...]
    coupling: Coupling
    period: int

    def __post_init__(self) -> None:
        dirs = _checked_directions(self.system, self.directions)
        object.__setattr__(self, "directions", dirs)
        if self.coupling.arity != len(dirs):
            raise ValueError("coupling arity must match the direction count")
        if self.coupling.base != self.system.space:
            raise ValueError("coupling base must be the system space")
        # Diagonal-action invariance is part of the construction contract.
        for g in self.system.generators:
            if not self.coupling.invariant_under([g] * len(dirs)):
                raise ValueError("coupling must be invariant under the diagonal action")


def _checked_directions(sys: FiniteZdSystem, directions: Iterable[int]) -> tuple[int, ...]:
    """The directions, sorted, once they are known to be a nonempty set of
    generator indices of ``sys``."""
    dirs = tuple(sorted(directions))
    if not dirs or len(set(dirs)) != len(dirs):
        raise ValueError("directions must be a nonempty set of generator indices")
    if any(not 0 <= i < sys.dim for i in dirs):
        raise ValueError("direction out of range")
    return dirs


def _local_weights(sys: FiniteZdSystem, directions: Iterable[int]) -> tuple[list[int], list[int], int]:
    """Per point ``x``: ``L_x``, the lcm of its cycle lengths under the given
    directions, and the weight ``nums[x] * L' / L_x`` (0 off the support) that
    makes one local period count as one period ``L'`` of the support; then
    the weights' denominator ``L' * den``, with ``den, nums`` integerized."""
    periods = [1] * len(sys)
    for i in directions:
        periods = list(map(lcm, periods, map(len, cycle_decomposition(sys.generators[i])[0])))
    den, nums = sys.space.integerized()
    full = lcm(*compress(periods, nums))
    return periods, [num * (full // p) for num, p in zip(nums, periods)], full * den


def _orbit_walk(gens: Sequence[Perm], rows: list, periods: Sequence[int], weights: list[int]):
    """Yield ``(rows, live)`` for ``k = 0, 1, ...``: ``rows[j][x]`` is the
    initial ``rows[j]`` read at ``gens[j]^k x`` (a step maps ``row[x] =
    row[g[x]]`` in C), and ``live[x]`` is ``weights[x]`` while ``k <
    periods[x]``, then 0.  Stops when no positive weight is left."""
    ends = set(periods)
    live = weights
    for k in range(max(compress(periods, weights))):
        if k:
            rows = [list(map(row.__getitem__, g)) for row, g in zip(rows, gens)]
            if k in ends:
                live = [w if k < p else 0 for w, p in zip(live, periods)]
        yield rows, live


def furstenberg_self_joining(
    sys: FiniteZdSystem, directions: Iterable[int] | None = None
) -> FurstenbergJoining:
    """Average the off-diagonal joinings over one exact period.

    The mass of ``(x_1, ..., x_k)`` is ``(1/L) sum_n sum_x mu(x)`` over the
    pairs with ``x_j = T^(n e_ij) x`` for every ``j``.  The directions are
    checked before any generator is read.
    """
    dirs = _checked_directions(sys, range(sys.dim) if directions is None else directions)
    periods, weights, total = _local_weights(sys, dirs)
    acc: dict[tuple[int, ...], int] = {}
    gens = [sys.generators[i] for i in dirs]
    for rows, live in _orbit_walk(gens, [identity_perm(len(sys))] * len(dirs), periods, weights):
        # zip(*rows) lists each point's orbit tuple; compress keeps the live
        # support points, whose weights are positive.
        for t, w in compress(zip(zip(*rows), live), live):
            acc[t] = acc.get(t, 0) + w
    # Equal masses share one Fraction, which later comparisons of the
    # coupling's masses skip by identity.
    shared = _SharedFractions()
    mass = {t: shared[v, total] for t, v in acc.items()}
    coupling = Coupling(len(dirs), sys.space, mass)
    return FurstenbergJoining(sys, dirs, coupling, lcm(*periods))


def nonconventional_average(
    sys: FiniteZdSystem, functions: Sequence[SimpleFunction], N: int
) -> SimpleFunction:
    """The exact finite average ``(1/N) sum_{n=1..N} prod_i f_i o T^(n e_i)``."""
    if len(functions) != sys.dim:
        raise ValueError("need one function per generator")
    if any(len(f) != len(sys) for f in functions):
        raise ValueError("dimension mismatch")
    if N < 1:
        raise ValueError("N must be at least 1")
    n_pts = len(sys)
    totals = [ZERO] * n_pts
    # The rows start at n = 1: row i holds f_i o T^(e_i).
    rows = [list(map(f.values.__getitem__, g)) for f, g in zip(functions, sys.generators)]
    for rows, _ in _orbit_walk(sys.generators, rows, [N] * n_pts, [1] * n_pts):
        for x in range(n_pts):
            prod = Fraction(1)
            for row in rows:
                prod *= row[x]
                if prod == 0:
                    break
            totals[x] += prod
    return SimpleFunction(tuple(v / N for v in totals))


def cesaro_limit(sys: FiniteZdSystem, sets: Sequence[Iterable[int]]) -> Fraction:
    """Exact limit of ``(1/N) sum_n mu(T^(-n e_1) A_1 cap ... cap T^(-n e_d) A_d)``.

    Computed as the average over one full period, which equals the limit for
    any phase, by :func:`_period_scan`: the self-joining's mass of the
    product set, without building the joining.  A point index outside
    ``range(len(sys))`` raises ``ValueError``.
    """
    if len(sets) != sys.dim:
        raise ValueError("need one set per generator")
    return _period_scan(sys, [frozenset(s) for s in sets])[0]


def _period_scan(
    sys: FiniteZdSystem, sets: Sequence[frozenset[int]]
) -> tuple[Fraction, int | None]:
    """The Cesaro limit of the product event ``A_1 x ... x A_d`` and its
    least return time, from one integer scan over the local periods.

    The scan adds the weight of :func:`_local_weights` for every point
    ``x`` and every ``n`` in ``1..L_x`` with ``T^(n e_i) x`` in ``A_i`` for
    all ``i``, and notes the least ``n`` at which a support point does so
    (``None`` if none does).  The limit is the sum over the weights'
    denominator, the same rational as the self-joining's mass of the
    product set: both sum the same orbit tuples over one period.  Null
    points weigh ``0`` and so never make a witness.
    """
    if not sets:
        raise ValueError("need at least one direction")
    n_pts = len(sys)
    bad = [x for s in sets for x in s if not 0 <= x < n_pts]
    if bad:
        raise ValueError(f"point index {min(bad)} out of range for {n_pts} points")
    periods, weights, total = _local_weights(sys, range(sys.dim))
    # inside[i][x] says whether T^(n e_i) x lies in A_i, from n = 1 on.
    inside = [list(map(s.__contains__, g)) for s, g in zip(sets, sys.generators)]
    hits = 0
    witness = None
    for n, (inside, live) in enumerate(_orbit_walk(sys.generators, inside, periods, weights), 1):
        hit = sum(compress(live, map(all, zip(*inside))))
        if hit and witness is None:
            witness = n
        hits += hit
    return Fraction(hits, total), witness


def check_offdiagonal_invariance(fj: FurstenbergJoining) -> bool:
    """Exact invariance under ``T^(e_i1) x ... x T^(e_ik)``, checked in place
    by :meth:`Coupling.invariant_under`.

    This is a theorem for the averaged construction, so ``False`` signals a
    bug rather than an interesting outcome.
    """
    return fj.coupling.invariant_under([fj.system.generators[i] for i in fj.directions])


def project_joining(fj: FurstenbergJoining, directions: Iterable[int]) -> Coupling:
    """Coordinate pushforward onto a nonempty subset of the directions.

    Equals the directly built self-joining of the smaller direction set
    exactly; the projection identity is exercised in the test suite.
    """
    dirs = tuple(sorted(directions))
    if not dirs:
        raise ValueError("direction subset must be nonempty")
    if any(i not in fj.directions for i in dirs):
        raise ValueError("not a subset of the joining's directions")
    positions = [fj.directions.index(i) for i in dirs]
    return fj.coupling.pushforward(positions)


def difference_subgroup(dim: int, indices: Sequence[int]) -> SubgroupSpec:
    """The subgroup generated by ``e_{i_1} - e_{i_j}`` for the given indices,
    read as a set: a repeated index adds no generator."""
    idx = sorted(set(indices))
    vectors = []
    for j in idx[1:]:
        v = [0] * dim
        v[idx[0]] = 1
        v[j] = -1
        vectors.append(tuple(v))
    return SubgroupSpec(tuple(vectors))


def oblique_copy(fj: FurstenbergJoining, subset: Iterable[int]) -> Partition:
    """The common pullback, through any coordinate in ``subset``, of the
    invariant factor of the difference subgroup, as a partition of the
    coupling's support tuples.

    The factor must be identified on ``subset`` (by the diagonal restriction
    lemma; :func:`~ergolab.upsets.identified_on`), so all its coordinates
    pull it back alike; a failure raises, since it would indicate a bug.
    The least coordinate is the canonical representative.  ``subset`` is
    read as a set, so a repeated direction counts once.
    """
    idx = tuple(sorted(set(subset)))
    if len(idx) < 2:
        raise ValueError("an oblique copy needs at least two directions")
    if any(i not in fj.directions for i in idx):
        raise ValueError("subset must consist of joining directions")
    factor = invariant_factor(fj.system, difference_subgroup(fj.system.dim, idx))
    positions = [fj.directions.index(i) for i in idx]
    if not identified_on(fj.coupling, mask_of(positions), factor):
        raise RuntimeError("oblique copies disagree across coordinates")
    return support_pullback_partition(fj.coupling, factor, positions[0])


@dataclass(frozen=True)
class RecurrenceCertificate:
    """Exact Cesaro limit of the diagonal return averages of a set, plus the
    least positive return time within one period (``None`` if the set is
    null)."""

    limit: Fraction
    witness: int | None


def recurrence_certificate(sys: FiniteZdSystem, A: Iterable[int]) -> RecurrenceCertificate:
    """Limit of ``(1/N) sum_n mu(icap_i T^(-n e_i) A)`` and least witness.

    Both come from one integer scan over the local periods
    (:func:`_period_scan`); no self-joining is built.  For a finite system
    with ``mu(A) > 0`` both are guaranteed positive: a point ``x`` of ``A``
    returns to ``A`` at ``n = L_x``.  A
    point index outside ``range(len(sys))`` raises ``ValueError``.
    """
    A = frozenset(A)
    return RecurrenceCertificate(*_period_scan(sys, [A] * sys.dim))


def recurrence_certificates_exhaustive(
    sys: FiniteZdSystem,
) -> dict[int, RecurrenceCertificate]:
    """Certificates for every subset of points at once, keyed by bitmask.

    Shares one period scan across all sets via a subset-sum transform, so the
    full sweep over ``2^|X|`` sets costs ``O(2^|X| |X| + |X| max L_x)`` integer
    operations.  Agrees with :func:`recurrence_certificate` set by set.
    """
    n_pts = len(sys)
    if n_pts > 20:
        raise ValueError("exhaustive sweep is limited to 20 points")
    periods, weights, total = _local_weights(sys, range(sys.dim))
    sentinel = max(periods) + 1

    # Aggregate the period scan by the point set touched by each orbit
    # tuple, and note the least n at which each such set occurs.
    agg = [0] * (1 << n_pts)
    wit = [sentinel] * (1 << n_pts)
    rows = [[1 << y for y in g] for g in sys.generators]
    for n, (rows, live) in enumerate(_orbit_walk(sys.generators, rows, periods, weights), 1):
        masks = [0] * n_pts
        for row in rows:
            masks = list(map(or_, masks, row))
        for m, w in compress(zip(masks, live), live):
            agg[m] += w
            if wit[m] == sentinel:
                wit[m] = n

    # Subset transforms: agg[A] becomes the total mass of orbit tuples inside
    # A, and wit[A] the least offset whose orbit-image mask lies inside A.
    for bit in range(n_pts):
        step = 1 << bit
        for m in range(1 << n_pts):
            if m & step:
                agg[m] += agg[m ^ step]
                if wit[m ^ step] < wit[m]:
                    wit[m] = wit[m ^ step]
    return {
        m: RecurrenceCertificate(Fraction(a, total), w if w < sentinel else None)
        for m, (a, w) in enumerate(zip(agg, wit))
    }


@dataclass(frozen=True)
class VectorSequence:
    """A finite list of equal-dimension exact rational vectors."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(map(_frac, row)) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("sequence must be nonempty")
        if len({len(r) for r in entries}) != 1:
            raise ValueError("vectors must share one dimension")

    def __len__(self) -> int:
        return len(self.entries)


def _dot(u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


@dataclass(frozen=True)
class VanDerCorputReport:
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def van_der_corput_inequality(
    seq: VectorSequence, N: int, H: int
) -> VanDerCorputReport:
    """The finite van der Corput estimate, exactly:

    ``|| (1/N) sum_n (1/H) sum_h u_{n+h} ||^2
      <= (1/H^2) sum_{h1,h2} (1/N) sum_n <u_{n+h1}, u_{n+h2}>``

    with ``n`` in ``1..N`` and ``h`` in ``1..H``.  Always holds (it is an
    exact instance of convexity of the squared norm); equality at constant
    sequences.
    """
    if N < 1 or H < 1:
        raise ValueError("N and H must be positive")
    if N + H > len(seq):
        raise ValueError("index overflow: sequence too short for N + H")
    dim = len(seq.entries[0])
    avg = [ZERO] * dim
    for n in range(1, N + 1):
        for h in range(1, H + 1):
            u = seq.entries[n + h - 1]
            for i in range(dim):
                avg[i] += u[i]
    avg = tuple(a / (N * H) for a in avg)
    lhs = _dot(avg, avg)
    rhs = ZERO
    for h1 in range(1, H + 1):
        for h2 in range(1, H + 1):
            inner = ZERO
            for n in range(1, N + 1):
                inner += _dot(seq.entries[n + h1 - 1], seq.entries[n + h2 - 1])
            rhs += inner / N
    rhs /= H * H
    return VanDerCorputReport(lhs, rhs)


def self_joining_psi(sys: FiniteZdSystem) -> dict[int, Partition]:
    """The self-joining's family of algebras: for each index set ``e`` of
    size >= 2 (a mask of :func:`~ergolab.upsets.ground_masks`), the
    invariant factor of the difference subgroup of ``e``."""
    d = sys.dim
    return {m: invariant_factor(sys, difference_subgroup(d, bits_of(m))) for m in ground_masks(d)}


def self_joining_structure_report(sys: FiniteZdSystem) -> StructureReport:
    """Evaluate the two structure predicates of the full self-joining with
    :func:`~ergolab.upsets.structure_report` and :func:`self_joining_psi`.

    Clause one: the coordinate pullbacks are relatively independent over the
    pullbacks of the joins of the pairwise-difference invariant factors.
    Clause two: for every pair of up-sets, the oblique factors are
    relatively independent over the oblique factor of the intersection.
    Both clauses can fail for systems lacking the relevant extension
    structure.
    """
    if sys.dim < 2:
        raise ValueError("structure predicates need at least two directions")
    return structure_report(furstenberg_self_joining(sys).coupling, self_joining_psi(sys))
