"""Exact finite probability spaces, partitions, and couplings.

Everything is computed in exact rational arithmetic (``fractions.Fraction``),
so every check in this package is an exact equality rather than a tolerance
comparison.  All containers are immutable after construction and all
operations are pure functions, which makes concurrent reads safe and results
deterministic.

Conventions:

* points of a space are addressed by 0-based index; labels are opaque,
  hashable, and only required to be distinct;
* a sigma-algebra on a finite space is represented by the partition into its
  atoms, so joins of sigma-algebras become common refinements of partitions;
* couplings are stored sparsely (positive-mass tuples only), keeping products
  ``X^d`` tractable at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, product as iter_product
from math import gcd, lcm, prod
from operator import attrgetter, getitem, index, itemgetter
from typing import Collection, Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

_numerator = attrgetter("numerator")

Rational = Fraction | int


class ValidationError(ValueError):
    """An invariant failed.  ``path`` locates the offender by field names
    and indices, the way a JSON path does, relative to the value that was
    read; a caller that read that value inside a larger document places the
    error there with :meth:`within`."""

    def __init__(self, path: Sequence, message: str):
        self.path = list(path)
        self.message = message
        super().__init__(f"{format_path(path)}: {message}")

    def within(self, *keys) -> "ValidationError":
        """This error, located inside the value at ``keys``."""
        self.path[:0] = keys
        self.args = (f"{format_path(self.path)}: {self.message}",)
        return self


def format_path(path: Sequence) -> str:
    out = "$"
    for p in path:
        out += f"[{p!r}]" if isinstance(p, int) else f".{p}"
    return out


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class ExactProbabilitySpace:
    """A finite list of labelled points with exact weights summing to 1."""

    points: tuple
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        weights = tuple(_frac(w) for w in self.weights)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if len(points) != len(weights):
            raise ValueError("points and weights must have equal length")
        if len(set(points)) != len(points):
            raise ValueError("point labels must be distinct")
        # Sign and total are checked on the numerators over the common
        # denominator, which are kept for :meth:`integerized`.
        den = lcm(*{w.denominator for w in weights})
        nums = tuple(w.numerator * (den // w.denominator) for w in weights)
        if min(nums, default=0) < 0:
            raise ValueError("weights must be nonnegative")
        if sum(nums) != den:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def uniform(cls, labels: Iterable) -> "ExactProbabilitySpace":
        labels = tuple(labels)
        if not labels:
            raise ValueError("a probability space needs at least one point")
        w = Fraction(1, len(labels))
        return cls(labels, tuple(w for _ in labels))

    def support(self) -> tuple[int, ...]:
        # Weights are nonnegative Fractions, so a weight is positive exactly
        # when its numerator is nonzero.
        return tuple(compress(range(len(self.weights)), map(_numerator, self.weights)))

    def measure(self, indices: Iterable[int]) -> Fraction:
        return sum((self.weights[i] for i in indices), ZERO)

    def integerized(self) -> tuple[int, tuple[int, ...]]:
        """Common denominator ``D`` (the lcm of the weights' denominators) and
        numerators so weight ``i`` is ``num[i]/D``."""
        return self._den, self._nums  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Partition:
    """A set partition of ``range(size)``; blocks are the atoms of a sigma-algebra.

    Canonical form: each block sorted, blocks ordered by least element.
    """

    size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            for i in b:
                if not 0 <= i < self.size:
                    raise ValueError(f"point index {i} out of range")
                if i in seen:
                    raise ValueError("blocks must be pairwise disjoint")
                seen.add(i)
        if len(seen) != self.size:
            raise ValueError("blocks must cover every point")
        labels = [0] * self.size
        for bi, b in enumerate(blocks):
            for i in b:
                labels[i] = bi
        object.__setattr__(self, "_labels", tuple(labels))

    @property
    def labels(self) -> tuple[int, ...]:
        """Block index of each point."""
        return self._labels  # type: ignore[attr-defined]

    def block_of(self, i: int) -> int:
        return self.labels[i]

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(n, tuple((i,) for i in range(n)))

    @classmethod
    def one_block(cls, n: int) -> "Partition":
        return cls(n, (tuple(range(n)),))

    @classmethod
    def from_labels(cls, labels: Sequence) -> "Partition":
        """The partition of ``range(len(labels))`` into equal-label classes.

        Blocks are numbered by first occurrence, which is the canonical
        order (each block ascending, blocks by least element), so the result
        is built in one pass without ``__post_init__``'s validation.
        """
        index: dict = {}
        canon = [index.setdefault(lab, len(index)) for lab in labels]
        blocks: list[list[int]] = [[] for _ in index]
        for i, b in enumerate(canon):
            blocks[b].append(i)
        out = object.__new__(cls)
        object.__setattr__(out, "size", len(canon))
        object.__setattr__(out, "blocks", tuple(map(tuple, blocks)))
        object.__setattr__(out, "_labels", tuple(canon))
        return out

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Partition":
        """Connected components of the graph on ``range(n)`` with the given
        edges (union-find with path halving)."""
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return cls.from_labels(tuple(find(x) for x in range(n)))

    def is_refinement_of(self, coarser: "Partition") -> bool:
        """True iff every block of ``self`` lies inside a single block of ``coarser``."""
        if self.size != coarser.size:
            raise ValueError("partitions live on different point counts")
        # Labels number the blocks, so self refines coarser exactly when
        # each of its labels meets one label of coarser.
        seen: dict[int, int] = {}
        return all(
            seen.setdefault(f, c) == c for f, c in zip(self.labels, coarser.labels)
        )

    def restricted_blocks(self, indices: Iterable[int]) -> frozenset[frozenset[int]]:
        """Nonempty traces of the blocks on a subset of points."""
        keep = set(indices)
        out = []
        for b in self.blocks:
            t = frozenset(i for i in b if i in keep)
            if t:
                out.append(t)
        return frozenset(out)


def common_refinement(*partitions: Partition) -> Partition:
    """The join of sigma-algebras: coarsest partition refining all inputs.

    When every input has the same labels, the join is that partition, and
    the first input is returned as it is."""
    if not partitions:
        raise ValueError("need at least one partition")
    n = partitions[0].size
    if any(p.size != n for p in partitions):
        raise ValueError("partitions live on different point counts")
    first = partitions[0].labels
    if all(p.labels == first for p in partitions):
        return partitions[0]
    return Partition.from_labels(tuple(zip(*(p.labels for p in partitions))))


def ae_equal(p: Partition, q: Partition, space: ExactProbabilitySpace) -> bool:
    """Whether two partitions agree up to zero-weight points."""
    if p.size != len(space) or q.size != len(space):
        raise ValueError("partition size must match the point count")
    supp = space.support()
    return p.restricted_blocks(supp) == q.restricted_blocks(supp)


@dataclass(frozen=True)
class SimpleFunction:
    """A rational-valued function given by one exact value per point."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(_frac(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def indicator(cls, n: int, where: Iterable[int]) -> "SimpleFunction":
        s = set(where)
        return cls(tuple(ONE if i in s else ZERO for i in range(n)))

    @classmethod
    def constant(cls, n: int, value: Rational) -> "SimpleFunction":
        v = _frac(value)
        return cls(tuple(v for _ in range(n)))

    def integral(self, space: ExactProbabilitySpace) -> Fraction:
        if len(self) != len(space):
            raise ValueError("dimension mismatch")
        return sum((w * v for w, v in zip(space.weights, self.values)), ZERO)


def conditional_expectation(
    f: SimpleFunction, partition: Partition, space: ExactProbabilitySpace
) -> SimpleFunction:
    """Average ``f`` over each block; zero-measure blocks get the value 0.

    The result is constant on blocks and has the same integral as ``f``.
    """
    n = len(space)
    if len(f) != n or partition.size != n:
        raise ValueError("dimension mismatch")
    out = [ZERO] * n
    for block in partition.blocks:
        mass = sum((space.weights[i] for i in block), ZERO)
        if mass == 0:
            val = ZERO
        else:
            val = sum((space.weights[i] * f.values[i] for i in block), ZERO) / mass
        for i in block:
            out[i] = val
    return SimpleFunction(tuple(out))


@dataclass(frozen=True)
class Coupling:
    """A sparse exact measure on ``X^arity`` whose coordinate marginals all equal
    the base measure.

    Only positive-mass tuples are stored; zero entries passed to the
    constructor are dropped, so the sparse representation is canonical and
    equality of couplings is equality of measures.  ``mass`` is the
    coupling's own copy, read by :func:`exact_masses`; the marginals are
    then checked on integer numerators.  The common denominator and the
    numerators, in table order, are kept: sums of masses are taken on them
    and divided once.
    """

    arity: int
    base: ExactProbabilitySpace
    mass: dict

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be positive")
        mass, den, nums = exact_masses(
            self.mass,
            self.arity,
            len(self.base),
            length_error="tuple length must equal the arity",
            range_error="tuple entry out of range",
        )
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)
        # The marginals are compared on integer numerators over D.  A base
        # weight p/q in lowest terms is a sum of masses over D only if q
        # divides D, so otherwise coordinate 0 already differs.
        weights = self.base.weights
        if any(den % w.denominator for w in weights):
            raise ValueError("coordinate 0 marginal differs from the base weights")
        base_nums = [w.numerator * (den // w.denominator) for w in weights]
        for c in range(self.arity):
            if self._marginal_nums(c) != base_nums:
                raise ValueError(f"coordinate {c} marginal differs from the base weights")
        object.__setattr__(self, "_support", tuple(sorted(mass)))

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Positive-mass tuples in lexicographic order."""
        return self._support  # type: ignore[attr-defined]

    def marginal(self, coord: int) -> tuple[Fraction, ...]:
        den = self._den  # type: ignore[attr-defined]
        return tuple(Fraction(num, den) for num in self._marginal_nums(coord))

    def _marginal_nums(self, coord: int) -> list[int]:
        """The numerators over ``_den`` of the marginal at ``coord``."""
        out = [0] * len(self.base)
        for t, num in zip(self.mass, self._nums):  # type: ignore[attr-defined]
            out[t[coord]] += num
        return out

    def as_space(self) -> ExactProbabilitySpace:
        """The support tuples, with their masses, as a probability space."""
        supp = self.support()
        return ExactProbabilitySpace(supp, tuple(self.mass[t] for t in supp))

    def pushforward(self, coords: Sequence[int]) -> "Coupling":
        """Marginal coupling on a subtuple of coordinates."""
        coords = tuple(coords)
        if not coords or any(not 0 <= c < self.arity for c in coords):
            raise ValueError("invalid coordinate selection")
        out: dict[tuple[int, ...], Fraction] = {}
        for t, v in self.mass.items():
            key = tuple(t[c] for c in coords)
            out[key] = out.get(key, ZERO) + v
        return Coupling(len(coords), self.base, out)

    def invariant_under(self, point_maps: Sequence[Sequence[int]]) -> bool:
        """Whether the pushforward under per-coordinate point bijections of
        the base equals the coupling.

        Checked in place: each support tuple's image must carry the tuple's
        own mass.  Bijections send distinct tuples to distinct tuples, so
        this holds exactly when the pushforward's mass equals ``mass``.
        The masses are compared as lists, which skips the arithmetic
        comparison of a mass with itself.
        """
        if len(point_maps) != self.arity:
            raise ValueError("need one point map per coordinate")
        images = (tuple(map(getitem, point_maps, t)) for t in self.mass)
        return list(map(self.mass.get, images)) == list(self.mass.values())

    def event_mass(self, sets: Sequence[Iterable[int]]) -> Fraction:
        """Mass of the product event ``A_1 x ... x A_arity``."""
        if len(sets) != self.arity:
            raise ValueError("need one set per coordinate")
        sets = [frozenset(s) for s in sets]
        total = sum(
            num
            for t, num in zip(self.mass, self._nums)  # type: ignore[attr-defined]
            if all(map(frozenset.__contains__, sets, t))
        )
        return Fraction(total, self._den)  # type: ignore[attr-defined]

    def pullback_disagreement(self, aset: Iterable[int], i: int, j: int) -> Fraction:
        """Mass of the tuples whose coordinates ``i`` and ``j`` fall on
        different sides of ``aset``: the measure of the symmetric difference
        of the pullbacks of ``aset`` through ``i`` and through ``j``."""
        if not (0 <= i < self.arity and 0 <= j < self.arity):
            raise ValueError("coordinate out of range")
        aset = frozenset(aset)
        total = sum(
            num
            for t, num in zip(self.mass, self._nums)  # type: ignore[attr-defined]
            if (t[i] in aset) != (t[j] in aset)
        )
        return Fraction(total, self._den)  # type: ignore[attr-defined]

    @classmethod
    def diagonal(cls, space: ExactProbabilitySpace, arity: int) -> "Coupling":
        """The coupling carried by the diagonal: the fiber product over the
        identity map, whose fibers are the points."""
        return _fiber_power(space, arity, range(len(space)))

    @classmethod
    def product(cls, space: ExactProbabilitySpace, arity: int) -> "Coupling":
        """The independent coupling: the fiber product over the map to one
        point, so a tuple's mass is the product of its points' weights."""
        return _fiber_power(space, arity, [0] * len(space))


def _fiber_power(space: ExactProbabilitySpace, arity: int, labels: Sequence[int]) -> Coupling:
    """The fiber product of ``arity`` copies of ``space`` over one map."""
    if arity < 1:
        raise ValueError("arity must be positive")
    return relatively_independent_product([space] * arity, [labels] * arity)


def clean_entries(keys: Iterable, values: Iterable, length: int, n: int) -> bool:
    """Whether every key is a ``length``-long tuple of exact ints in
    ``range(n)`` and every value a positive ``Fraction``, decided by passes
    in C.  Such a table of masses needs no conversion."""
    return (
        set(map(type, keys)) <= {tuple}
        and set(map(len, keys)) <= {length}
        and set(map(type, chain.from_iterable(keys))) <= {int}
        and set(chain.from_iterable(keys)) <= set(range(n))
        and set(map(type, values)) <= {Fraction}
        and min(map(_numerator, values), default=1) > 0
    )


def exact_masses(
    mass, length: int, n: int, *, length_error: str, range_error: str
) -> tuple[dict, int, list[int]]:
    """The table of exact masses of a probability measure on ``range(n)``
    to the power ``length``, with its integer form.

    Keys are ``length``-long tuples of ints in ``range(n)``, each entry read
    with ``operator.index`` (a bool is an int; a float or a string raises
    ``TypeError``), and values are read with :func:`_frac`.  Repeated keys
    are summed and zero masses dropped.  A bad key raises ``ValueError``
    with ``length_error`` or ``range_error``, and a negative mass with its
    own text, in the order of ``mass.items()``, before any later entry.

    Returns the table as a new dict, the lcm ``D`` of its denominators, and
    the numerator over ``D`` of each mass, in table order.  The total is
    checked to be 1 on those integers.

    Each distinct mass object is read once: a parsed document shares one
    ``Fraction`` per distinct value string.  The usual table, a dict of
    such tuples of exact ints with positive ``Fraction`` masses, is
    recognised by passes in C (:func:`clean_entries`) and copied as it is.

    This is the one check of a key entry's type and range.  A mass table
    read from a document (law weights, coupling masses) reaches it with
    its keys unchecked: ``serialize`` checks only the document's shape, and
    runs its located per-entry read only when this check, or its own,
    fails, to place the error.
    """
    distinct = _by_id(mass.values()) if type(mass) is dict else None
    if distinct is not None and clean_entries(mass.keys(), distinct.values(), length, n):
        table = dict(mass)
    else:
        table = {}
        for t, v in mass.items():
            t = tuple(map(index, t))
            if len(t) != length:
                raise ValueError(length_error)
            if any(not 0 <= i < n for i in t):
                raise ValueError(range_error)
            v = _frac(v)
            if v < 0:
                raise ValueError("masses must be nonnegative")
            if v:
                table[t] = table[t] + v if t in table else v
        distinct = _by_id(table.values())
    den = lcm(*{v.denominator for v in distinct.values()})
    numerator = {i: v.numerator * (den // v.denominator) for i, v in distinct.items()}
    if len(numerator) == len(table):  # each mass its own object, in table order
        nums = list(numerator.values())
    else:
        nums = list(map(numerator.__getitem__, map(id, table.values())))
    if sum(nums) != den:
        raise ValueError("total mass must be exactly 1")
    return table, den, nums


def _by_id(values: Collection) -> dict:
    """The distinct objects among ``values``, keyed by ``id``."""
    return dict(zip(map(id, values), values))


class _SharedFractions(dict):
    """``(num, den)`` -> ``Fraction(num, den)``, built on first use and
    shared by every key of the same value, so that a table of masses holds
    one ``Fraction`` per distinct mass: a key not in lowest terms reads the
    entry of its lowest terms."""

    def __missing__(self, key: tuple[int, int]) -> Fraction:
        num, den = key
        g = gcd(num, den)
        out = self[key] = self[num // g, den // g] if g != 1 else Fraction(num, den)
        return out


def relatively_independent_product(
    spaces: Sequence[ExactProbabilitySpace], maps: Sequence[Sequence[int]]
) -> Coupling:
    """Fiber-product coupling of identical spaces over maps to a common base.

    ``maps[i]`` sends each point index of ``spaces[i]`` to a fiber label; all
    maps must push the weights to the same fiber measure.  The mass of a tuple
    is ``nu(y) * prod_i mu_{i,y}(x_i)`` summed over fibers ``y``, with
    ``mu_{i,y}`` the exact disintegration; zero-mass fibers are omitted.

    A tuple lies over at most one fiber ``y`` (its points' labels), so with
    weights ``num[x]/D`` and ``nu(y) = s_y/D`` its mass is
    ``prod_i num[x_i] / (D * s_y**(k-1))``, computed on those integers.
    """
    if not spaces or len(spaces) != len(maps):
        raise ValueError("need one map per space")
    first = spaces[0]
    for sp in spaces[1:]:
        if sp.points != first.points or sp.weights != first.weights:
            raise ValueError("coupled spaces must be identical")
    n = len(first)
    den, nums = first.integerized()
    fibers: list[dict] = []
    pushes: list[dict] = []
    for m in maps:
        if len(m) != n:
            raise ValueError("map length must equal the point count")
        push: dict = {}
        fib: dict = {}
        for x in first.support():
            y = m[x]
            push[y] = push.get(y, 0) + nums[x]
            fib.setdefault(y, []).append(x)
        pushes.append(push)
        fibers.append(fib)
    for push in pushes[1:]:
        if push != pushes[0]:
            raise ValueError("maps push the weights to different base measures")
    mass: dict[tuple[int, ...], Fraction] = {}
    k = len(spaces)
    shared = _SharedFractions()
    for y, s in pushes[0].items():
        scale = den * s ** (k - 1)
        for t in iter_product(*(fib[y] for fib in fibers)):
            mass[t] = shared[prod(map(nums.__getitem__, t)), scale]
    return Coupling(k, first, mass)


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of an exhaustive relative-independence check.

    ``witness`` is ``None`` when the identity holds for every tuple of block
    indicators, else ``(blocks, lhs, rhs)`` where ``blocks`` is the violating
    tuple of blocks (one per factor) and ``lhs``/``rhs`` are the two exact
    integrals that differ.
    """

    holds: bool
    witness: tuple | None = None


def relative_independence(
    factors: Sequence[Partition],
    subfactors: Sequence[Partition],
    nu: "Coupling | ExactProbabilitySpace",
) -> IndependenceReport:
    """Exhaustively test whether the factor tuple is relatively independent
    over the subfactor tuple under ``nu``.

    For every tuple of block indicators ``f_i`` (one block per factor) the
    identity ``int prod f_i dnu == int prod E(f_i | Xi_i) dnu`` is checked
    exactly.  ``nu`` may be a coupling, in which case ``f_i`` acts on
    coordinate ``i`` and all partitions live on the base space, or a plain
    probability space, in which case every factor acts on that space.

    Precondition: each subfactor coarsens its factor modulo nu-null blocks.

    With ``B_i`` the factor blocks and ``C_i`` the subfactor blocks that
    contain them, the left side is the pushforward of ``nu`` to block
    tuples, and the right side is ``coarse(C) * prod_i mu(B_i)/mu(C_i)``,
    where ``coarse`` is the pushforward of ``nu`` to subfactor-block
    tuples (0 when some ``B_i`` is null).  The check costs
    O(|supp nu| * k) plus one pass over the base points per factor, not
    O(prod_i |blocks_i|):

    * Both sides have total mass 1.  The positive-mass factor blocks in a
      subfactor block ``C`` cover its positive-mass points (the
      precondition), so their masses sum to ``mu(C)``, and summing the
      right side over them leaves the total of ``coarse``.  So if the two
      sides agree on every tuple of the left side's support, the
      nonnegative right side has no mass left for any other tuple: the
      identity holds everywhere.
    * The witness is the first failing tuple in lex order, as a loop over
      every tuple would find it.  It is the smaller of the first failing
      tuple of the left support and the least tuple off that support with
      a positive right side.  The second is found by a walk over the
      tuples whose subfactor blocks form a key of ``coarse``, in lex
      order, stopped at the first tuple off the support or once the walk
      passes the first.  Every tuple of the walk has a positive right
      side, so it visits at most ``|supp nu| + 1`` of them.

    Both sides are compared on integer numerators over the common
    denominator ``D`` of ``nu``'s masses (which the base weights divide):
    ``lhs * prod mu(C_i) == coarse * prod mu(B_i)``.  ``Fraction``s are
    built only for the witness.
    """
    if isinstance(nu, Coupling):
        k = nu.arity
        if len(factors) != k or len(subfactors) != k:
            raise ValueError("need one factor and one subfactor per coordinate")
        base = nu.base
        den = nu._den  # type: ignore[attr-defined]
        entries = zip(nu.mass, nu._nums)  # type: ignore[attr-defined]
    elif isinstance(nu, ExactProbabilitySpace):
        k = len(factors)
        if len(subfactors) != k:
            raise ValueError("need one subfactor per factor")
        base = nu
        den, nums = nu.integerized()
        entries = [((x,) * k, num) for x, num in enumerate(nums) if num]
    else:
        raise TypeError("nu must be a Coupling or an ExactProbabilitySpace")

    n = len(base)
    for p in list(factors) + list(subfactors):
        if p.size != n:
            raise ValueError("partition size must match the base point count")

    # Base weights over D; a coupling's base denominators divide its D.
    base_den, weights = base.integerized()
    if base_den != den:
        weights = [w * (den // base_den) for w in weights]
    live = [(x, w) for x, w in enumerate(weights) if w]
    flabels = [p.labels for p in factors]
    slabels = [p.labels for p in subfactors]
    # Coarsening precondition (mod null), the containing block of each
    # positive-mass factor block, and the block masses over D.
    containing: list[dict[int, int]] = []
    block_mass: list[list[int]] = []
    sub_mass: list[list[int]] = []
    for i in range(k):
        cont: dict[int, int] = {}
        fmass = [0] * len(factors[i])
        smass = [0] * len(subfactors[i])
        for x, w in live:
            b, c = flabels[i][x], slabels[i][x]
            if cont.setdefault(b, c) != c:
                raise ValueError(
                    f"subfactor {i} does not coarsen its factor modulo null blocks"
                )
            fmass[b] += w
            smass[c] += w
        containing.append(cont)
        block_mass.append(fmass)
        sub_mass.append(smass)

    # Both pushforwards, and the subfactor key of each factor key.
    lhs: dict[tuple[int, ...], int] = {}
    coarse: dict[tuple[int, ...], int] = {}
    ckey: dict[tuple[int, ...], tuple[int, ...]] = {}
    for t, num in entries:
        fkey = tuple(map(getitem, flabels, t))
        skey = tuple(map(getitem, slabels, t))
        lhs[fkey] = lhs.get(fkey, 0) + num
        coarse[skey] = coarse.get(skey, 0) + num
        ckey[fkey] = skey

    failing = [
        fkey
        for fkey, num in lhs.items()
        if num * prod(map(getitem, sub_mass, ckey[fkey]))
        != coarse[ckey[fkey]] * prod(map(getitem, block_mass, fkey))
    ]
    if not failing:
        return IndependenceReport(True, None)
    first = min(failing)
    off = _first_off_support(containing, coarse, lhs, first)
    if off is not None:
        fkey, skey = off
        left = ZERO
    else:
        fkey, skey = first, ckey[first]
        left = Fraction(lhs[fkey], den)
    blocks = tuple(factors[i].blocks[fkey[i]] for i in range(k))
    right = Fraction(
        coarse[skey] * prod(map(getitem, block_mass, fkey)),
        den * prod(map(getitem, sub_mass, skey)),
    )
    return IndependenceReport(False, (blocks, left, right))


def _first_off_support(
    containing: Sequence[dict[int, int]],
    coarse: dict[tuple[int, ...], int],
    support: Collection[tuple[int, ...]],
    bound: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The least tuple of positive-mass factor blocks below ``bound`` whose
    containing subfactor blocks form a key of ``coarse`` and which is not in
    ``support``, with that key; ``None`` if there is none.

    The tuples are walked in lex order, one coordinate at a time, through
    the subfactor keys' prefixes.  Each subfactor block of a key holds a
    positive-mass factor block, so every prefix walked reaches a tuple.
    """
    k = len(containing)
    groups: list[dict[int, list[int]]] = []
    for cont in containing:
        group: dict[int, list[int]] = {}
        for b in sorted(cont):
            group.setdefault(cont[b], []).append(b)
        groups.append(group)
    nexts: dict[tuple[int, ...], set[int]] = {}
    for skey in coarse:
        for i in range(k):
            nexts.setdefault(skey[:i], set()).add(skey[i])

    def walk(fkey: tuple[int, ...], skey: tuple[int, ...]):
        i = len(fkey)
        if i == k:
            yield fkey, skey
            return
        for b, c in sorted((b, c) for c in nexts[skey] for b in groups[i][c]):
            yield from walk(fkey + (b,), skey + (c,))

    for fkey, skey in walk((), ()):
        if fkey >= bound:
            return None
        if fkey not in support:
            return fkey, skey
    return None


def support_pullback_partition(
    coupling: Coupling, partition: Partition, coord: int
) -> Partition:
    """Partition of the coupling's support tuples by the partition block of
    one coordinate."""
    if partition.size != len(coupling.base):
        raise ValueError("partition size must match the base point count")
    if not 0 <= coord < coupling.arity:
        raise ValueError("coordinate out of range")
    return Partition.from_labels(
        tuple(map(partition.labels.__getitem__, map(itemgetter(coord), coupling.support())))
    )
