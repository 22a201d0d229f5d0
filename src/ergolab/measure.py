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
from itertools import product as iter_product
from math import lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Rational = Fraction | int


class ValidationError(ValueError):
    """An invariant failed.  ``path`` locates the offender by field names
    and indices, the way a JSON path does; a caller that holds the object
    inside a larger document prefixes its own path."""

    def __init__(self, path: Sequence, message: str):
        self.path = list(path)
        self.message = message
        super().__init__(f"{format_path(path)}: {message}")


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
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if sum(weights, ZERO) != 1:
            raise ValueError("weights must sum to exactly 1")

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
        return tuple(i for i, w in enumerate(self.weights) if w > 0)

    def measure(self, indices: Iterable[int]) -> Fraction:
        return sum((self.weights[i] for i in indices), ZERO)

    def integerized(self) -> tuple[int, tuple[int, ...]]:
        """Common denominator ``D`` and numerators so weight ``i`` is ``num[i]/D``."""
        den = lcm(*(w.denominator for w in self.weights))
        return den, tuple(int(w * den) for w in self.weights)


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
        blocks: list[list[int]] = []
        canon = []
        for i, lab in enumerate(labels):
            b = index.get(lab)
            if b is None:
                b = index[lab] = len(blocks)
                blocks.append([i])
            else:
                blocks[b].append(i)
            canon.append(b)
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
    """The join of sigma-algebras: coarsest partition refining all inputs."""
    if not partitions:
        raise ValueError("need at least one partition")
    n = partitions[0].size
    if any(p.size != n for p in partitions):
        raise ValueError("partitions live on different point counts")
    keys = [tuple(p.block_of(i) for p in partitions) for i in range(n)]
    return Partition.from_labels(keys)


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
    equality of couplings is equality of measures.
    """

    arity: int
    base: ExactProbabilitySpace
    mass: dict

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be positive")
        n = len(self.base)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for t, v in self.mass.items():
            t = tuple(t)
            v = _frac(v)
            if len(t) != self.arity:
                raise ValueError("tuple length must equal the arity")
            if any(not 0 <= i < n for i in t):
                raise ValueError("tuple entry out of range")
            if v < 0:
                raise ValueError("masses must be nonnegative")
            if v == 0:
                continue
            cleaned[t] = cleaned.get(t, ZERO) + v
        object.__setattr__(self, "mass", cleaned)
        # Both checks compare integer numerators over one common
        # denominator D of the masses and the base weights: x == y exactly
        # when x * D == y * D, and every x * D here is an integer.
        weights = self.base.weights
        mass_dens = {v.denominator for v in cleaned.values()}
        den = lcm(*mass_dens, *{w.denominator for w in weights})
        scale = {q: den // q for q in mass_dens}
        nums = [(t, v.numerator * scale[v.denominator]) for t, v in cleaned.items()]
        if sum(num for _, num in nums) != den:
            raise ValueError("total mass must be exactly 1")
        base_nums = [w.numerator * (den // w.denominator) for w in weights]
        for c in range(self.arity):
            marginal = [0] * n
            for t, num in nums:
                marginal[t[c]] += num
            if marginal != base_nums:
                raise ValueError(f"coordinate {c} marginal differs from the base weights")
        object.__setattr__(self, "_support", tuple(sorted(cleaned)))

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Positive-mass tuples in lexicographic order."""
        return self._support  # type: ignore[attr-defined]

    def marginal(self, coord: int) -> tuple[Fraction, ...]:
        out = [ZERO] * len(self.base)
        for t, v in self.mass.items():
            out[t[coord]] += v
        return tuple(out)

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

    def permute_points(self, point_maps: Sequence[Sequence[int]]) -> "Coupling":
        """Pushforward under per-coordinate point bijections of the base."""
        if len(point_maps) != self.arity:
            raise ValueError("need one point map per coordinate")
        out: dict[tuple[int, ...], Fraction] = {}
        for t, v in self.mass.items():
            key = tuple(point_maps[c][t[c]] for c in range(self.arity))
            out[key] = out.get(key, ZERO) + v
        return Coupling(self.arity, self.base, out)

    def event_mass(self, sets: Sequence[Iterable[int]]) -> Fraction:
        """Mass of the product event ``A_1 x ... x A_arity``."""
        if len(sets) != self.arity:
            raise ValueError("need one set per coordinate")
        sets = [frozenset(s) for s in sets]
        total = ZERO
        for t, v in self.mass.items():
            if all(t[c] in sets[c] for c in range(self.arity)):
                total += v
        return total

    @classmethod
    def diagonal(cls, space: ExactProbabilitySpace, arity: int) -> "Coupling":
        return cls(
            arity,
            space,
            {(i,) * arity: w for i, w in enumerate(space.weights) if w > 0},
        )

    @classmethod
    def product(cls, space: ExactProbabilitySpace, arity: int) -> "Coupling":
        supp = space.support()
        mass = {
            t: _prod(space.weights[i] for i in t)
            for t in iter_product(supp, repeat=arity)
        }
        return cls(arity, space, mass)


def _prod(xs: Iterable[Fraction]) -> Fraction:
    out = ONE
    for x in xs:
        out *= x
    return out


def relatively_independent_product(
    spaces: Sequence[ExactProbabilitySpace], maps: Sequence[Sequence[int]]
) -> Coupling:
    """Fiber-product coupling of identical spaces over maps to a common base.

    ``maps[i]`` sends each point index of ``spaces[i]`` to a fiber label; all
    maps must push the weights to the same fiber measure.  The mass of a tuple
    is ``nu(y) * prod_i mu_{i,y}(x_i)`` summed over fibers ``y``, with
    ``mu_{i,y}`` the exact disintegration; zero-mass fibers are omitted.
    """
    if not spaces or len(spaces) != len(maps):
        raise ValueError("need one map per space")
    first = spaces[0]
    for sp in spaces[1:]:
        if sp.points != first.points or sp.weights != first.weights:
            raise ValueError("coupled spaces must be identical")
    n = len(first)
    fibers: list[dict] = []
    pushes: list[dict] = []
    for m in maps:
        if len(m) != n:
            raise ValueError("map length must equal the point count")
        push: dict = {}
        fib: dict = {}
        for x in range(n):
            w = first.weights[x]
            if w > 0:
                push[m[x]] = push.get(m[x], ZERO) + w
                fib.setdefault(m[x], []).append(x)
        pushes.append(push)
        fibers.append(fib)
    for push in pushes[1:]:
        if push != pushes[0]:
            raise ValueError("maps push the weights to different base measures")
    nu = pushes[0]
    mass: dict[tuple[int, ...], Fraction] = {}
    k = len(spaces)
    for y, ny in nu.items():
        scale = ny ** (k - 1)
        for t in iter_product(*(fib[y] for fib in fibers)):
            mass[t] = mass.get(t, ZERO) + _prod(first.weights[x] for x in t) / scale
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
    """
    if isinstance(nu, Coupling):
        k = nu.arity
        if len(factors) != k or len(subfactors) != k:
            raise ValueError("need one factor and one subfactor per coordinate")
        base = nu.base
        entries = [(v, t) for t, v in nu.mass.items()]
    elif isinstance(nu, ExactProbabilitySpace):
        k = len(factors)
        if len(subfactors) != k:
            raise ValueError("need one subfactor per factor")
        base = nu
        entries = [
            (w, (x,) * k) for x, w in enumerate(nu.weights) if w > 0
        ]
    else:
        raise TypeError("nu must be a Coupling or an ExactProbabilitySpace")

    n = len(base)
    for p in list(factors) + list(subfactors):
        if p.size != n:
            raise ValueError("partition size must match the base point count")

    supp = set(base.support())
    # Coarsening precondition (mod null) and the containing-block map.
    containing: list[list[int | None]] = []
    for i in range(k):
        cont: list[int | None] = []
        for block in factors[i].blocks:
            live = [x for x in block if x in supp]
            labs = {subfactors[i].block_of(x) for x in live}
            if len(labs) > 1:
                raise ValueError(
                    f"subfactor {i} does not coarsen its factor modulo null blocks"
                )
            cont.append(labs.pop() if labs else None)
        containing.append(cont)

    # E(1_B | Xi)(x) depends only on the Xi-block of x; with Xi coarser than
    # the factor it is supported on the single block containing B.
    evals: list[list[Fraction]] = []
    for i in range(k):
        sub_mass = [base.measure(b) for b in subfactors[i].blocks]
        row = []
        for bi, block in enumerate(factors[i].blocks):
            c = containing[i][bi]
            if c is None or sub_mass[c] == 0:
                row.append(ZERO)
            else:
                row.append(base.measure(block) / sub_mass[c])
        evals.append(row)

    # One pass accumulates both sides' raw material.
    lhs: dict[tuple[int, ...], Fraction] = {}
    coarse: dict[tuple[int, ...], Fraction] = {}
    flabels = [p.labels for p in factors]
    slabels = [p.labels for p in subfactors]
    for v, t in entries:
        fkey = tuple(flabels[i][t[i]] for i in range(k))
        skey = tuple(slabels[i][t[i]] for i in range(k))
        lhs[fkey] = lhs.get(fkey, ZERO) + v
        coarse[skey] = coarse.get(skey, ZERO) + v

    for fkey in iter_product(*(range(len(p.blocks)) for p in factors)):
        e = ONE
        for i in range(k):
            e *= evals[i][fkey[i]]
            if e == 0:
                break
        if e == 0:
            rhs = ZERO
        else:
            ckey = tuple(containing[i][fkey[i]] for i in range(k))
            rhs = coarse.get(ckey, ZERO) * e
        left = lhs.get(fkey, ZERO)
        if left != rhs:
            blocks = tuple(factors[i].blocks[fkey[i]] for i in range(k))
            return IndependenceReport(False, (blocks, left, rhs))
    return IndependenceReport(True, None)


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
        tuple(partition.block_of(t[coord]) for t in coupling.support())
    )
