"""Combinatorial spaces over a k-letter alphabet and their measure layer.

Words are strings over the digits "1".."9" (alphabets up to k = 9), lines
and subspaces are parametrized injections of smaller combinatorial spaces,
and the measure layer carries two finite objects exactly:

* correspondence measures built from a dense set, recording the joint law of
  the indicator slices of the set;
* finite-depth truncations of strongly stationary laws, whose stationarity
  is checked against every subspace below explicit depth and dimension caps
  rather than assumed.

Extremal search (largest line-free set) runs an exact include-first branch
and bound, reporting the lexicographically least extremal set.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations, islice, product as iter_product
from operator import index, itemgetter
from typing import Iterable, Sequence

from .measure import (
    Coupling,
    ExactProbabilitySpace,
    Partition,
    ValidationError,
    ZERO,
    exact_masses,
)
from .upsets import StructureReport, bits_of, ground_masks, mask_of, structure_report

MAX_ALPHABET = 9
_LETTERS = "123456789"


def check_alphabet(k: int) -> int:
    """Letters are the single digits, so ``1 <= k <= MAX_ALPHABET``."""
    if not 1 <= k <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be between 1 and {MAX_ALPHABET}")
    return k


def check_word(w: str, k: int) -> str:
    """``w`` itself, if every letter is one of the ASCII digits ``"1"`` to
    ``str(k)``; other characters, other Unicode digits among them, raise."""
    letters = _LETTERS[: check_alphabet(k)]
    for ch in w:
        if ch not in letters:
            raise ValueError(f"letter {ch!r} outside alphabet of size {k}")
    return w


def all_words(k: int, length: int) -> list[str]:
    """All words of exactly the given length, lexicographic."""
    return ["".join(t) for t in iter_product(_LETTERS[: check_alphabet(k)], repeat=length)]


def words_up_to(k: int, depth: int) -> list[str]:
    """All words of length 1..depth, ordered by (length, word)."""
    return [w for n in range(1, depth + 1) for w in all_words(k, n)]


@dataclass(frozen=True)
class CombinatorialSubspace:
    """A parametrized injection of ``[k]^n`` into words of length ``N_n``.

    ``breakpoints`` are ``N_1 < ... < N_n``; wildcard set ``i`` is a nonempty
    set of 1-based positions in ``(N_{i-1}, N_i]``; non-wildcard positions
    copy the template.  ``n = 0`` is allowed and embeds the empty word onto
    the template itself (a single point of the ambient space).
    """

    k: int
    breakpoints: tuple[int, ...]
    wildcards: tuple[frozenset[int], ...]
    template: str

    def __post_init__(self) -> None:
        bps = tuple(map(index, self.breakpoints))
        wcs = tuple(frozenset(map(index, s)) for s in self.wildcards)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "wildcards", wcs)
        check_word(self.template, self.k)
        if len(bps) != len(wcs):
            raise ValueError("need one wildcard set per breakpoint")
        prev = 0
        for b, s in zip(bps, wcs):
            if b <= prev:
                raise ValueError("breakpoints must be strictly increasing from 0")
            if not s:
                raise ValueError("wildcard sets must be nonempty")
            if not all(prev < p <= b for p in s):
                raise ValueError("wildcard positions must lie in their window")
            prev = b
        # n = 0 degenerates to a bare point: the template is the image.
        if bps and len(self.template) != prev:
            raise ValueError("template length must equal the last breakpoint")


def _subspace_maps(k: int, n: int, total: int):
    """The canonical maps of the ``n``-dimensional subspaces (``n >= 1``) of
    ambient length ``total``, one ``(breakpoints, wildcards, bases, steps)``
    per wildcard pattern, ordered by breakpoints, then wildcard sets, then
    the letters of the other positions in word order.  A map is canonical
    when its breakpoints but the last end its wildcard sets; every other map
    repeats the image of a canonical one that comes before it, and for
    ``k >= 2`` no two canonical maps share an image.  A word's index in
    :func:`all_words` order is the sum of ``(letter - 1) * k^(total - q)``
    over its positions ``q``: ``bases`` are the templates', in word order,
    letter 1 at each wildcard position, and ``steps[i]`` that sum over
    wildcard set ``i``, so an image is :func:`_points`."""
    check_alphabet(k)
    weight = [k ** (total - q) for q in range(total + 1)]  # weight[q]: position q
    for cuts in combinations(range(1, total), n - 1):
        breakpoints = (*cuts, total)
        windows = [range(lo + 1, hi + 1) for lo, hi in zip((0, *cuts), breakpoints)]
        # Each breakpoint but the last is the end of its wildcard set.
        choices = [
            [frozenset(c) for r in range(1, len(w) + 1) for c in combinations(w, r)
             if c[-1] == w[-1] or w[-1] == total]
            for w in windows
        ]
        for wildcards in iter_product(*choices):
            taken = frozenset().union(*wildcards)
            bases = _points(k, 0, [weight[q] for q in range(1, total + 1) if q not in taken])
            steps = tuple(sum(map(weight.__getitem__, w)) for w in wildcards)
            yield breakpoints, wildcards, bases, steps


def _subspaces(k: int, n: int, max_length: int):
    """:func:`_subspace_maps` of the lengths ``n..max_length``, one per image:
    at ``k = 1`` each length's first map stands for all, whose one image is
    its one word.  A dimension below 1 is refused at the call."""
    if n < 1:
        raise ValueError("subspace dimension must be at least 1")
    return chain.from_iterable(
        islice(_subspace_maps(k, n, total), 1 if k == 1 else None)
        for total in range(n, max_length + 1)
    )


def _points(k: int, base: int, steps: Sequence[int]) -> list[int]:
    """The word indices of an image, at the parameter words in order: ``base``
    plus one multiple ``0..k-1`` of each step, in lex order of the multiples."""
    points = [base]
    for step in steps:
        multiples = [c * step for c in range(k)]
        points = [p + m for p in points for m in multiples]
    return points


def _lines(k: int, N: int):
    """The lines of ``[k]^N`` in parameter order ``(phi(1), ..., phi(k))``,
    as ranges of word indices: the images of the 1-dimensional subspaces of
    ambient length ``N``, each from its base in steps of its step."""
    return (
        range(base, base + k * step, step)
        for _, _, bases, (step,) in _subspace_maps(k, 1, N)
        for base in bases
    )


def _check_lines(k: int, N: int, max_lines: int) -> None:
    """Refuse ``[k]^N`` (``N >= 1``) when it has more than ``max_lines``
    lines, ``(k+1)^N - k^N``.  That is at least ``2^(N-1)``, so a long
    ``N`` is over the bound without the powers."""
    if N > max_lines.bit_length() or (k + 1) ** N - k**N > max_lines:
        raise ValueError(f"too many lines: at most {max_lines} are listed")


def enumerate_lines(k: int, N: int, max_lines: int | None = None) -> list[tuple[str, ...]]:
    """All ``(k+1)^N - k^N`` combinatorial lines of ``[k]^N`` as sorted point
    tuples, lex ordered: a line's points rise with its parameter, so each is
    its :func:`_lines` range, in words.  A count above ``max_lines`` is refused first."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if k < 2:
        raise ValueError("lines need an alphabet of at least two letters")
    check_alphabet(k)
    if max_lines is not None:
        _check_lines(k, N, max_lines)
    words = all_words(k, N)
    return sorted(tuple(map(words.__getitem__, line)) for line in _lines(k, N))


def enumerate_subspaces(k: int, n: int, max_length: int) -> list[CombinatorialSubspace]:
    """All n-dimensional subspaces (``n >= 1``) with ambient length up to
    ``max_length``, one per image, in order of ambient length: of the maps
    that share an image, the first in (breakpoints, wildcard sets, template)
    order, whose template has letter 1 at every wildcard position."""
    maps = _subspaces(k, n, max_length)
    words, bounds = _word_layout(k, max_length)
    return [
        CombinatorialSubspace(k, bps, wildcards, words[bounds[bps[-1] - 1] + base])
        for bps, wildcards, bases, _ in maps
        for base in bases
    ]


@cache
def subspace_images(k: int, n: int, max_length: int) -> tuple[tuple[str, ...], ...]:
    """The images of :func:`enumerate_subspaces` ``(k, n, max_length)``, in
    its order: the words of each map's length at its :func:`_points`, the
    index rule the stationarity check sums by.  Built once per arguments
    and shared by every caller; the tuple is immutable."""
    maps = _subspaces(k, n, max_length)
    words, bounds = _word_layout(k, max_length)
    return tuple(
        tuple(words[bounds[bps[-1] - 1] + p] for p in _points(k, base, steps))
        for bps, _, bases, steps in maps
        for base in bases
    )


MAX_LAW_LETTERS = 1 << 24


def _word_letters(k: int, depth: int, stop: int) -> int:
    """The letters of the words of lengths ``1..depth``, the sum of
    ``m * k^m``; counting ends as soon as it passes ``stop``."""
    if k == 1:
        return depth * (depth + 1) // 2
    total = 0
    for m in range(1, depth + 1):
        total += m * k**m
        if total > stop:
            break
    return total


@cache
def _word_layout(k: int, depth: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The coordinates of a law truncation of that depth: the words of
    :func:`words_up_to` ``(k, depth)`` and the bounds of the lengths (the
    words of length ``n`` have the indices ``bounds[n - 1]`` to
    ``bounds[n] - 1``).  Built once per arguments and shared by every law
    and subspace listing."""
    words = tuple(words_up_to(k, depth))
    bounds = tuple(accumulate((k**n for n in range(1, depth + 1)), initial=0))
    return words, bounds


@cache
def _summation_plan(k: int, n: int, depth: int) -> tuple[tuple[int, itemgetter], ...]:
    """How the stationarity check sums the images of :func:`subspace_images`
    ``(k, n, depth)``, in their order: for each, the position of its word
    length among a law's length tables, and an ``itemgetter`` of its words'
    indices in :func:`all_words` order, their positions within that length."""
    return tuple(
        (bps[-1] - 1, itemgetter(*_points(k, base, steps)))
        for bps, _, bases, steps in _subspaces(k, n, depth)
        for base in bases
    )


MAX_SUBSPACE_MAPS = 100_000


@cache
def _subspace_map_count(k: int, depth: int, dim_cap: int, stop: int) -> int:
    """The number of subspace maps of dimensions ``1..dim_cap`` and ambient
    lengths up to ``depth``, canonical or not (:func:`_subspace_maps`);
    counting ends as soon as it passes ``stop``.

    A map of dimension ``n`` and length ``L`` cuts ``L`` into windows
    ``s_1 + ... + s_n``, and a window of ``s`` positions has
    ``(k+1)^s - k^s`` choices of a nonempty wildcard set and letters at its
    other positions, so the count is a sum over those compositions of the
    products of the windows' choices.
    """
    if dim_cap < 1:
        return 0
    total = 0
    window = [0]  # window[s]: the choices of one window of s positions
    ways = [[1]]  # ways[n][L]: the maps of dimension n and length L
    for L in range(1, depth + 1):
        window.append((k + 1) ** L - k**L)
        ways[0].append(0)
        if L <= dim_cap:
            ways.append([0] * L)
        for n in range(1, min(L, dim_cap) + 1):
            here = sum(window[s] * ways[n - 1][L - s] for s in range(1, L - n + 2))
            ways[n].append(here)
            total += here
        if total > stop:
            break
    return total


MAX_SEARCH_POINTS = 4096
MAX_FORCING_POINTS = 1 << 21


def _more_points(k: int, N: int, bound: int) -> bool:
    """Whether ``[k]^N`` has more than ``bound`` points, for ``k >= 2``.
    There are at least ``2^N``, so a long ``N`` is over the bound without
    the power."""
    return N >= bound.bit_length() or k**N > bound


@dataclass(frozen=True)
class MaxLineFreeResult:
    size: int
    extremal: tuple[str, ...]
    exhaustive: bool


def _line_masks(k: int, N: int) -> tuple[list[int], list[list[int]]]:
    """The lines of ``[k]^N`` (``k >= 2``) by their largest point ``p``, as
    masks of their other points: at two letters, one point each, all in the
    mask ``single[p]``; at more, one mask per line, listed in ``completes[p]``."""
    single = [0] * k**N
    completes: list[list[int]] = [[] for _ in single]
    for _, _, bases, (step,) in _subspace_maps(k, 1, N):
        if k == 2:
            for base in bases:
                single[base + step] |= 1 << base
        else:
            for base in bases:
                top = base + (k - 1) * step
                completes[top].append(mask_of(range(base, top, step)))
    return single, completes


def max_line_free(k: int, N: int, budget: int = 5_000_000) -> MaxLineFreeResult:
    """Largest subset of ``[k]^N`` containing no combinatorial line.

    Include-first branch and bound over the line hypergraph; the first
    maximum found is the lexicographically least extremal set, and pruning
    preserves that tie-break.  Points are decided in index order and the
    chosen set is always line-free, so including a point can only complete
    a line whose largest point it is: each line is tested once per node,
    at that point only, on the mask of its other points; at two letters
    that is one point, and the lines of a point share one mask.  ``budget``
    (at least 1) caps the number of search nodes; exceeding it returns the
    best set found with ``exhaustive=False``, which is the empty set when no
    leaf was reached.  A space of more than ``MAX_SEARCH_POINTS`` points is
    refused before any point is built.  The masks of its lines are built
    before the first node, outside the budget: at most ``(k+1)^N - k^N``
    lines, 527,345 at ``(2, 12)``.

    The include child is entered in place and only exclude children are
    stacked, which visits and counts the nodes in the same depth-first
    order as pushing both.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if check_alphabet(k) > 1 and _more_points(k, N, MAX_SEARCH_POINTS):
        raise ValueError("over budget: point set too large for the exact search")
    if N < 1:
        raise ValueError("N must be at least 1")
    if k < 2:
        raise ValueError("lines need an alphabet of at least two letters")
    single, completes = _line_masks(k, N)
    n_pts = len(single)
    best_size, best_mask = 0, 0  # the empty set is line-free
    nodes, exhausted = 0, True

    # Depth-first over point decisions; a frame is (next point, chosen
    # mask, chosen count).  A node is pruned when even choosing every
    # remaining point would not beat the best set: count - pos <= floor.
    floor = best_size - n_pts
    stack = [(0, 0, 0)]
    while stack:
        pos, chosen, count = stack.pop()
        while True:
            nodes += 1
            if nodes > budget:
                exhausted = False
                stack.clear()  # no frame is popped after this one
                break
            if count - pos <= floor:
                break
            if pos == n_pts:  # a leaf that beats the best set
                best_size, best_mask = count, chosen
                floor = best_size - n_pts
                break
            if not chosen & single[pos]:
                for rest in completes[pos]:
                    if chosen & rest == rest:
                        break  # the point would complete a line: exclude only
                else:
                    stack.append((pos + 1, chosen, count))
                    chosen |= 1 << pos
                    count += 1
            pos += 1

    extremal = tuple(map(all_words(k, N).__getitem__, bits_of(best_mask)))
    return MaxLineFreeResult(best_size, extremal, exhausted)


def subspace_forcing_check(k: int, L: int, N: int, max_sets: int = 200_000) -> bool:
    """Verify that every subset of ``[k]^N`` with density above
    ``1 - k^(-2L)`` contains an L-dimensional subspace, and return whether
    the verification is exhaustive: the verdict itself always holds.

    The verdict is the prefix lemma.  A set missing ``m`` points qualifies
    when ``m k^(2L) < k^N``, so it misses at most
    ``M = (k^N - 1) // k^(2L) < k^(N-2L) <= k^(N-L)`` points: fewer than
    there are suffixes ``w`` of length ``N - L``.  It holds the prefix set
    of ``w`` (every ``u + w``, ``u`` in ``[k]^L``) unless one of its missing
    points ends in ``w``, so some prefix set survives and no qualifying set
    is a counterexample.  A prefix set is the image of an L-dimensional
    subspace of ambient length N (breakpoints ``1, ..., L-1, N``, wildcard
    ``i`` at position ``i``, template suffix ``w``), so it is the subspace
    the statement asks for.  The check is exhaustive when the qualifying
    sets, ``sum C(k^N, m)`` over ``m <= M``, are at most ``max_sets``; the
    sum stops as soon as it passes that limit, and no set, point or word
    is built.  A space of more than ``MAX_FORCING_POINTS`` points is
    refused first.
    """
    if not 1 <= L <= N:
        raise ValueError("need 1 <= L <= N")
    if check_alphabet(k) == 1:
        return True  # one point, its own prefix set
    if _more_points(k, N, MAX_FORCING_POINTS):
        raise ValueError(
            f"point set too large for the forcing check: at most {MAX_FORCING_POINTS} points"
        )
    n_points = k**N
    max_missing = (n_points - 1) // k ** (2 * L)
    sets = term = 1  # the full set: C(k^N, 0)
    for m in range(1, max_missing + 1):
        if sets > max_sets:
            break
        term = term * (n_points - m + 1) // m
        sets += term
    return sets <= max_sets


@dataclass(frozen=True)
class CorrespondenceMeasure:
    """The joint law of the indicator slices of a set: a measure on 0/1
    configurations indexed by ``[k]^L`` in :func:`all_words` order.  ``mass``
    is the measure's own copy, read by :func:`measure.exact_masses`, whose
    integer form the constructor keeps: the common denominator and each
    configuration's numerator.  In a mask, bit ``j`` is the ``j``-th
    configuration in table order.  The constructor builds one mask per word,
    of the configurations with a 1 there, and one per distinct numerator, of
    those that carry it; :meth:`event` reads every event from these masks."""

    k: int
    length: int
    mass: dict

    def __post_init__(self) -> None:
        text = "configurations must be 0/1 tuples over [k]^L"
        mass, den, nums = exact_masses(
            self.mass, self.k**self.length, 2, length_error=text, range_error=text
        )
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "_words", tuple(all_words(self.k, self.length)))
        object.__setattr__(self, "_den", den)
        # A word's column of 0/1 bytes as base-2 digits, the last configuration first.
        digits = bytes.maketrans(b"\0\1", b"01")
        hits = [int(bytes(col).translate(digits), 2) for col in zip(*reversed(mass))]
        object.__setattr__(self, "_hits", hits)
        by_num: dict[int, int] = {}
        for j, num in enumerate(nums):
            by_num[num] = by_num.get(num, 0) | 1 << j
        object.__setattr__(self, "_by_num", tuple(by_num.items()))

    @property
    def words(self) -> tuple[str, ...]:
        return self._words  # type: ignore[attr-defined]

    def event(self, points: Iterable[int]) -> Fraction:
        """Mass of the configurations with a 1 at every word index in
        ``points``: a point event for one index, a line event for a line's.
        An empty ``points`` is the whole space, so its event is 1.  An index
        outside ``range(k^L)``, a negative one included, raises ``ValueError``."""
        hits, by_num, den = self._hits, self._by_num, self._den  # type: ignore[attr-defined]
        hit = -1  # every bit set: every configuration
        for i in points:
            if not 0 <= i < len(hits):
                raise ValueError(f"word index {i} not in [k]^L")
            hit &= hits[i]
        return Fraction(sum(n * (hit & m).bit_count() for n, m in by_num), den)


def build_correspondence(
    A: Iterable[str], k: int, N: int, L: int, max_lines: int | None = None
) -> CorrespondenceMeasure:
    """The measure whose configuration probabilities are the densities of the
    suffix patterns of ``A``:

    ``mass{(x_w)} = density of {v in [k]^(N-L) : x_w = 1_{A_w}(v) for all w}``

    with ``A_w = {v : w + v in A}``.  Point events equal the slice densities
    and line events the densities of slice intersections.

    After the arguments and the words of ``A`` are checked, a space of more
    than ``MAX_FORCING_POINTS`` points (``k^N``) is refused before any word
    is built, and so, when ``max_lines`` is given, is a window ``[k]^L`` of
    more than ``max_lines`` lines: a caller that lists every line event
    passes its listing bound.
    """
    if not 1 <= L < N:
        raise ValueError("need 1 <= L < N")
    A = {check_word(w, k) for w in A}
    for w in A:
        if len(w) != N:
            raise ValueError("set elements must have length N")
    if check_alphabet(k) > 1 and _more_points(k, N, MAX_FORCING_POINTS):
        raise ValueError(
            f"point set too large for the correspondence: at most {MAX_FORCING_POINTS} points"
        )
    if max_lines is not None:
        _check_lines(k, L, max_lines)
    prefixes = all_words(k, L)
    M = N - L
    acc: dict[tuple[int, ...], int] = {}
    for v in all_words(k, M):
        cfg = tuple(1 if w + v in A else 0 for w in prefixes)
        acc[cfg] = acc.get(cfg, 0) + 1
    total = k**M
    return CorrespondenceMeasure(
        k, L, {cfg: Fraction(c, total) for cfg, c in acc.items()}
    )


@dataclass(frozen=True)
class StationaryLawTruncation:
    """A finite-depth truncation of a law on configurations indexed by words.

    ``weights`` is an exact measure on ``K^W`` with ``W`` the words of length
    1..depth in (length, word) order and entries indexed into the carrier.
    The carrier weights must equal the marginal at the first word; marginal
    agreement across the other coordinates is what the stationarity check
    verifies, not an assumption.

    The constructor scans the law once, summing integer numerators over
    the common denominator of its masses into one table per word length:
    the joint law of the coordinates of that length.  The law is read only
    through these tables.  :func:`strong_stationarity_check` sums each
    coordinate and subspace image, which lies inside one length, from its
    length's table.  The two other reads take the length-1 table: the
    constructor sums its first coordinate to check the carrier, and
    :func:`marginals` takes the whole table as the line marginal.  The law
    remembers the highest dimension cap at which
    :func:`strong_stationarity_check` held, so ``weights`` must not be
    changed after construction.  ``weights`` is the law's own copy, read by
    :func:`measure.exact_masses`: the dict passed in may be reused or
    changed afterwards.  That read is the one check of the
    configurations' entries (their types and range), also for a law read
    from a document: ``serialize`` hands the entries over unchecked and
    runs its located per-entry read only after a check here has failed, to
    place the error.  A depth whose words would have more than
    ``MAX_LAW_LETTERS`` letters in all is refused, at ``depth``, before any
    word is built.
    """

    k: int
    depth: int
    carrier: ExactProbabilitySpace
    weights: dict

    def __post_init__(self) -> None:
        check_alphabet(self.k)
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if _word_letters(self.k, self.depth, MAX_LAW_LETTERS) > MAX_LAW_LETTERS:
            raise ValidationError(
                ["depth"], f"law too deep: its words would have more than {MAX_LAW_LETTERS} letters"
            )
        wlist, bounds = _word_layout(self.k, self.depth)
        object.__setattr__(self, "_words", wlist)
        text = "configurations must index the carrier at every word"
        weights, den, nums = exact_masses(
            self.weights, len(wlist), len(self.carrier), length_error=text, range_error=text
        )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_bounds", bounds)
        tables = self._length_tables(nums)
        object.__setattr__(self, "_by_length", tables)
        # The highest dimension cap at which the stationarity check held.
        object.__setattr__(self, "_verified", -1)
        acc = _sum_image(tables[0], itemgetter(0))
        first = tuple(Fraction(acc.get(c, 0), den) for c in range(len(self.carrier)))
        if first != self.carrier.weights:
            raise ValueError("carrier weights must equal the first-coordinate marginal")

    @property
    def words(self) -> tuple[str, ...]:
        return self._words  # type: ignore[attr-defined]

    def _length_tables(self, nums: list[int]) -> list[dict[tuple[int, ...], int]]:
        """One scan of the whole law: for each word length, the numerators
        summed by the configuration at the words of that length.  ``nums``
        holds each weight's numerator over the common denominator, in the
        order of ``weights``."""
        bounds = self._bounds  # type: ignore[attr-defined]
        tables: list[dict] = [{} for _ in range(self.depth)]
        parts = [(slice(lo, hi), t) for lo, hi, t in zip(bounds, bounds[1:], tables)]
        for cfg, num in zip(self.weights, nums):
            for part, table in parts:
                key = cfg[part]
                table[key] = table.get(key, 0) + num
        return tables


def _sum_image(table: dict, get: itemgetter) -> dict:
    """Integer masses of ``table`` summed by the part ``get`` reads of each
    key: a bare entry for a single position, a tuple for several."""
    acc: dict = {}
    for key, num in table.items():
        part = get(key)
        acc[part] = acc.get(part, 0) + num
    return acc


def _coordinate_sums(table: dict) -> list[dict[int, int]]:
    """The integer masses of each coordinate of a length table, by carrier
    index, from one pass over the table."""
    sums: list[dict[int, int]] = [{} for _ in next(iter(table))]
    for key, num in table.items():
        for acc, c in zip(sums, key):
            acc[c] = acc.get(c, 0) + num
    return sums


def constant_law(k: int, depth: int, carrier: ExactProbabilitySpace) -> StationaryLawTruncation:
    """Mixture of point masses on constant configurations, one per carrier
    point, weighted by the carrier."""
    wlist = words_up_to(k, depth)
    weights = {(i,) * len(wlist): carrier.weights[i] for i in carrier.support()}
    return StationaryLawTruncation(k, depth, carrier, weights)


def mixture_law(
    laws: Sequence[StationaryLawTruncation], coefficients: Sequence[Fraction]
) -> StationaryLawTruncation:
    """Convex mixture; stationarity is preserved by mixing."""
    if len(laws) != len(coefficients) or not laws:
        raise ValueError("need one coefficient per law")
    if sum(coefficients, ZERO) != 1 or any(c < 0 for c in coefficients):
        raise ValueError("coefficients must be a convex combination")
    first = laws[0]
    for law in laws[1:]:
        if (law.k, law.depth, law.carrier.points) != (first.k, first.depth, first.carrier.points):
            raise ValueError("mixture components must share alphabet, depth, carrier")
    weights: dict[tuple[int, ...], Fraction] = {}
    for law, c in zip(laws, coefficients):
        if c == 0:
            continue
        for cfg, v in law.weights.items():
            weights[cfg] = weights.get(cfg, ZERO) + c * v
    carrier_weights = tuple(
        sum((c * law.carrier.weights[i] for law, c in zip(laws, coefficients)), ZERO)
        for i in range(len(first.carrier))
    )
    carrier = ExactProbabilitySpace(first.carrier.points, carrier_weights)
    return StationaryLawTruncation(first.k, first.depth, carrier, weights)


@dataclass(frozen=True)
class StationarityResult:
    holds: bool
    witness: tuple | None = None  # (dimension, images_a, images_b)


def strong_stationarity_check(law: StationaryLawTruncation, dim_cap: int) -> StationarityResult:
    """Check that pullbacks along every subspace of each dimension up to the
    cap agree, i.e. the truncated law cannot distinguish subspaces.

    Dimension 0 compares single-coordinate marginals.  Returns the first
    violating pair of subspace images.

    The comparisons run from dimension 0 up.  Dimension 0 reads every
    coordinate marginal of one length from one pass over that length's
    table; each image of a higher dimension is summed when it is compared,
    from its length's table, by the law's cached summation plan.  Equal
    integer tables over the law's common denominator are equal laws.  The
    law remembers the highest cap at which the check held: a cap at or
    below it is answered at once, and a higher one checks only the
    dimensions above it, which gives the same verdict and witness.

    A check that would walk more than ``MAX_SUBSPACE_MAPS`` subspace maps
    (dimensions 1 to the cap, lengths up to the depth) is refused before
    any is built.
    """
    if dim_cap < 0:
        raise ValueError("dimension cap must be nonnegative")
    if dim_cap > law.depth:
        raise ValueError("dimension cap cannot exceed the truncation depth")
    # A law cannot change after construction, so it keeps its verdict.
    verified = law._verified  # type: ignore[attr-defined]
    if dim_cap <= verified:
        return StationarityResult(True, None)
    maps = _subspace_map_count(law.k, law.depth, dim_cap, MAX_SUBSPACE_MAPS)
    if maps > MAX_SUBSPACE_MAPS:
        raise ValueError(
            f"law too deep for the check: more than {MAX_SUBSPACE_MAPS} subspace maps"
            f" at depth {law.depth} and dimension cap {dim_cap}"
        )
    tables = law._by_length  # type: ignore[attr-defined]
    if verified < 0:
        bounds = law._bounds  # type: ignore[attr-defined]
        first = None
        for table, lo in zip(tables, bounds):
            sums = _coordinate_sums(table)
            if first is None:
                first = sums[0]
            for i, acc in enumerate(sums, lo):
                if acc != first:
                    return StationarityResult(False, (0, (law.words[0],), (law.words[i],)))
        object.__setattr__(law, "_verified", 0)
    for n in range(max(verified + 1, 1), dim_cap + 1):  # n <= depth, so there are images
        (length, get), *rest = _summation_plan(law.k, n, law.depth)
        reference = _sum_image(tables[length], get)
        for j, (length, get) in enumerate(rest, 1):
            if _sum_image(tables[length], get) != reference:
                images = subspace_images(law.k, n, law.depth)
                return StationarityResult(False, (n, images[0], images[j]))
        object.__setattr__(law, "_verified", n)
    return StationarityResult(True, None)


def marginals(law: StationaryLawTruncation) -> tuple[ExactProbabilitySpace, Coupling]:
    """Point and line marginals; requires stationarity at dimensions 0 and 1.

    The stationarity check has compared the law of every line below the
    depth with that of the first line, the words of length 1, so the line
    marginal is read from that line alone: the law's length-1 table.  A law
    already checked at a cap of 1 or more is not checked again.  The point
    marginal is the carrier, whose weights the constructor checked against
    the law of the first coordinate.
    """
    if not strong_stationarity_check(law, 1).holds:
        raise ValueError("stationarity violated; marginals are ill-defined")
    den, table = law._den, law._by_length[0]  # type: ignore[attr-defined]
    line = {key: Fraction(num, den) for key, num in table.items()}
    return law.carrier, Coupling(law.k, law.carrier, line)


def insensitive_algebra(law: StationaryLawTruncation, e: Iterable[int]) -> Partition:
    """The partition of the carrier whose block unions are the sets with
    coinciding pullbacks through every line coordinate in ``e``.

    Its blocks are the connected components of the graph joining ``x`` and
    ``y`` whenever a positive-mass line tuple takes the values ``x`` and
    ``y`` at two coordinates in ``e``: a set whose pullbacks agree up to a
    null set holds both ends of every edge or neither, and a union of
    components has equal pullbacks.
    """
    e = sorted(set(map(index, e)))
    if any(not 1 <= i <= law.k for i in e):
        raise ValueError("line coordinates must lie in the alphabet")
    return _insensitive_partition(marginals(law)[1], [i - 1 for i in e])


def _insensitive_partition(line: Coupling, coords: Sequence[int]) -> Partition:
    """:func:`insensitive_algebra` of the line marginal ``line``, for the
    0-based line coordinates ``coords``, sorted and distinct."""
    pairs = tuple(combinations(coords, 2))
    return Partition.from_pairs(
        len(line.base), ((t[i], t[j]) for t in line.mass for i, j in pairs)
    )


@dataclass(frozen=True)
class LineStructureReport(StructureReport):
    implication_holds: bool
    implication_witness: tuple | None


def line_marginal_structure_report(law: StationaryLawTruncation) -> LineStructureReport:
    """Structure predicates of the line marginal, from
    :func:`~ergolab.upsets.structure_report`.

    ``psi`` gives each set ``e`` of at least two line coordinates its
    ``e``-insensitive algebra (:func:`insensitive_algebra`), derived from
    one line marginal, so the members of an up-set are those algebras.
    Clause one: coordinate pullbacks relatively independent over the joins
    of pairwise insensitive algebras.  Clause two: lifted up-set algebras
    relatively independent over intersections.  Both may fail for
    unstructured laws.  The final check is the line-to-point implication:
    for every tuple of carrier points, a null line event forces a null
    point intersection.  An intersection of singletons is null off the
    diagonal, and a product of singletons is null exactly when its tuple
    is off the line's support, so the first failing tuple, in product
    order, is ``(x,) * k`` for the least point ``x`` of positive mass whose
    diagonal tuple the line marginal misses.
    """
    point, line = marginals(law)
    psi = {m: _insensitive_partition(line, bits_of(m)) for m in ground_masks(law.k)}
    rep = structure_report(line, psi)
    missed = next((x for x in point.support() if (x,) * law.k not in line.mass), None)
    witness = None if missed is None else (frozenset((missed,)),) * law.k
    return LineStructureReport(rep.coordinate_clause, rep.oblique_pairs, missed is None, witness)
