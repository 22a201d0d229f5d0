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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, product as iter_product, starmap
from operator import index, itemgetter
from typing import Iterable, Sequence

from .measure import (
    Coupling,
    ExactProbabilitySpace,
    Partition,
    ValidationError,
    ZERO,
    _frac,
    exact_masses,
)
from .upsets import StructureReport, bits_of, ground_masks, mask_of, structure_report

MAX_ALPHABET = 9
_LETTERS = "123456789"

__all__ = [
    "CombinatorialSubspace",
    "CorrespondenceMeasure",
    "StationaryLawTruncation",
    "all_words",
    "words_up_to",
    "check_alphabet",
    "check_word",
    "letter_replace",
    "enumerate_lines",
    "line_maps",
    "enumerate_subspaces",
    "subspace_images",
    "max_line_free",
    "MaxLineFreeResult",
    "subspace_forcing_check",
    "ForcingResult",
    "build_correspondence",
    "check_density_premises",
    "strong_stationarity_check",
    "StationarityResult",
    "marginals",
    "point_marginal",
    "insensitive_algebra",
    "line_marginal_structure_report",
    "iid_law",
    "constant_law",
    "mixture_law",
    "law_from_correspondence",
]


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
    out: list[str] = []
    for n in range(1, depth + 1):
        out.extend(all_words(k, n))
    return out


def letter_replace(e: Iterable[int], i: int, w: str) -> str:
    """Rewrite every letter in ``e`` to ``i``; other letters are unchanged."""
    targets = {str(x) for x in e}
    rep = str(i)
    return "".join(rep if ch in targets else ch for ch in w)


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

    @property
    def n(self) -> int:
        return len(self.breakpoints)

    @property
    def ambient_length(self) -> int:
        return self.breakpoints[-1] if self.breakpoints else len(self.template)

    def embed(self, v: str) -> str:
        """The image word: wildcard positions take the matching letter of ``v``."""
        check_word(v, self.k)
        if len(v) != self.n:
            raise ValueError("argument length must equal the subspace dimension")
        return self._embed(v)

    def image(self) -> tuple[str, ...]:
        return tuple(map(self._embed, all_words(self.k, self.n)))

    def _embed(self, v: str) -> str:
        out = list(self.template)
        for letter, positions in zip(v, self.wildcards):
            for p in positions:
                out[p - 1] = letter
        return "".join(out)


def _subspace_maps(k: int, n: int, total: int):
    """Every ``n``-dimensional subspace (``n >= 1``) of ambient length
    ``total`` as ``(breakpoints, wildcards, template, image)``, with letter 1
    at each wildcard position of the template, ordered by breakpoints, then
    wildcard sets, then the letters of the other positions in word order.

    A pattern holds ``{}`` at the other positions and ``{{i}}`` at those of
    wildcard set ``i``; with the letters filled in, its values at the
    parameter words, all 1s first, are the image."""
    letters = _LETTERS[: check_alphabet(k)]
    params = list(iter_product(letters, repeat=n))
    for cuts in combinations(range(1, total), n - 1):
        breakpoints = (*cuts, total)
        windows = [range(lo + 1, hi + 1) for lo, hi in zip((0, *cuts), breakpoints)]
        subsets = [[frozenset(c) for r in range(1, len(w) + 1) for c in combinations(w, r)]
                   for w in windows]
        for wildcards in iter_product(*subsets):
            pattern = ["{}"] * total
            for i, positions in enumerate(wildcards):
                for p in positions:
                    pattern[p - 1] = "{{%d}}" % i
            fill = "".join(pattern).format
            for fixed in iter_product(letters, repeat=pattern.count("{}")):
                image = tuple(starmap(fill(*fixed).format, params))
                yield breakpoints, wildcards, image[0], image


def line_maps(k: int, N: int) -> list[tuple[str, ...]]:
    """All lines of ``[k]^N`` in parameter order ``(phi(1), ..., phi(k))``:
    the images of the 1-dimensional subspaces of ambient length ``N``."""
    return [image for _, _, _, image in _subspace_maps(k, 1, N)]


def _check_lines(k: int, N: int, max_lines: int) -> None:
    """Refuse ``[k]^N`` (``N >= 1``) when it has more than ``max_lines``
    lines, ``(k+1)^N - k^N``.  That is at least ``2^(N-1)``, so a long
    ``N`` is over the bound without the powers."""
    if N > max_lines.bit_length() or (k + 1) ** N - k**N > max_lines:
        raise ValueError(f"too many lines: at most {max_lines} are listed")


def enumerate_lines(k: int, N: int, max_lines: int | None = None) -> list[tuple[str, ...]]:
    """All combinatorial lines of ``[k]^N`` as sorted point tuples, lex ordered
    and deduplicated.

    Distinct ``(J, w0)`` data always give distinct point sets, so the count
    is ``(k+1)^N - k^N``; the deduplication is an assertion of that fact.
    A count above ``max_lines``, when given, is refused before any line is
    built.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if k < 2:
        raise ValueError("lines need an alphabet of at least two letters")
    check_alphabet(k)
    if max_lines is not None:
        _check_lines(k, N, max_lines)
    seen = {tuple(sorted(line)) for line in line_maps(k, N)}
    out = sorted(seen)
    if len(out) != (k + 1) ** N - k**N:
        raise RuntimeError("line enumeration produced duplicate point sets")
    return out


def enumerate_subspaces(k: int, n: int, max_length: int) -> list[CombinatorialSubspace]:
    """All n-dimensional subspaces (``n >= 1``) with ambient length up to
    ``max_length``, deduplicated by image, in order of ambient length.

    Of the templates that differ only at wildcard positions, which share one
    image, the first in word order has letter 1 at every wildcard position;
    it is the only one enumerated.  The other positions then run in word
    order, so each image keeps its first template, built only once.
    """
    if n < 1:
        raise ValueError("subspace dimension must be at least 1")
    out: list[CombinatorialSubspace] = []
    seen: set[tuple[str, ...]] = set()
    for total in range(n, max_length + 1):
        for breakpoints, wildcards, template, image in _subspace_maps(k, n, total):
            if image not in seen:
                seen.add(image)
                out.append(CombinatorialSubspace(k, breakpoints, wildcards, template))
    return out


@cache
def subspace_images(k: int, n: int, max_length: int) -> tuple[tuple[str, ...], ...]:
    """The images of :func:`enumerate_subspaces` ``(k, n, max_length)``, in
    its order.  Built once per arguments and shared by every caller; the
    tuple is immutable."""
    return tuple(s.image() for s in enumerate_subspaces(k, n, max_length))


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
def _word_layout(k: int, depth: int) -> tuple[tuple[str, ...], dict[str, int], tuple[int, ...]]:
    """The coordinates of a law truncation of that depth: the words of
    :func:`words_up_to` ``(k, depth)``, each word's index among them, and
    the bounds of the lengths (the words of length ``n`` have the indices
    ``bounds[n - 1]`` to ``bounds[n] - 1``).  Built once per arguments and
    shared by every law; callers must not change the index."""
    words = tuple(words_up_to(k, depth))
    bounds = tuple(accumulate((k**n for n in range(1, depth + 1)), initial=0))
    return words, {w: i for i, w in enumerate(words)}, bounds


@cache
def _summation_plan(k: int, n: int, depth: int) -> tuple[tuple[int, itemgetter], ...]:
    """How the stationarity check sums the images of :func:`subspace_images`
    ``(k, n, depth)``, in their order: for each, the position of its word
    length among a law's length tables, and an ``itemgetter`` of its words'
    positions within that length (all words of an image share one length)."""
    _, windex, bounds = _word_layout(k, depth)
    plan = []
    for img in subspace_images(k, n, depth):
        lo = bounds[len(img[0]) - 1]
        plan.append((len(img[0]) - 1, itemgetter(*(windex[w] - lo for w in img))))
    return tuple(plan)


MAX_SUBSPACE_MAPS = 100_000


@cache
def _subspace_map_count(k: int, depth: int, dim_cap: int, stop: int) -> int:
    """The number of subspace maps of dimensions ``1..dim_cap`` and ambient
    lengths up to ``depth``, as :func:`_subspace_maps` yields them; counting
    ends as soon as it passes ``stop``.

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


def max_line_free(k: int, N: int, budget: int = 5_000_000) -> MaxLineFreeResult:
    """Largest subset of ``[k]^N`` containing no combinatorial line.

    Include-first branch and bound over the line hypergraph; the first
    maximum found is the lexicographically least extremal set, and pruning
    preserves that tie-break.  Points are decided in index order and the
    chosen set is always line-free, so including a point can only complete
    a line whose largest point it is: each line is tested once per node,
    at that point only, as the mask of its other points.  ``budget`` (at
    least 1) caps the number of search nodes; exceeding it returns the best
    set found with ``exhaustive=False``, which is the empty set when no
    leaf was reached.  A space of more than ``MAX_SEARCH_POINTS`` points is
    refused before any point is built.

    The include child is entered in place and only exclude children are
    stacked, which visits and counts the nodes in the same depth-first
    order as pushing both.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if check_alphabet(k) > 1 and _more_points(k, N, MAX_SEARCH_POINTS):
        raise ValueError("over budget: point set too large for the exact search")
    lines = enumerate_lines(k, N)  # refuses N < 1 and k = 1
    points = all_words(k, N)
    index = {w: i for i, w in enumerate(points)}
    n_pts = len(points)
    # completes[p]: the lines whose largest point is p, without p.
    completes: list[list[int]] = [[] for _ in range(n_pts)]
    for line in lines:
        idx = [index[w] for w in line]
        top = max(idx)
        completes[top].append(mask_of(idx) & ~(1 << top))

    best_size = 0  # the empty set is line-free
    best_mask = 0
    nodes = 0
    exhausted = True

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
            for rest in completes[pos]:
                if chosen & rest == rest:
                    break  # the point would complete a line: exclude only
            else:
                stack.append((pos + 1, chosen, count))
                chosen |= 1 << pos
                count += 1
            pos += 1

    extremal = tuple(points[i] for i in range(n_pts) if best_mask >> i & 1)
    return MaxLineFreeResult(best_size, extremal, exhausted)


@dataclass(frozen=True)
class ForcingResult:
    holds: bool
    counterexample: frozenset[str] | None
    exhaustive: bool


def subspace_forcing_check(k: int, L: int, N: int, max_sets: int = 200_000) -> ForcingResult:
    """Verify that every subset of ``[k]^N`` with density above
    ``1 - k^(-2L)`` contains an L-dimensional subspace.

    Each qualifying set is checked for a prefix set: a common suffix ``w``
    with ``u + w`` inside the set for every ``u`` in ``[k]^L``, which the
    density bound guarantees.  A prefix set is the image of an L-dimensional
    subspace of ambient length N (breakpoints ``1, ..., L-1, N``, wildcard
    ``i`` at position ``i``, template suffix ``w``), so it is the subspace
    the statement asks for.  The sets are the complements of the
    combinations of missing points, fewest missing first; a set holds the
    prefix set of ``w`` unless one of its missing points ends in ``w``.
    Reports the first set holding no prefix set, if any.  Past ``max_sets``
    sets the check stops, with ``exhaustive=False`` and the verdict of the
    sets it checked.  A space of more than ``MAX_FORCING_POINTS`` points is
    refused before any point is built.
    """
    if not 1 <= L <= N:
        raise ValueError("need 1 <= L <= N")
    if check_alphabet(k) == 1:
        return ForcingResult(True, None, True)  # one point, its own prefix set
    if _more_points(k, N, MAX_FORCING_POINTS):
        raise ValueError(
            f"point set too large for the forcing check: at most {MAX_FORCING_POINTS} points"
        )
    points = all_words(k, N)
    # A set missing m points has density above 1 - k^(-2L) when m k^(2L) < k^N.
    max_missing = (len(points) - 1) // k ** (2 * L)
    n_suffixes = k ** (N - L)
    count = 0
    for miss in range(max_missing + 1):
        for gone in combinations(points, miss):
            count += 1
            if count > max_sets:
                return ForcingResult(True, None, False)
            if len({p[L:] for p in gone}) == n_suffixes:
                return ForcingResult(False, frozenset(points).difference(gone), True)
    return ForcingResult(True, None, True)


@dataclass(frozen=True)
class CorrespondenceMeasure:
    """The joint law of the indicator slices of a set: a measure on
    0/1 configurations indexed by ``[k]^L`` (sorted word order).  ``mass``
    is the measure's own copy, read by :func:`measure.exact_masses`."""

    k: int
    length: int
    mass: dict

    def __post_init__(self) -> None:
        text = "configurations must be 0/1 tuples over [k]^L"
        mass, _, _ = exact_masses(
            self.mass, self.k**self.length, 2, length_error=text, range_error=text
        )
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "_words", tuple(all_words(self.k, self.length)))

    @property
    def words(self) -> tuple[str, ...]:
        return self._words  # type: ignore[attr-defined]

    def point_event(self, w: str) -> Fraction:
        """Mass of configurations with a 1 at the given word."""
        i = self.words.index(w)
        return sum((v for cfg, v in self.mass.items() if cfg[i] == 1), ZERO)

    def line_event(self, line: Sequence[str]) -> Fraction:
        """Mass of configurations with a 1 at every point of the line."""
        idx = [self.words.index(w) for w in line]
        return sum(
            (v for cfg, v in self.mass.items() if all(cfg[i] == 1 for i in idx)),
            ZERO,
        )


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
    the joint law of the coordinates of that length.  A tuple of
    coordinates of one length (every coordinate and subspace image is one)
    is summed from its length's table, and any other tuple from the whole
    law; each is summed once per law and remembered, as is the highest
    dimension cap at which :func:`strong_stationarity_check` held, so
    ``weights`` must not be changed after construction.  ``weights`` is the
    law's own copy, read by :func:`measure.exact_masses`: the dict passed in
    may be reused or changed afterwards.  That read is the one check of the
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
        wlist, windex, bounds = _word_layout(self.k, self.depth)
        object.__setattr__(self, "_words", wlist)
        object.__setattr__(self, "_windex", windex)
        text = "configurations must index the carrier at every word"
        weights, den, nums = exact_masses(
            self.weights, len(wlist), len(self.carrier), length_error=text, range_error=text
        )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_by_length", self._length_tables(nums))
        object.__setattr__(self, "_pulled", {})
        # The highest dimension cap at which the stationarity check held.
        object.__setattr__(self, "_verified", -1)
        first = self.coordinate_marginal(wlist[0])
        if first != self.carrier.weights:
            raise ValueError("carrier weights must equal the first-coordinate marginal")

    @property
    def words(self) -> tuple[str, ...]:
        return self._words  # type: ignore[attr-defined]

    def word_index(self, w: str) -> int:
        idx = self._windex  # type: ignore[attr-defined]
        if w not in idx:
            raise ValueError(f"word {w!r} beyond the truncation depth")
        return idx[w]

    def _indices(self, image_words: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.word_index(w) for w in image_words)

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

    def _pull(self, idx: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Numerators of the joint law of the coordinates ``idx`` (nonempty),
        summed once per law and remembered; callers must not mutate it.

        Coordinates that are all words of one length are summed from that
        length's table, by their positions in it; others from the whole law.
        Both give the same numerators over the same denominator: a marginal
        of a marginal is the marginal.  All the words of one length, in
        order, are that length's table itself.
        """
        pulled = self._pulled  # type: ignore[attr-defined]
        table = pulled.get(idx)
        if table is None:
            bounds = self._bounds  # type: ignore[attr-defined]
            n = bisect_right(bounds, idx[0])
            lo, hi = bounds[n - 1], bounds[n]
            if lo <= min(idx) and max(idx) < hi:
                table = self._by_length[n - 1]  # type: ignore[attr-defined]
                if idx != tuple(range(lo, hi)):
                    table = _sum_by(table, [i - lo for i in idx])
            else:
                table = self._sum_numerators(idx)
            pulled[idx] = table
        return table

    def _sum_numerators(self, idx: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """One scan of the whole law, for coordinates of several lengths."""
        nums = self._nums  # type: ignore[attr-defined]
        return _sum_by(dict(zip(self.weights, nums)), idx)

    def coordinate_marginal(self, w: str) -> tuple[Fraction, ...]:
        acc = self._pull((self.word_index(w),))
        den = self._den  # type: ignore[attr-defined]
        return tuple(Fraction(acc.get((c,), 0), den) for c in range(len(self.carrier)))

    def pullback(self, image_words: Sequence[str]) -> dict:
        """Joint law of the coordinates at the given words, as a new dict.

        The masses are summed as integer numerators over the law's common
        denominator, once per distinct tuple of words, and divided only for
        the output keys.
        """
        idx = self._indices(image_words)
        if not idx:
            return {(): Fraction(1)}
        den = self._den  # type: ignore[attr-defined]
        return {key: Fraction(num, den) for key, num in self._pull(idx).items()}


def _sum_by(table: dict, positions: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Integer masses of ``table`` summed by the entries of each key at the
    given positions; a single position still gives 1-tuple keys."""
    acc = _sum_image(table, itemgetter(*positions))
    if len(positions) == 1:  # a single index gives bare values, not 1-tuples
        acc = {(key,): num for key, num in acc.items()}
    return acc


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


def iid_law(k: int, depth: int, carrier: ExactProbabilitySpace) -> StationaryLawTruncation:
    """Product law: coordinates independent with the carrier distribution."""
    wlist = words_up_to(k, depth)
    supp = carrier.support()
    weights: dict[tuple[int, ...], Fraction] = {}
    for cfg in iter_product(supp, repeat=len(wlist)):
        m = Fraction(1)
        for c in cfg:
            m *= carrier.weights[c]
        weights[cfg] = m
    return StationaryLawTruncation(k, depth, carrier, weights)


def constant_law(
    k: int, depth: int, carrier: ExactProbabilitySpace
) -> StationaryLawTruncation:
    """Mixture of point masses on constant configurations, one per carrier
    point, weighted by the carrier."""
    wlist = words_up_to(k, depth)
    weights = {
        (i,) * len(wlist): carrier.weights[i]
        for i in carrier.support()
    }
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
        if (law.k, law.depth, law.carrier.points) != (
            first.k,
            first.depth,
            first.carrier.points,
        ):
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


def law_from_correspondence(cm: CorrespondenceMeasure) -> StationaryLawTruncation:
    """Promote a depth-1 correspondence measure to a law truncation on the
    0/1 carrier."""
    if cm.length != 1:
        raise ValueError("only depth-1 correspondence measures promote to laws")
    marg = [ZERO, ZERO]
    for cfg, v in cm.mass.items():
        marg[cfg[0]] += v
    carrier = ExactProbabilitySpace((0, 1), tuple(marg))
    return StationaryLawTruncation(cm.k, 1, carrier, dict(cm.mass))


@dataclass(frozen=True)
class StationarityResult:
    holds: bool
    witness: tuple | None = None  # (dimension, images_a, images_b)


def strong_stationarity_check(
    law: StationaryLawTruncation, dim_cap: int
) -> StationarityResult:
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


def point_marginal(law: StationaryLawTruncation) -> ExactProbabilitySpace:
    """The law of the first coordinate, on the carrier's points: the carrier
    itself, whose weights the constructor checked against that law."""
    return law.carrier


def marginals(
    law: StationaryLawTruncation,
) -> tuple[ExactProbabilitySpace, Coupling]:
    """Point and line marginals; requires stationarity at dimensions 0 and 1.

    The stationarity check has compared the law of every line below the
    depth with that of the first line, the words of length 1, so the line
    marginal is read from that line alone: the law's length-1 table.  A law
    already checked at a cap of 1 or more is not checked again.
    """
    if not strong_stationarity_check(law, 1).holds:
        raise ValueError("stationarity violated; marginals are ill-defined")
    point = point_marginal(law)
    return point, Coupling(law.k, point, law.pullback(law.words[: law.k]))


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
    return LineStructureReport(
        rep.coordinate_clause, rep.oblique_pairs, missed is None, witness
    )


def check_density_premises(
    obj: "CorrespondenceMeasure | StationaryLawTruncation", delta: Fraction
) -> bool:
    """Whether every point event (the coordinate taking the designated
    positive value) has mass at least ``delta``, an exact rational."""
    delta = _frac(delta)
    if isinstance(obj, CorrespondenceMeasure):
        return all(obj.point_event(w) >= delta for w in obj.words)
    if isinstance(obj, StationaryLawTruncation):
        if 1 not in obj.carrier.points:
            raise ValueError("law carrier has no designated positive value 1")
        one = obj.carrier.points.index(1)
        for w in obj.words:
            marg = obj.coordinate_marginal(w)
            if marg[one] < delta:
                return False
        return True
    raise TypeError("expected a correspondence measure or a law truncation")
