"""Combinatorial spaces, extremal search, correspondence, stationary laws."""
from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import lcm

import pytest

from helpers import (
    all_lines_max_line_free,
    check_density_premises,
    embed,
    every_template_subspaces,
    iid_law,
    image,
    law_from_correspondence,
    letter_replace,
    line_maps,
    naive_coordinate_marginal,
    naive_pullback,
    old_enumerate_subspaces,
    old_line_event,
    old_line_maps,
    old_build_correspondence,
    old_line_to_point_implication,
    old_max_line_free,
    old_point_event,
    old_subspace_forcing_check,
    old_subspace_maps,
    set_family_atoms,
    word_line_masks,
)

from ergolab import hales_jewett
from ergolab.hales_jewett import (
    MAX_FORCING_POINTS,
    CombinatorialSubspace,
    CorrespondenceMeasure,
    StationaryLawTruncation,
    all_words,
    build_correspondence,
    check_word,
    constant_law,
    enumerate_lines,
    enumerate_subspaces,
    insensitive_algebra,
    line_marginal_structure_report,
    marginals,
    max_line_free,
    mixture_law,
    strong_stationarity_check,
    subspace_forcing_check,
    subspace_images,
    words_up_to,
)
from ergolab.measure import ExactProbabilitySpace, Partition, ValidationError
from ergolab.serialize import canonical_dumps, correspondence_to_json
from ergolab.upsets import bits_of, ground_masks, structure_report

F = Fraction


# -- subspaces and embedding ---------------------------------------------------

def test_all_wildcard_line_doubles_letters():
    s = CombinatorialSubspace(3, (2,), (frozenset({1, 2}),), "11")
    for i in "123":
        assert embed(s, i) == i + i


def test_embedding_formula_example():
    # k=2, N1=3, wildcard {2}: positions 1 and 3 copy the template "121".
    s = CombinatorialSubspace(2, (3,), (frozenset({2}),), "121")
    assert embed(s, "1") == "111"
    assert embed(s, "2") == "121"


def test_embedding_injective_on_small_parameters():
    for k in (2, 3):
        for n in (1, 2):
            for s in enumerate_subspaces(k, n, 3):
                img = image(s)
                assert len(set(img)) == k**n


# Every (k, length) with k^length <= 81.
_SMALL_SPACES = [(2, m) for m in range(1, 7)] + [(3, m) for m in range(1, 5)]


@pytest.mark.parametrize("k, length", _SMALL_SPACES)
def test_subspaces_match_the_every_template_enumeration(k, length):
    # The same subspaces, templates included, in the same order, as the
    # enumeration that builds every template of each image.  Images of
    # different ambient lengths differ, so the list runs through the
    # ambient lengths in order, each the every-template list of its length.
    for n in range(1, length + 1):
        subspaces = enumerate_subspaces(k, n, length)
        lengths = [s.breakpoints[-1] for s in subspaces]
        assert lengths == sorted(lengths)
        for m in range(n, length + 1):
            expected = every_template_subspaces(k, n, m, exact_length=m)
            assert [s for s in subspaces if s.breakpoints[-1] == m] == expected
    assert enumerate_subspaces(k, length + 1, length) == []


def test_subspace_images_are_built_once_and_shared():
    images = subspace_images(3, 2, 3)
    assert images is subspace_images(3, 2, 3)
    assert images == tuple(image(s) for s in enumerate_subspaces(3, 2, 3))


def test_subspace_validation():
    with pytest.raises(ValueError):
        CombinatorialSubspace(2, (2,), (frozenset(),), "11")
    with pytest.raises(ValueError):
        CombinatorialSubspace(2, (2,), (frozenset({3}),), "11")
    with pytest.raises(ValueError):
        CombinatorialSubspace(2, (2,), (frozenset({1}),), "111")


def test_zero_dimensional_subspace_is_a_point():
    s = CombinatorialSubspace(2, (), (), "121")
    assert embed(s, "") == "121"


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_subspaces_refuses_dimension_below_one(n):
    # Dimension 0 is the coordinate-marginal step of the stationarity
    # check, which needs no subspace; n <= 0 used to return the lines.
    with pytest.raises(ValueError, match="^subspace dimension must be at least 1$"):
        enumerate_subspaces(2, n, 2)
    with pytest.raises(ValueError):
        every_template_subspaces(2, n, 2)


@pytest.mark.parametrize("word", ["1\u0663", "1\u00b2", "14", "10", "1a", "1 "])
def test_check_word_accepts_only_the_ascii_letters(word):
    # U+0663 (Arabic-Indic three) and U+00B2 (superscript two) are digits
    # to str.isdigit, but not letters of the alphabet.
    with pytest.raises(ValueError, match=f"^letter {word[1]!r} outside alphabet of size 3$"):
        check_word(word, 3)
    assert check_word("123", 3) == "123"
    assert check_word("", 3) == ""


# -- lines ------------------------------------------------------------------------

def test_line_counts_match_identity():
    for k in (2, 3):
        for N in (1, 2, 3, 4):
            assert len(enumerate_lines(k, N)) == (k + 1) ** N - k**N


def test_single_line_smallest_case():
    assert enumerate_lines(2, 1) == [("1", "2")]


def test_line_points_are_sorted_tuples():
    lines = enumerate_lines(3, 2)
    assert len(lines) == 7
    for line in lines:
        assert list(line) == sorted(line)
        assert len(set(line)) == 3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_line_maps_match_the_former_loop(k):
    # The same lines, in the same parameter order, as the former loop over
    # (J, w0), at every N <= 4 (none at N = 0); from k = 2 on, they are the
    # images of the 1-dimensional subspaces of ambient length N, in order.
    for N in range(5):
        lines = line_maps(k, N)
        assert lines == old_line_maps(k, N)
        if k >= 2:
            subspaces = enumerate_subspaces(k, 1, N)
            assert lines == [image(s) for s in subspaces if s.breakpoints[-1] == N]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_index_enumeration_matches_the_string_enumeration(k):
    # Every subspace of dimension <= 3 and length <= 5, with its four
    # fields, its image and its place in the order, as the string maps
    # give them once each image's repeats are dropped; every line as the
    # former (J, w0) loop gives it.  Where every template is cheap to
    # build, that enumeration must agree too.
    for length in range(6):
        for n in range(1, 4):
            expected = old_enumerate_subspaces(k, n, length)
            subspaces = enumerate_subspaces(k, n, length)
            got = [(s.breakpoints, s.wildcards, s.template, image(s)) for s in subspaces]
            assert got == expected
            assert subspace_images(k, n, length) == tuple(image for *_, image in expected)
            if k**length <= 81:
                assert subspaces == every_template_subspaces(k, n, length)
        lines = old_line_maps(k, length)
        assert line_maps(k, length) == lines
        assert lines == [image for *_, image in old_subspace_maps(k, 1, length)]
        if k >= 2 and length >= 1:
            assert enumerate_lines(k, length) == sorted({tuple(sorted(l)) for l in lines})


@pytest.mark.parametrize("k, N", [(2, 6), (3, 4), (2, 8), (3, 5)])
def test_line_masks_match_the_masks_built_from_words(k, N):
    # For each point, the lines whose largest point it is, as the sets of
    # their other points: read from the one mask per point at two letters,
    # and from the listed masks otherwise.
    single, completes = hales_jewett._line_masks(k, N)
    got = [
        {frozenset((q,)) for q in bits_of(one)} | {frozenset(bits_of(m)) for m in many}
        for one, many in zip(single, completes)
    ]
    assert got == word_line_masks(k, N)
    assert (k == 2) == any(single) and (k == 2) != any(completes)
    assert sum(map(len, got)) == (k + 1) ** N - k**N


@pytest.mark.parametrize("k", [0, 10])
def test_enumerations_refuse_alphabets_beyond_the_digits(k):
    for call in (lambda: list(hales_jewett._lines(k, 2)), lambda: list(hales_jewett._lines(k, 0)),
                 lambda: enumerate_subspaces(k, 1, 2)):
        with pytest.raises(ValueError, match="alphabet size"):
            call()


def test_general_subspace_enumeration_matches_line_count():
    # One-dimensional subspaces at exact ambient length are exactly the lines.
    for k, N in ((2, 2), (2, 3), (3, 2)):
        subspaces = enumerate_subspaces(k, 1, N)
        images = {tuple(sorted(image(s))) for s in subspaces if s.breakpoints[-1] == N}
        assert images == set(enumerate_lines(k, N))


# -- letter replacement --------------------------------------------------------------

def test_letter_replace_examples():
    assert letter_replace((), 1, "1213") == "1213"
    assert letter_replace({1, 2}, 2, "1213") == "2223"


def test_letter_replace_idempotent_randomized():
    rng = random.Random(5)
    for _ in range(80):
        k = rng.randint(2, 4)
        w = "".join(str(rng.randint(1, k)) for _ in range(rng.randint(0, 8)))
        e = {x for x in range(1, k + 1) if rng.random() < 0.5}
        i = rng.randint(1, k)
        once = letter_replace(e, i, w)
        assert letter_replace(e, i, once) == once
        allowed = {str(x) for x in set(range(1, k + 1)) - e} | {str(i)}
        assert set(once) <= allowed


# -- extremal search --------------------------------------------------------------------

def brute_force_max_line_free(k, N):
    points = all_words(k, N)
    lines = [frozenset(l) for l in enumerate_lines(k, N)]
    best = 0
    for bits in range(1 << len(points)):
        chosen = {points[i] for i in range(len(points)) if bits >> i & 1}
        if len(chosen) <= best:
            continue
        if not any(line <= chosen for line in lines):
            best = len(chosen)
    return best


def test_max_line_free_sperner_values():
    # Lines at two letters pair comparable vertices of the cube, so the
    # extremal sizes are the central binomial coefficients.
    r = max_line_free(2, 3)
    assert (r.size, r.exhaustive) == (3, True)
    assert r.size == brute_force_max_line_free(2, 3)
    assert max_line_free(2, 1).size == 1  # C(1,0)
    assert max_line_free(2, 2).size == 2  # C(2,1)
    assert max_line_free(2, 4).size == 6  # C(4,2)


def test_max_line_free_three_letters():
    r = max_line_free(3, 2)
    assert (r.size, r.exhaustive) == (6, True)
    assert r.size == brute_force_max_line_free(3, 2)


def test_max_line_free_extremal_is_line_free_and_lex_least():
    r = max_line_free(2, 3)
    lines = [frozenset(l) for l in enumerate_lines(2, 3)]
    chosen = set(r.extremal)
    assert not any(line <= chosen for line in lines)
    # Lexicographically least maximum set, verified by brute force.
    points = all_words(2, 3)
    best = None
    for bits in range(1 << len(points)):
        cand = tuple(points[i] for i in range(len(points)) if bits >> i & 1)
        if len(cand) != r.size:
            continue
        if any(line <= set(cand) for line in lines):
            continue
        if best is None or cand < best:
            best = cand
    assert r.extremal == best


def test_max_line_free_budget_degrades_gracefully():
    r = max_line_free(2, 3, budget=10)
    assert not r.exhaustive
    assert r.size <= 3


def test_max_line_free_exhaustive_published_values():
    # Sperner's theorem gives C(5, 2) = 10 at (2, 5); Polymath's c_3 = 18.
    for k, N, size in ((2, 5, 10), (3, 3, 18)):
        r = max_line_free(k, N)
        assert (r.size, r.exhaustive) == (size, True)


# (k, N) pairs the all-lines search settles quickly when unbudgeted; the
# others ((2, 6), (4, 3), (7, 2), (8, 2)) are compared at a 100,000-node budget.
_SETTLED = {(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1),
            (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (8, 1), (9, 1)}


@pytest.mark.parametrize(
    "k,N", [(k, N) for k in range(2, 10) for N in range(1, 7) if k**N <= 64]
)
def test_max_line_free_matches_all_lines_search(k, N):
    # Testing only the lines a point completes must not change a single node:
    # sizes, witnesses and exhaustiveness agree at every budget.
    deepest = 10**9 if (k, N) in _SETTLED else 100_000
    for budget in (1, 10, 1_000, deepest):
        r = max_line_free(k, N, budget)
        assert (r.size, r.extremal, r.exhaustive) == all_lines_max_line_free(k, N, budget)


@pytest.mark.parametrize(
    "k,N", [(k, N) for k in range(2, 10) for N in range(1, 7) if k**N <= 64]
)
def test_max_line_free_visits_the_old_nodes_at_every_small_budget(k, N):
    # Entering the include child in place must keep the node order: every
    # budget that cuts the search early must cut it at the same node.
    for budget in range(1, 301):
        r = max_line_free(k, N, budget)
        assert r == old_max_line_free(k, N, budget), budget


@pytest.mark.parametrize("k,N", [(2, 6), (3, 4)])
def test_max_line_free_matches_the_old_search_at_the_bench_budget(k, N):
    # The budgeted bench rows stay unsettled, with the same best set.
    r = max_line_free(k, N, 20_000)
    assert r == old_max_line_free(k, N, 20_000) and not r.exhaustive


def test_enumerate_lines_refuses_a_count_over_its_bound():
    assert len(enumerate_lines(2, 3, 19)) == 19
    with pytest.raises(ValueError, match="^too many lines: at most 18 are listed$"):
        enumerate_lines(2, 3, 18)
    # 3^11 - 2^11 = 175,099 lines are over the CLI's bound of 100,000.
    with pytest.raises(ValueError, match="at most 100000"):
        enumerate_lines(2, 11, 100_000)
    # Invalid arguments keep their own errors.
    with pytest.raises(ValueError, match="alphabet size"):
        enumerate_lines(10, 9, 100_000)
    with pytest.raises(ValueError, match="N must be at least 1"):
        enumerate_lines(2, 0, 100_000)


def test_max_line_free_starts_from_the_empty_set():
    # Too small a budget to reach any leaf reports the empty set, not size -1.
    for budget in (1, 2, 3):
        r = max_line_free(2, 3, budget)
        assert (r.size, r.extremal, r.exhaustive) == (0, (), False)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            max_line_free(2, 3, budget)


# -- subspace forcing ----------------------------------------------------------------------

# The check returns only whether it is exhaustive: the prefix lemma decides
# the verdict, which the former set-by-set loop confirms below.

def test_forcing_k2_l1_n3():
    assert subspace_forcing_check(2, 1, 3) is True


def test_forcing_k2_l1_n2_full_set_only():
    assert subspace_forcing_check(2, 1, 2) is True


def test_forcing_k3_l1_n2():
    assert subspace_forcing_check(3, 1, 2) is True


def test_forcing_matches_the_set_by_set_check():
    # The missing-suffix test and the closed-form count of missing points
    # against the former loop, which builds each set and looks for a prefix
    # set in it: the same verdict, exhaustive in both.
    for k in (1, 2, 3):
        for N in range(1, 4 if k < 3 else 3):
            for L in range(1, N + 1):
                assert old_subspace_forcing_check(k, L, N) == (True, None)
                assert subspace_forcing_check(k, L, N) is True


def _qualifying_sets(k, L, N):
    """The subsets of ``[k]^N`` of density above ``1 - k^(-2L)``, counted
    one by one as the combinations of the points they miss."""
    points = all_words(k, N)
    threshold = 1 - F(1, k ** (2 * L))
    return sum(
        1
        for m in range(len(points) + 1)
        if F(len(points) - m, len(points)) > threshold
        for _ in combinations(points, m)
    )


def test_forcing_over_its_set_limit_is_partial():
    # [2]^3 at L = 1 has the full set and the 8 sets missing one point.
    assert subspace_forcing_check(2, 1, 3, max_sets=9) is True
    assert subspace_forcing_check(2, 1, 3, max_sets=8) is False
    with pytest.raises(ValueError, match="over budget"):
        old_subspace_forcing_check(2, 1, 3, max_sets=8)
    # Every space of at most 27 points, at its set count c and at c - 1: the
    # former loop walks c sets and raises past c - 1, and the check is
    # exhaustive exactly at c.
    cases = [(k, L, N) for k in range(2, 10) for N in range(1, 5) if k**N <= 27
             for L in range(1, N + 1)]
    assert len(cases) == 26
    for k, L, N in cases:
        c = _qualifying_sets(k, L, N)
        assert old_subspace_forcing_check(k, L, N, max_sets=c) == (True, None)
        with pytest.raises(ValueError, match="over budget"):
            old_subspace_forcing_check(k, L, N, max_sets=c - 1)
        assert subspace_forcing_check(k, L, N, max_sets=c) is True
        assert subspace_forcing_check(k, L, N, max_sets=c - 1) is False


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_prefix_set_is_a_subspace_image(k):
    # The forcing check looks for prefix sets {u + w : u in [k]^L}; each is
    # the image of an L-dimensional subspace of ambient length N, so a set
    # holding one holds the subspace the forcing statement asks for.
    for N in range(1, 5):
        for L in range(1, N + 1):
            images = {img for img in subspace_images(k, L, N) if len(img[0]) == N}
            for w in all_words(k, N - L):
                assert tuple(u + w for u in all_words(k, L)) in images


# -- correspondence measures -----------------------------------------------------------------

def test_correspondence_full_set_is_all_ones():
    cm = build_correspondence(all_words(2, 2), 2, 2, 1)
    assert cm.mass == {(1, 1): F(1)}


def test_correspondence_empty_set_is_all_zeros():
    cm = build_correspondence([], 2, 2, 1)
    assert cm.mass == {(0, 0): F(1)}


def test_correspondence_worked_example():
    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    assert cm.mass == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    assert cm.event((0,)) == F(1, 2)
    assert cm.event((1,)) == F(1, 2)
    for line in hales_jewett._lines(2, 1):
        assert cm.event(line) == 0
    assert cm.event(()) == 1  # no point: the whole space


def test_correspondence_events_refuse_a_word_outside_the_window():
    # The reader takes word indices in range(k^L): the next index and a
    # negative one, which a list would wrap to the last word, are refused,
    # alone and among the points of an event.
    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    for i in (2, -1, 10**30):
        for points in ((i,), (0, i)):
            with pytest.raises(ValueError, match=rf"^word index {i} not in \[k\]\^L$"):
                cm.event(points)


def _assert_same_correspondence(A, k, N, L):
    """``build_correspondence`` on the list ``A`` builds the measure the
    former string scan builds: the same mass items in the same order, the
    same document and, in a window of at most 64 words (the oracle scans
    cost seconds at 512), every point and line event.  Its set and a
    generator of it build the same table."""
    want = old_build_correspondence(A, k, N, L)
    cm = build_correspondence(A, k, N, L)
    assert list(cm.mass.items()) == list(want.mass.items())
    if k**L <= 64:
        for i, w in enumerate(want.words):
            assert cm.event((i,)) == old_point_event(want, w)
        for line in hales_jewett._lines(k, L):
            assert cm.event(line) == old_line_event(want, [want.words[i] for i in line])
    doc = canonical_dumps(correspondence_to_json(want))
    assert canonical_dumps(correspondence_to_json(cm)) == doc
    for given in (set(A), (w for w in A)):
        assert build_correspondence(given, k, N, L) == cm


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_correspondence_matches_the_string_scan(k):
    # Every window 1 <= L < N of every space of at most 1,024 points (N <= 5
    # at k = 1), on the empty set, the full set and seeded sets with
    # repeated words.
    rng = random.Random(35 + k)
    lengths = range(2, 6) if k == 1 else [N for N in range(2, 11) if k**N <= 1024]
    for N in lengths:
        words = all_words(k, N)
        for L in range(1, N):
            _assert_same_correspondence([], k, N, L)
            _assert_same_correspondence(words, k, N, L)
            for density in (0.25, 0.5):
                A = [w for w in words if rng.random() < density]
                A += rng.choices(A, k=len(A) // 2) if A else []
                rng.shuffle(A)
                _assert_same_correspondence(A, k, N, L)


def test_correspondence_matches_the_string_scan_at_one_letter():
    # int() has no base 1: the one word of [1]^N is index 0.
    for A, k, N, L in ((["11"], 1, 2, 1), ([], 1, 3, 2), (["111", "111"], 1, 3, 1)):
        _assert_same_correspondence(A, k, N, L)
    assert build_correspondence(["11"], 1, 2, 1).mass == {(1,): F(1)}
    assert build_correspondence([], 1, 3, 2).mass == {(0,): F(1)}


@pytest.mark.parametrize(
    "A, k, N, L, max_lines, error",
    [
        # L and N first, before any letter.
        (["x"], 2, 2, 2, None, "need 1 <= L < N"),
        # Letters of every word before any length.
        (["1", "13"], 2, 2, 1, None, "letter '3' outside alphabet of size 2"),
        # The first bad letter in input order is named.
        (["12", "1xy", "z1"], 2, 3, 1, None, "letter 'x' outside alphabet of size 2"),
        (["12", "z1", "1xy"], 2, 2, 1, None, "letter 'z' outside alphabet of size 2"),
        # Other Unicode digits, which int() would read, are letters outside.
        (["12", "1\u0663"], 3, 2, 1, None, "letter '\u0663' outside alphabet of size 3"),
        (["1\u00b2", "12"], 3, 2, 1, None, "letter '\u00b2' outside alphabet of size 3"),
        # The alphabet, with no word to check and with one.
        ([], 10, 2, 1, None, "alphabet size must be between 1 and 9"),
        (["12"], 10, 2, 1, None, "alphabet size must be between 1 and 9"),
        ([], 0, 2, 1, None, "alphabet size must be between 1 and 9"),
        # Lengths before the point bound, the point bound before the lines.
        (["1"], 2, 40, 1, None, "set elements must have length N"),
        (["12", "121"], 2, 2, 1, None, "set elements must have length N"),
        ([], 2, 40, 39, 100, "point set too large for the correspondence: at most 2097152 points"),
        ([], 2, 21, 20, 100_000, "too many lines: at most 100000 are listed"),
    ],
)
def test_correspondence_errors_keep_their_texts_and_order(A, k, N, L, max_lines, error):
    for build in (build_correspondence, old_build_correspondence):
        with pytest.raises(ValueError) as raised:
            build(A, k, N, L, max_lines)
        assert str(raised.value) == error


def test_correspondence_refuses_a_large_space_before_its_bytes():
    # One byte per point would be 2^64 bytes, more than bytearray() takes,
    # and 4 MiB at N = 22: the bound refuses both before any allocation.
    for N in (MAX_FORCING_POINTS.bit_length(), 64):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^point set too large for the correspondence"):
                build_correspondence(["1" * N, "2" * N], 2, N, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _assert_events_match_the_scans(cm):
    """Every point and line event of ``cm``, and the event of no point,
    read by ``cm.event`` and by the former ``Fraction`` scans on words."""
    words = cm.words
    for i, w in enumerate(words):
        assert cm.event((i,)) == old_point_event(cm, w)
    for line in hales_jewett._lines(cm.k, cm.length):
        assert cm.event(line) == old_line_event(cm, [words[i] for i in line])
    assert cm.event(()) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_event_reader_matches_the_fraction_scans(k):
    # Seeded sets of several densities, at every window L < N for N <= 4.
    rng = random.Random(34 + k)
    for N in range(2, 5):
        words = all_words(k, N)
        for L in range(1, N):
            for density in (0, 0.25, 0.5, 0.75, 1):
                A = {w for w in words if rng.random() < density}
                _assert_events_match_the_scans(build_correspondence(A, k, N, L))


def _table_of(k, L, mass):
    """The table of the measure ``mass`` on ``{0, 1}^(k^L)``: over ``M``,
    the common denominator, configuration ``j`` fills ``num_j`` columns."""
    M = lcm(*(m.denominator for m in mass.values()))
    columns = [cfg for cfg, m in mass.items() for _ in range(m.numerator * M // m.denominator)]
    return bytes(col[w] for w in range(k**L) for col in columns)


def test_event_reader_matches_the_fraction_scans_on_given_masses():
    # Measures laid out as tables, whose numerators over the common
    # denominator repeat and differ.
    mass = {(1, 1): F(1, 2), (1, 0): F(1, 4), (0, 1): F(1, 4)}
    cm = CorrespondenceMeasure(2, 1, _table_of(2, 1, mass))
    assert list(cm.mass.items()) == list(mass.items())
    assert [cm.event((0,)), cm.event((1,)), cm.event((0, 1))] == [F(3, 4), F(3, 4), F(1, 2)]
    _assert_events_match_the_scans(cm)
    rng = random.Random(34)
    for k, L in ((2, 1), (3, 1), (2, 2), (2, 3)):
        configurations = list(iter_product((0, 1), repeat=k**L))
        for _ in range(20):
            chosen = rng.sample(configurations, rng.randint(1, min(len(configurations), 8)))
            weights = [rng.choice((1, 1, 2, 3, 5)) for _ in chosen]
            mass = {c: F(w, sum(weights)) for c, w in zip(chosen, weights)}
            cm = CorrespondenceMeasure(k, L, _table_of(k, L, mass))
            assert list(cm.mass.items()) == list(mass.items())
            _assert_events_match_the_scans(cm)


def test_correspondence_identities_direct_enumeration():
    rng = random.Random(31)
    for _ in range(25):
        k, N, L = 2, 3, rng.choice((1, 2))
        A = {w for w in all_words(k, N) if rng.random() < 0.5}
        cm = build_correspondence(A, k, N, L)
        M = N - L
        prefixes = all_words(k, L)
        for i, w in enumerate(prefixes):
            slice_density = F(
                sum(1 for v in all_words(k, M) if w + v in A), k**M
            )
            assert cm.event((i,)) == slice_density
        for line in hales_jewett._lines(k, L):
            inter = F(
                sum(
                    1
                    for v in all_words(k, M)
                    if all(prefixes[i] + v in A for i in line)
                ),
                k**M,
            )
            assert cm.event(line) == inter


def test_line_free_sets_have_null_line_events():
    k, N = 2, 3
    lines_n = [frozenset(l) for l in enumerate_lines(k, N)]
    free_sets = [
        {all_words(k, N)[i] for i in range(k**N) if bits >> i & 1}
        for bits in range(1 << k**N)
    ]
    free_sets = [A for A in free_sets if not any(l <= A for l in lines_n)]
    assert free_sets
    for A in free_sets:
        for L in (1, 2):
            cm = build_correspondence(A, k, N, L)
            for line in hales_jewett._lines(k, L):
                assert cm.event(line) == 0


def test_density_premises():
    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    assert check_density_premises(cm, F(1, 2))
    assert not check_density_premises(cm, F(3, 4))
    full = build_correspondence(all_words(2, 2), 2, 2, 1)
    assert check_density_premises(full, F(1))


@pytest.mark.parametrize("delta", [0.1, 0.5, "1/3", "1/2"])
def test_density_premises_refuse_inexact_delta(delta):
    # delta is read as an exact rational: a float is not read as its binary
    # value, nor a string parsed.
    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    for obj in (cm, iid_law(2, 2, carrier())):
        with pytest.raises(TypeError, match="expected an exact rational"):
            check_density_premises(obj, delta)


def test_density_premises_read_bools_as_integers():
    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    full = build_correspondence(all_words(2, 2), 2, 2, 1)
    law = iid_law(2, 2, carrier())
    for obj in (cm, full, law):
        assert check_density_premises(obj, False) == check_density_premises(obj, 0)
        assert check_density_premises(obj, True) == check_density_premises(obj, 1)
    assert check_density_premises(full, True) and not check_density_premises(cm, True)


# -- stationary laws ---------------------------------------------------------------------------

def carrier(p=F(1, 3)):
    return ExactProbabilitySpace((0, 1), (1 - p, p))


def test_iid_law_is_strongly_stationary():
    law = iid_law(2, 2, carrier())
    assert strong_stationarity_check(law, 2).holds


def test_constant_law_is_strongly_stationary():
    law = constant_law(2, 2, carrier())
    assert strong_stationarity_check(law, 2).holds


def test_single_nonconstant_configuration_violates():
    from ergolab.hales_jewett import StationaryLawTruncation

    words = ["1", "2", "11", "12", "21", "22"]
    cfg = tuple(1 if len(w) == 1 else 0 for w in words)
    car = ExactProbabilitySpace((0, 1), (F(0), F(1)))
    law = StationaryLawTruncation(2, 2, car, {cfg: F(1)})
    res = strong_stationarity_check(law, 1)
    assert not res.holds
    assert res.witness is not None


def test_marginals_of_iid_law():
    law = iid_law(2, 2, carrier(F(1, 4)))
    point, line = marginals(law)
    assert point.weights == (F(3, 4), F(1, 4))
    for t in iter_product((0, 1), repeat=2):
        expected = point.weights[t[0]] * point.weights[t[1]]
        assert line.mass.get(t, F(0)) == expected


def test_marginals_of_constant_law_are_diagonal():
    law = constant_law(2, 2, carrier(F(2, 5)))
    _, line = marginals(law)
    assert set(line.mass) == {(0, 0), (1, 1)}


def test_marginals_choice_independent_for_mixture():
    # Mixtures stay stationary: the law of each line below the depth cap
    # (six of them at k=2, depth 2) is the marginal read from the first.
    law = mixture_law(
        [iid_law(2, 2, carrier()), constant_law(2, 2, carrier())],
        [F(1, 3), F(2, 3)],
    )
    assert strong_stationarity_check(law, 2).holds
    assert len(enumerate_subspaces(2, 1, 2)) == 6
    point, line = marginals(law)
    assert sum(line.mass.values(), F(0)) == 1
    assert point.weights == law.carrier.weights
    assert all(naive_pullback(law, img) == line.mass for img in subspace_images(2, 1, 2))


def test_insensitive_algebra_diagonal_is_singletons():
    law = constant_law(2, 2, carrier())
    part = insensitive_algebra(law, (1, 2))
    assert part.blocks == ((0,), (1,))


def test_insensitive_algebra_product_is_one_block():
    law = iid_law(2, 2, carrier())
    part = insensitive_algebra(law, (1, 2))
    assert len(part.blocks) == 1


@pytest.mark.parametrize("e", [[1.7, 2.2], [1, 2.0], ["1", 2]])
def test_insensitive_algebra_refuses_inexact_letters(e):
    # Letters are read with operator.index: 1.7 is not read as letter 1.
    with pytest.raises(TypeError):
        insensitive_algebra(constant_law(2, 2, carrier()), e)


def test_insensitive_algebra_reads_bools_as_letters():
    law = constant_law(2, 2, carrier())
    assert insensitive_algebra(law, (True, 2)) == insensitive_algebra(law, (1, 2))
    assert insensitive_algebra(law, [True]) == insensitive_algebra(law, (1,))


def test_insensitive_algebra_singleton_letter_vacuous():
    law = iid_law(2, 2, carrier())
    part = insensitive_algebra(law, (1,))
    assert part.blocks == ((0,), (1,))


def test_insensitive_algebra_dual_characterizations_on_mixtures():
    # The graph components equal the atoms of the family of sets with
    # coinciding pullbacks, computed by trying every set.
    rng = random.Random(19)
    for _ in range(10):
        c = F(rng.randint(0, 4), 4)
        law = mixture_law(
            [iid_law(2, 2, carrier()), constant_law(2, 2, carrier())],
            [c, 1 - c],
        )
        _, line = marginals(law)
        assert insensitive_algebra(law, (1, 2)) == set_family_atoms(line, (0, 1))


def test_insensitive_algebra_has_no_carrier_size_limit():
    # 17 points: the graph components need no pass over the 2^17 subsets.
    c = ExactProbabilitySpace.uniform(tuple(range(17)))
    assert insensitive_algebra(iid_law(2, 1, c), (1, 2)) == Partition.one_block(17)
    assert insensitive_algebra(constant_law(2, 1, c), (1, 2)) == Partition.singletons(17)


# -- line-structure predicates -----------------------------------------------------------------

def test_line_structure_iid():
    rep = line_marginal_structure_report(iid_law(2, 2, carrier()))
    assert rep.coordinate_holds
    assert rep.oblique_holds
    assert rep.implication_holds


def test_line_structure_constant_law():
    rep = line_marginal_structure_report(constant_law(2, 2, carrier()))
    assert rep.coordinate_holds
    assert rep.oblique_holds
    assert rep.implication_holds


def test_line_structure_promoted_correspondence():
    # The law promoted from a line-free set is exactly the finite shadow of
    # the object an infinite line-to-point implication would forbid: every
    # line event vanishes while point events stay positive.  The report must
    # therefore come back computed, with the implication failing.
    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    law = law_from_correspondence(cm)
    assert strong_stationarity_check(law, 1).holds
    rep = line_marginal_structure_report(law)
    assert not rep.implication_holds
    assert rep.implication_witness == (frozenset({0}), frozenset({0}))
    assert not rep.coordinate_holds


def _promoted_stationary_laws(rng, k, N, count):
    """The first ``count`` stationary laws promoted, at L = 1, from seeded
    subsets of ``[k]^N``."""
    points = all_words(k, N)
    out = []
    while len(out) < count:
        A = {w for w in points if rng.random() < 0.5}
        law = law_from_correspondence(build_correspondence(A, k, N, 1))
        if strong_stationarity_check(law, 1).holds:
            out.append(law)
    return out


def _line_report_laws():
    c = carrier(F(2, 3))  # the golden structure reports' five laws
    laws = [
        iid_law(2, 2, c),
        iid_law(3, 1, c),
        constant_law(2, 2, c),
        constant_law(3, 1, c),
        mixture_law([iid_law(2, 2, c), constant_law(2, 2, c)], [F(1, 2), F(1, 2)]),
    ]
    rng = random.Random(29)
    for _ in range(20):  # iid/constant mixtures, some carriers with a null point
        k = rng.choice((2, 3))
        weights = [rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
        weights[0] += 1
        space = ExactProbabilitySpace(
            tuple(range(len(weights))), tuple(F(w, sum(weights)) for w in weights)
        )
        depth = 1 if k == 3 else rng.randint(1, 2)
        t = F(rng.randint(0, 4), 4)
        laws.append(
            mixture_law([iid_law(k, depth, space), constant_law(k, depth, space)], [t, 1 - t])
        )
    for k, N in ((2, 2), (2, 3), (3, 2)):
        laws.extend(_promoted_stationary_laws(rng, k, N, 12))
    return laws


def test_line_report_matches_the_exhaustive_oracles(monkeypatch):
    # Every psi[m] the report builds equals the set-family atoms, and the
    # implication's verdict and witness equal those of the loop over every
    # tuple of singletons.
    seen = []

    def spy(line, psi):
        seen.append(psi)
        return structure_report(line, psi)

    monkeypatch.setattr(hales_jewett, "structure_report", spy)
    verdicts = set()
    for law in _line_report_laws():
        rep = line_marginal_structure_report(law)
        point, line = marginals(law)
        psi = seen.pop()
        assert tuple(psi) == ground_masks(law.k)
        for m, part in psi.items():
            assert part == set_family_atoms(line, bits_of(m))
        expected = old_line_to_point_implication(point, line)
        assert (rep.implication_holds, rep.implication_witness) == expected
        verdicts.add(rep.implication_holds)
    assert verdicts == {True, False}


def test_line_report_of_a_twelve_point_carrier_is_fast():
    # Neither psi nor the implication may walk the 2^12 carrier subsets or
    # the 12^3 singleton tuples; the report takes well under 0.1 s.
    c = ExactProbabilitySpace.uniform(tuple(range(12)))
    law = mixture_law([iid_law(3, 1, c), constant_law(3, 1, c)], [F(1, 2), F(1, 2)])
    start = time.perf_counter()
    rep = line_marginal_structure_report(law)
    assert time.perf_counter() - start < 5
    assert not rep.coordinate_holds
    assert rep.implication_holds


# -- exact pullbacks against Fraction oracles ---------------------------------------

def _mixed_denominator_law():
    # Masses 1/3, 1/7 and 11/21 on three configurations of depth 2; the
    # carrier is the first-coordinate marginal, so the law is valid but not
    # stationary.
    cfgs = [(0, 1, 1, 0, 2, 1), (2, 2, 0, 1, 0, 0), (0, 0, 2, 2, 1, 0)]
    masses = [F(1, 3), F(1, 7), F(11, 21)]
    first = [sum((v for c, v in zip(cfgs, masses) if c[0] == x), F(0)) for x in range(3)]
    car = ExactProbabilitySpace((0, 1, 2), tuple(first))
    return StationaryLawTruncation(2, 2, car, dict(zip(cfgs, masses)))


def _oracle_laws():
    mixed_carrier = ExactProbabilitySpace((0, 1, 2), (F(1, 3), F(1, 7), F(11, 21)))
    return [
        iid_law(2, 2, carrier(F(2, 5))),
        iid_law(3, 1, mixed_carrier),
        constant_law(2, 3, mixed_carrier),
        mixture_law(
            [iid_law(2, 2, carrier()), constant_law(2, 2, carrier())], [F(1, 3), F(2, 3)]
        ),
        law_from_correspondence(build_correspondence({"112", "121", "211", "222"}, 2, 3, 1)),
        _mixed_denominator_law(),
    ]


@pytest.mark.parametrize("law", _oracle_laws())
def test_pullbacks_and_marginals_match_fraction_oracle(law):
    # The two reads of the length-1 table: the constructor's first
    # coordinate, which must be the carrier, and the line marginal, the law
    # of the words of length 1, which needs stationarity at dimension 1.
    assert naive_coordinate_marginal(law, law.words[0]) == law.carrier.weights
    weights = law.carrier.weights
    m = len(weights)
    other = tuple(F(1, m) for _ in weights)
    if other == weights:
        other = tuple(F(2 * (i + 1), m * (m + 1)) for i in range(m))
    wrong = ExactProbabilitySpace(law.carrier.points, other)
    with pytest.raises(ValueError, match="^carrier weights must equal the first-coordinate"):
        StationaryLawTruncation(law.k, law.depth, wrong, law.weights)
    if _naive_stationarity(law, 1)[0]:
        for _ in range(2):  # a second call reads the table again and agrees
            assert marginals(law)[1].mass == naive_pullback(law, law.words[: law.k])
    else:
        with pytest.raises(ValueError, match="^stationarity violated"):
            marginals(law)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("index", range(6))
def test_pullbacks_from_remembered_tables_match_fraction_oracle(index, seed):
    # The stationarity check's sums, in a random order on a fresh law: each
    # coordinate, from one pass over its length's table, and each subspace
    # image, from its length's table by the cached summation plan, over the
    # law's denominator, is the Fraction sum over the weights.
    law = _oracle_laws()[index]
    rng = random.Random(seed)
    tables, den = law._by_length, law._den
    requests = [("point", i) for i in range(len(law.words))]
    requests += [("image", n, j) for n in range(1, law.depth + 1)
                 for j in range(len(subspace_images(law.k, n, law.depth)))]
    rng.shuffle(requests)
    for request in requests:
        if request[0] == "point":
            w = law.words[request[1]]
            sums = hales_jewett._coordinate_sums(tables[len(w) - 1])
            acc = sums[request[1] - law._bounds[len(w) - 1]]
            got = tuple(F(acc.get(c, 0), den) for c in range(len(law.carrier)))
            assert got == naive_coordinate_marginal(law, w)
        else:
            _, n, j = request
            length, get = hales_jewett._summation_plan(law.k, n, law.depth)[j]
            img = subspace_images(law.k, n, law.depth)[j]
            acc = hales_jewett._sum_image(tables[length], get)
            assert {key: F(num, den) for key, num in acc.items()} == naive_pullback(law, img)


def _naive_stationarity(law, dim_cap):
    """The check as plain Fraction sums, subspace by subspace in order."""
    marg0 = naive_coordinate_marginal(law, law.words[0])
    for w in law.words[1:]:
        if naive_coordinate_marginal(law, w) != marg0:
            return False, (0, (law.words[0],), (w,))
    for n in range(1, dim_cap + 1):
        images = [image(s) for s in enumerate_subspaces(law.k, n, law.depth)]
        reference = naive_pullback(law, images[0])
        for img in images[1:]:
            if naive_pullback(law, img) != reference:
                return False, (n, images[0], img)
    return True, None


def _broken_laws():
    # Stationary at dimension 0 but not at 1: coordinates "1" and "2" equal,
    # the rest independent.  Stationary at 0 and 1 but not at 2: at depth 3
    # the i-th word is the parity of (i + 1) & r for r uniform in 0..15,
    # which makes any two coordinates independent, while four coordinates
    # are independent only when their masks are.  The same with the masks
    # of "1" and "2" equal, which fails at dimensions 1 and 2.  And a law
    # whose coordinate "21" has another marginal.
    words = words_up_to(2, 2)
    tied = {}
    for bits in iter_product((0, 1), repeat=5):
        tied[(bits[0],) + bits] = F(1, 32)

    def parity(masks):
        return {
            tuple(bin(mask & r).count("1") % 2 for mask in masks): F(1, 16) for r in range(16)
        }

    low = tuple(int(w == "21") for w in words)
    return [
        StationaryLawTruncation(2, 2, carrier(F(1, 2)), tied),
        StationaryLawTruncation(2, 3, carrier(F(1, 2)), parity(range(1, 15))),
        StationaryLawTruncation(2, 3, carrier(F(1, 2)), parity([1, *range(1, 14)])),
        StationaryLawTruncation(2, 2, carrier(F(1, 2)), {low: F(1, 2), (1,) * 6: F(1, 2)}),
    ]


@pytest.mark.parametrize("law", _oracle_laws() + _broken_laws())
def test_stationarity_check_matches_the_plain_check(law):
    # Pulling the widest images first changes no verdict and no witness.
    for cap in range(law.depth + 1):
        res = strong_stationarity_check(law, cap)
        assert (res.holds, res.witness) == _naive_stationarity(law, cap)
    # A law remembers the highest cap that held: on one fresh law object,
    # the caps in descending and then in ascending order give the plain
    # check's verdict and witness every time.
    law = StationaryLawTruncation(law.k, law.depth, law.carrier, law.weights)
    caps = list(range(law.depth, -1, -1))
    for cap in caps + caps[::-1]:
        res = strong_stationarity_check(law, cap)
        assert (res.holds, res.witness) == _naive_stationarity(law, cap)


def test_marginals_after_a_checked_cap_sum_no_image_again(monkeypatch):
    # After the check at cap 2, the marginals, the insensitive algebras and
    # the structure report decide nothing again and sum no table: the line
    # marginal is the length-1 table and the point marginal was summed by
    # the constructor.
    law, fresh = iid_law(2, 2, carrier(F(2, 5))), iid_law(2, 2, carrier(F(2, 5)))
    expected = (marginals(fresh), insensitive_algebra(fresh, [1, 2]))
    assert strong_stationarity_check(law, 2).holds

    def refuse(*args):
        raise AssertionError("a table was summed again")

    monkeypatch.setattr(hales_jewett, "_sum_image", refuse)
    monkeypatch.setattr(hales_jewett, "_coordinate_sums", refuse)
    assert (marginals(law), insensitive_algebra(law, [1, 2])) == expected
    line_marginal_structure_report(law)
    for cap in (0, 1, 2):
        assert strong_stationarity_check(law, cap).holds


def test_stationarity_refuses_a_law_too_deep_for_its_cap():
    # Depth 9 at cap 2 walks 145,149 subspace maps, over the bound; cap 1
    # walks 28,501 and runs.  The refusal comes before any map is built.
    cfgs = [(0,) * 1022, (1,) * 1022]
    law = StationaryLawTruncation(2, 9, carrier(F(1, 2)), {c: F(1, 2) for c in cfgs})
    assert hales_jewett._subspace_map_count(2, 3, 2, 10**9) == 36
    assert hales_jewett._subspace_map_count(2, 9, 2, 10**9) == 145_149
    assert hales_jewett._subspace_map_count(2, 9, 1, 10**9) == 28_501
    images = subspace_images.cache_info().currsize
    with pytest.raises(ValueError, match="^law too deep for the check: more than 100000 "):
        strong_stationarity_check(law, 2)
    assert subspace_images.cache_info().currsize == images
    assert strong_stationarity_check(law, 0).holds
    assert strong_stationarity_check(law, 1).holds


def test_subspace_map_count_matches_the_enumeration():
    # Every map of dimensions 1..cap and lengths up to the depth, counted
    # from the generator itself.
    for k in (1, 2, 3):
        for depth in range(1, 5):
            for cap in range(depth + 1):
                walked = sum(
                    1
                    for n in range(1, cap + 1)
                    for total in range(n, depth + 1)
                    for _ in old_subspace_maps(k, n, total)
                )
                assert hales_jewett._subspace_map_count(k, depth, cap, 10**9) == walked


def test_broken_laws_fail_at_the_intended_dimensions():
    # The first violation of each law, and every dimension >= 1 at which
    # two images differ: the third law fails at 1 and at 2, so the order of
    # the comparisons decides its witness.
    def differs(law, n):
        images = subspace_images(law.k, n, law.depth)
        reference = naive_pullback(law, images[0])
        return any(naive_pullback(law, img) != reference for img in images[1:])

    laws = _broken_laws()
    assert [strong_stationarity_check(law, law.depth).witness[0] for law in laws] == [1, 2, 1, 0]
    assert [[n for n in range(1, law.depth + 1) if differs(law, n)] for law in laws] == [
        [1], [2], [1, 2], [1]
    ]


def test_repeated_pullback_is_a_fresh_dict():
    # The line marginal is read from the law's length-1 table, into a new
    # dict per call: changing one changes neither the table nor the next.
    law = iid_law(2, 2, carrier(F(2, 5)))
    first, second = marginals(law)[1].mass, marginals(law)[1].mass
    assert first == second and first is not second
    first[(9, 9)] = F(1)
    assert marginals(law)[1].mass == second == naive_pullback(law, law.words[:2])


def test_law_owns_its_weights():
    # Changing the dict a law was built from afterwards changes neither its
    # weights nor the marginals, the pullbacks or the verdict.
    car = carrier(F(1, 2))
    given = dict(iid_law(2, 2, car).weights)
    law = StationaryLawTruncation(2, 2, car, given)
    assert law.weights is not given

    def reads():
        pair = naive_pullback(law, ("21", "12"))
        return pair, naive_coordinate_marginal(law, "2"), marginals(law)

    before = reads()
    first = next(iter(given))
    given[first] = F(1, 2)
    given.clear()
    assert law.weights == iid_law(2, 2, car).weights
    assert reads() == before
    assert strong_stationarity_check(law, 2).holds


def test_law_constructor_keeps_every_check():
    car = ExactProbabilitySpace((0, 1), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError, match="total mass"):
        StationaryLawTruncation(2, 1, car, {(0, 0): F(1, 2), (1, 1): F(1, 3)})
    with pytest.raises(ValueError, match="total mass"):
        StationaryLawTruncation(2, 1, car, {})
    with pytest.raises(ValueError, match="nonnegative"):
        StationaryLawTruncation(2, 1, car, {(0, 0): F(3, 2), (1, 1): F(-1, 2)})
    with pytest.raises(ValueError, match="index the carrier"):
        StationaryLawTruncation(2, 1, car, {(0, 2): F(1)})
    with pytest.raises(ValueError, match="index the carrier"):
        StationaryLawTruncation(2, 1, car, {(-1, 0): F(1)})
    with pytest.raises(ValueError, match="index the carrier"):
        StationaryLawTruncation(2, 1, car, {(0, 0, 0): F(1)})
    with pytest.raises(ValueError, match="first-coordinate"):
        StationaryLawTruncation(2, 1, car, {(0, 0): F(1, 3), (1, 1): F(2, 3)})
    # List keys and bool entries are read as ints and merged with the int
    # tuples, and zero masses are dropped.
    law = StationaryLawTruncation(
        2, 1, car, _Pairs([((0, 0), F(1, 4)), ([0, 0], F(1, 4)), ((True, 1), F(1, 2)), ((0, 1), 0)])
    )
    assert law.weights == {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    assert all(type(c) is int for cfg in law.weights for c in cfg)
    # Strings and floats are refused, as keys, as key entries and as masses.
    for weights in _INEXACT_TABLES:
        with pytest.raises(TypeError):
            StationaryLawTruncation(2, 1, car, weights)


class _Pairs:
    """A table given as ``(key, value)`` pairs, so its keys may be lists."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


# Tables on {0, 1}^2 with one inexact part each: a string key, a float key
# entry, a float mass and a string mass.
_INEXACT_TABLES = [
    {(0, 0): F(1, 2), "11": F(1, 2)},
    {(0, 0): F(1, 2), (1.0, 1): F(1, 2)},
    {(0, 0): F(1, 2), (1, 1): 0.5},
    {(0, 0): F(1, 2), (1, 1): "1/2"},
]


def test_correspondence_constructor_refuses_a_bad_table():
    # Three suffixes of [2]^1 with no 1: the event of no point is the
    # whole space, exactly 1, however many suffixes there are.
    cm = CorrespondenceMeasure(2, 1, bytes(6))
    assert cm.event(()) == 1 and cm.event((0,)) == 0
    assert cm.mass == {(0, 0): F(1)}
    for args, error, text in [
        ((2, 1, b"\0\1\2\0"), ValueError, "table bytes must be 0 or 1"),
        ((2, 1, b""), ValueError, "table length must be a positive multiple of k\\^L"),
        ((2, 2, bytes(6)), ValueError, "table length must be a positive multiple of k\\^L"),
        ((2, 0, b"\1"), ValueError, "length must be at least 1"),
        ((2, 1, [0, 1]), TypeError, "table must be bytes, got list"),
        ((10, 1, bytes(10)), ValueError, "alphabet size must be between 1 and 9"),
    ]:
        with pytest.raises(error, match=f"^{text}$"):
            CorrespondenceMeasure(*args)


def test_stationarity_rejects_negative_cap():
    law = iid_law(2, 1, carrier())
    with pytest.raises(ValueError, match="nonnegative"):
        strong_stationarity_check(law, -1)
    assert strong_stationarity_check(law, 0).holds


def test_law_carrier_marginal_validated():
    from ergolab.hales_jewett import StationaryLawTruncation

    words = ["1", "2"]
    car = ExactProbabilitySpace((0, 1), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        StationaryLawTruncation(2, 1, car, {(1, 1): F(1)})


# -- input bounds checked before any word is built --------------------------------------

def test_point_bounds_of_a_long_space_need_no_power():
    # 2^(10^18) has no room in memory, so each call returns only because
    # it never computes the number of points.
    with pytest.raises(ValueError, match="over budget: point set too large"):
        max_line_free(2, 10**18)
    with pytest.raises(ValueError, match="at most 2097152 points"):
        subspace_forcing_check(2, 1, 10**18)
    # [1]^N is one point, so the forcing check holds without its word.
    assert subspace_forcing_check(1, 1, 10**18) is True
    assert subspace_forcing_check(1, 2, 5) is True


@pytest.mark.parametrize("k, N", [(2, 12), (3, 7), (8, 4), (9, 3)])
def test_max_line_free_bound_admits_every_space_up_to_4096_points(k, N):
    # k^N <= 4096; a budget of one node stops the search at once, and the
    # line masks built before it stay small: (2, 12) has 527,345 lines.
    tracemalloc.start()
    try:
        assert max_line_free(k, N, budget=1).exhaustive is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    with pytest.raises(ValueError, match="over budget"):
        max_line_free(k, N + 1, budget=1)


def test_max_line_free_checks_its_arguments_before_building_words():
    with pytest.raises(ValueError, match="N must be at least 1"):
        max_line_free(2, -1)
    with pytest.raises(ValueError, match="at least two letters"):
        max_line_free(1, 10**18)


@pytest.mark.parametrize("k, depth", [(1, 5792), (2, 18), (3, 12), (9, 6)])
def test_law_letter_bound_is_the_sum_of_the_word_lengths(k, depth):
    # The deepest law of each alphabet whose words hold at most 2^24
    # letters, and one deeper, summed term by term.
    letters = sum(m * k**m for m in range(1, depth + 1))
    deeper = letters + (depth + 1) * k ** (depth + 1)
    assert letters <= hales_jewett.MAX_LAW_LETTERS < deeper
    assert hales_jewett._word_letters(k, depth, hales_jewett.MAX_LAW_LETTERS) == letters
    assert hales_jewett._word_letters(k, depth + 1, hales_jewett.MAX_LAW_LETTERS) > (
        hales_jewett.MAX_LAW_LETTERS
    )


def test_a_law_too_deep_for_its_letters_is_refused_at_its_depth():
    carrier = ExactProbabilitySpace((0,), (F(1),))
    with pytest.raises(ValidationError) as err:
        StationaryLawTruncation(1, 30_000, carrier, {(0,) * 30_000: F(1)})
    assert err.value.path == ["depth"]
    assert str(err.value) == "$.depth: law too deep: its words would have more than 16777216 letters"
