"""Acceptance suite.

Each criterion is one test that runs at its stated tolerance (exact rational
equality everywhere; zero tolerance) and prints one PASS/FAIL line.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines as they appear.
"""
from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from itertools import combinations, product as iter_product

import pytest

from helpers import (
    brute_cesaro,
    cyclic_system,
    direction_period,
    set_family_atoms,
    three_direction_torus,
    torus_system,
)

from ergolab.averages import (
    VectorSequence,
    check_offdiagonal_invariance,
    difference_subgroup,
    furstenberg_self_joining,
    project_joining,
    recurrence_certificate,
    recurrence_certificates_exhaustive,
    van_der_corput_inequality,
)
from ergolab.generators import (
    random_subgroup,
    random_system,
    random_vector_sequence,
)
from ergolab.hales_jewett import (
    all_words,
    build_correspondence,
    constant_law,
    enumerate_lines,
    enumerate_subspaces,
    iid_law,
    insensitive_algebra,
    law_from_correspondence,
    line_maps,
    max_line_free,
    mixture_law,
    strong_stationarity_check,
    subspace_forcing_check,
)
from ergolab.hales_jewett import marginals as law_marginals
from ergolab.measure import ExactProbabilitySpace, Partition, common_refinement, relative_independence
from ergolab.removal import SearchConfig, search_counterexample
from ergolab.systems import (
    FiniteZdSystem,
    SubgroupSpec,
    invariant_factor,
    orbit_partition,
    quotient_system,
    two_fold_joining_check,
)

F = Fraction


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {desc}")

        return wrapped

    return deco


@pytest.fixture(scope="module")
def system_pool():
    rng = random.Random(2024)
    pool = []
    for _ in range(200):
        pool.append(random_system(rng, max_points=12, dim=rng.randint(1, 3)))
    return pool


@criterion(1, "self-joining lemma suite exact on 200 random systems under 60 s")
def test_criterion_1_joining_lemma_suite(system_pool):
    start = time.perf_counter()
    for sys_ in system_pool:
        dirs = tuple(range(sys_.dim))
        cache = {}
        for r in range(1, sys_.dim + 1):
            for e in combinations(dirs, r):
                cache[e] = furstenberg_self_joining(sys_, e)
        for e_big, fj_big in cache.items():
            # Off-diagonal invariance is exact.
            assert check_offdiagonal_invariance(fj_big)
            # Projections agree with directly built joinings, exactly.
            for r in range(1, len(e_big) + 1):
                for e in combinations(e_big, r):
                    assert (
                        project_joining(fj_big, e).mass == cache[e].coupling.mass
                    )
            # Diagonal restriction: on blocks of the difference-invariant
            # factor the joining concentrates on equal labels with the
            # block's full measure.
            if len(e_big) >= 2:
                phi = invariant_factor(
                    sys_, difference_subgroup(sys_.dim, e_big)
                )
                seen = {}
                for t, v in fj_big.coupling.mass.items():
                    labels = {phi.block_of(x) for x in t}
                    assert len(labels) == 1, "off-block mass breaks the diagonal law"
                    b = labels.pop()
                    seen[b] = seen.get(b, F(0)) + v
                for b, block in enumerate(phi.blocks):
                    assert seen.get(b, F(0)) == sys_.space.measure(block)
    elapsed = time.perf_counter() - start
    assert len(system_pool) >= 200
    assert elapsed < 60, f"lemma suite took {elapsed:.1f}s"


@criterion(2, "recurrence positive with witness <= L for every set; implication exhaustive at 4 points")
def test_criterion_2_recurrence(system_pool):
    rng = random.Random(77)
    for sys_ in system_pool:
        n = len(sys_)
        L = direction_period(sys_, range(sys_.dim))
        table = recurrence_certificates_exhaustive(sys_)
        den, nums = sys_.space.integerized()
        for mask in range(1 << n):
            positive = any(nums[x] for x in range(n) if mask >> x & 1)
            cert = table[mask]
            if positive:
                assert cert.limit > 0
                assert cert.witness is not None and 1 <= cert.witness <= L
            else:
                assert cert.limit == 0 and cert.witness is None
        for _ in range(4):
            mask = rng.randrange(1 << n)
            aset = {x for x in range(n) if mask >> x & 1}
            assert recurrence_certificate(sys_, aset) == table[mask]

    # Implication sweep: mu^F(A1 x A2 x A3) = 0 forces mu(A1 & A2 & A3) = 0,
    # exhaustively over all set triples for a family of 3-direction systems
    # on at most 4 points.
    fam = []
    for n in (2, 3, 4):
        fam.append(cyclic_system(n, 0, 0, 0))
        fam.append(cyclic_system(n, 1, 1, 1))
        fam.append(cyclic_system(n, 1, 2, 3))
        for _ in range(3):
            fam.append(random_system(rng, max_points=n, dim=3))
    for sys_ in fam:
        n = len(sys_)
        assert n <= 4 and sys_.dim == 3
        den, nums = sys_.space.integerized()
        fj = furstenberg_self_joining(sys_)
        width = 3 * n
        agg = [0] * (1 << width)
        lden = den * fj.period
        for t, v in fj.coupling.mass.items():
            key = (1 << t[0]) | (1 << (n + t[1])) | (1 << (2 * n + t[2]))
            agg[key] += int(v * lden)
        for bit in range(width):
            step = 1 << bit
            for m in range(1 << width):
                if m & step:
                    agg[m] += agg[m ^ step]
        for a0, a1, a2 in iter_product(range(1 << n), repeat=3):
            joint = agg[a0 | a1 << n | a2 << (2 * n)]
            if joint == 0:
                inter = a0 & a1 & a2
                assert sum(nums[x] for x in range(n) if inter >> x & 1) == 0


@criterion(3, "worked exact values recomputed by the period-enumeration oracle")
def test_criterion_3_worked_values():
    z3 = cyclic_system(3, 1, 2)
    cert = recurrence_certificate(z3, {0})
    assert cert.limit == F(1, 9)
    assert cert.witness == 3
    # Independent oracle: period enumeration over multiples of the period.
    for reps in (1, 2, 3):
        assert brute_cesaro(z3, [{0}, {0}], 3 * reps) == F(1, 9)

    z4 = cyclic_system(4, 1, 2)
    fj = furstenberg_self_joining(z4)
    assert fj.coupling.mass[(0, 0)] == F(1, 16)
    # Oracle: accumulate the off-diagonal measures directly over one period.
    acc = F(0)
    for n_off in range(4):
        for x in range(4):
            if (x + n_off) % 4 == 0 and (x + 2 * n_off) % 4 == 0:
                acc += F(1, 4)
    assert acc / 4 == F(1, 16)


@criterion(4, "van der Corput inequality on 500 random sequences, equality at constants")
def test_criterion_4_van_der_corput():
    rng = random.Random(99)
    for _ in range(500):
        length = rng.randint(4, 32)
        dim = rng.randint(1, 4)
        seq = VectorSequence(random_vector_sequence(rng, dim, length))
        N = rng.randint(1, length - 2)
        H = rng.randint(1, length - N)
        rep = van_der_corput_inequality(seq, N, H)
        assert rep.holds
    for _ in range(20):
        dim = rng.randint(1, 4)
        v = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
        seq = VectorSequence(tuple(v for _ in range(12)))
        rep = van_der_corput_inequality(seq, rng.randint(1, 6), rng.randint(1, 5))
        assert rep.lhs == rep.rhs


@criterion(
    5,
    "removal search finds no counterexample, exhaustive at 2 and 3 points"
    " and 1000 random, under 5 min",
)
def test_criterion_5_removal_search():
    start = time.perf_counter()
    exhaustive = SearchConfig(
        sizes=(2,),
        d=3,
        families=("diagonal", "product", "fiber", "selfjoin"),
        exhaustive=True,
    )
    assert search_counterexample(exhaustive) is None
    # Every monotone psi map, coupling and target choice on three points,
    # on four points (4,116 psi maps) and on two points at d = 4.
    assert search_counterexample(SearchConfig(sizes=(3,), d=3)) is None
    assert search_counterexample(SearchConfig(sizes=(4,), d=3)) is None
    assert search_counterexample(SearchConfig(sizes=(2,), d=4)) is None
    sampled = SearchConfig(
        sizes=(2, 3, 4), d=3, seed=1234, exhaustive=False, samples=1000
    )
    assert search_counterexample(sampled) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"removal search took {elapsed:.1f}s"


@criterion(6, "two-fold joinings independent over sum factors; three-direction pattern exact")
def test_criterion_6_joint_distribution():
    rng = random.Random(55)
    checked = 0
    while checked < 200:
        sys_ = random_system(rng, max_points=12, dim=rng.choice((2, 3)))
        g1 = random_subgroup(rng, sys_.dim, max_vectors=1)
        g2 = random_subgroup(rng, sys_.dim, max_vectors=1)
        _, pi1 = quotient_system(sys_, orbit_partition(sys_, g1, False))
        _, pi2 = quotient_system(sys_, orbit_partition(sys_, g2, False))
        rep = two_fold_joining_check(sys_, pi1, pi2, g1, g2)
        assert rep.holds, rep.witness
        checked += 1

    tri = three_direction_torus(5)
    factors = [
        invariant_factor(tri, SubgroupSpec.basis_vector(3, i)) for i in range(3)
    ]
    trivial = Partition.one_block(25)
    for i, j in combinations(range(3), 2):
        pair = relative_independence(
            (factors[i], factors[j]), (trivial, trivial), tri.space
        )
        assert pair.holds
        assert common_refinement(factors[i], factors[j]) == Partition.singletons(25)
    triple = relative_independence(
        tuple(factors), (trivial, trivial, trivial), tri.space
    )
    assert not triple.holds


@criterion(7, "rotation extension splits and regains class membership")
def test_criterion_7_rotation_extension():
    from ergolab.systems import GroupRotationSystem, in_partially_trivial_join, rotation_extension

    rot = GroupRotationSystem((2,), ((1,), (1,)))
    assert not in_partially_trivial_join(rot)
    ext, fmap = rotation_extension(rot)
    assert sorted(ext.orders) == [2, 2]
    assert in_partially_trivial_join(ext)
    assert len(fmap.source.space) == 4 and len(fmap.target.space) == 2


@criterion(8, "extremal line-free sizes exact and line-count identity verified")
def test_criterion_8_extremals():
    start = time.perf_counter()
    for k, N, expected in ((2, 3, 3), (2, 4, 6), (3, 2, 6)):
        res = max_line_free(k, N)
        assert res.exhaustive
        assert res.size == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"extremal search took {elapsed:.1f}s"
    for k in (2, 3):
        for N in (1, 2, 3, 4):
            assert len(enumerate_lines(k, N)) == (k + 1) ** N - k**N


@criterion(9, "high-density sets contain a line at the stated thresholds")
def test_criterion_9_forcing():
    for k, L, N in ((2, 1, 3), (3, 1, 2)):
        res = subspace_forcing_check(k, L, N)
        assert res.holds and res.counterexample is None and res.exhaustive
    # Thresholds as stated: densities above 3/4 and 8/9 respectively.
    assert 1 - F(1, 2 ** 2) == F(3, 4)
    assert 1 - F(1, 3 ** 2) == F(8, 9)


@criterion(10, "correspondence identities exact, including every line-free set at 3 letters")
def test_criterion_10_correspondence():
    cm = build_correspondence({"12", "21"}, 2, 2, 1)
    assert cm.mass == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    assert cm.point_event("1") == F(1, 2) and cm.point_event("2") == F(1, 2)
    for line in line_maps(2, 1):
        assert cm.line_event(line) == 0

    k, N = 2, 3
    words = all_words(k, N)
    lines_n = [frozenset(l) for l in enumerate_lines(k, N)]
    free_count = 0
    for bits in range(1 << len(words)):
        A = {words[i] for i in range(len(words)) if bits >> i & 1}
        if any(l <= A for l in lines_n):
            continue
        free_count += 1
        for L in (1, 2):
            cm = build_correspondence(A, k, N, L)
            M = N - L
            for w in all_words(k, L):
                assert cm.point_event(w) == F(
                    sum(1 for v in all_words(k, M) if w + v in A), k**M
                )
            for line in line_maps(k, L):
                assert cm.line_event(line) == 0
    assert free_count == 20  # the antichains of the 3-cube


@criterion(11, "stationarity, choice-independent marginals, insensitive algebras")
def test_criterion_11_stationarity():
    carrier = ExactProbabilitySpace((0, 1), (F(1, 3), F(2, 3)))
    law = iid_law(2, 2, carrier)
    assert strong_stationarity_check(law, 2).holds

    # Choice independence across at least three line selections.
    lines = enumerate_subspaces(2, 1, 2)
    assert len(lines) >= 3
    pulls = [law.pullback(s.image()) for s in lines]
    assert all(p == pulls[0] for p in pulls[1:])
    point, line_marginal = law_marginals(law)
    assert point.weights == carrier.weights
    assert line_marginal.mass == pulls[0]

    # Dual characterizations agree on every tested law: the graph components
    # equal the atoms of the set family; product, diagonal, mixture, and
    # promoted laws.
    tested = [
        law,
        constant_law(2, 2, carrier),
        mixture_law([law, constant_law(2, 2, carrier)], [F(1, 4), F(3, 4)]),
        law_from_correspondence(build_correspondence({"12", "21"}, 2, 2, 1)),
    ]
    for lw in tested:
        _, line = law_marginals(lw)
        for e in ((1,), (1, 2), (2,)):
            assert insensitive_algebra(lw, e) == set_family_atoms(line, [i - 1 for i in e])
