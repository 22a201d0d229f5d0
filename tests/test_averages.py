"""Averages, self-joinings, recurrence, and the van der Corput estimate."""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import lcm

import pytest

from helpers import (
    brute_cesaro,
    cyclic_system,
    direction_period,
    long_period_system,
    multiple_recurrence_check,
    old_furstenberg_self_joining,
    old_period_scan,
    old_recurrence_certificates_exhaustive,
    old_recurrence_witness,
    pushforward_invariant,
    three_direction_torus,
    torus_system,
)

from ergolab import averages
from ergolab.averages import (
    FurstenbergJoining,
    _period_scan,
    RecurrenceCertificate,
    VectorSequence,
    cesaro_limit,
    check_offdiagonal_invariance,
    difference_subgroup,
    furstenberg_self_joining,
    nonconventional_average,
    oblique_copy,
    project_joining,
    recurrence_certificate,
    recurrence_certificates_exhaustive,
    self_joining_structure_report,
    van_der_corput_inequality,
)
from ergolab.generators import random_system, random_vector_sequence
from ergolab.measure import Coupling, Partition, SimpleFunction, support_pullback_partition
from ergolab.systems import FiniteZdSystem, SubgroupSpec, invariant_factor

F = Fraction


def weighted_systems_with_null_points(seed: int, count: int, max_points: int = 8):
    """Seeded random systems whose support carries at least two distinct
    weights and which have at least one null point."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sys_ = random_system(rng, max_points=max_points, dim=rng.randint(1, 3))
        weights = set(sys_.space.weights)
        if F(0) in weights and len(weights) > 2:
            out.append(sys_)
    return rng, out


# -- nonconventional averages ---------------------------------------------------

def test_average_identity_action_returns_function():
    sys_ = cyclic_system(4, 0)
    f = SimpleFunction((F(1), F(0), F(2), F(0)))
    for N in (1, 3, 7):
        assert nonconventional_average(sys_, [f], N) == f


def test_average_of_ones_is_one():
    sys_ = cyclic_system(3, 1, 2)
    one = SimpleFunction.constant(3, 1)
    out = nonconventional_average(sys_, [one, one], 5)
    assert set(out.values) == {F(1)}


def test_average_direct_summation_oracle():
    # Z3, generators +1 and +2, indicators of {0}, N = 3.
    sys_ = cyclic_system(3, 1, 2)
    ind = SimpleFunction.indicator(3, {0})
    out = nonconventional_average(sys_, [ind, ind], 3)
    # Oracle: only n = 3 contributes, at x = 0.
    expected = [F(0)] * 3
    for x in range(3):
        hits = sum(
            1 for n in range(1, 4) if (x + n) % 3 == 0 and (x + 2 * n) % 3 == 0
        )
        expected[x] = F(hits, 3)
    assert out.values == tuple(expected)
    assert out.values == (F(1, 3), F(0), F(0))


def test_average_summands_periodic_and_limit_matches_joining():
    rng = random.Random(2)
    for _ in range(15):
        sys_ = random_system(rng, max_points=7, dim=rng.randint(1, 3))
        funcs = [
            SimpleFunction(
                tuple(F(rng.randint(-2, 2)) for _ in range(len(sys_)))
            )
            for _ in range(sys_.dim)
        ]
        L = direction_period(sys_, range(sys_.dim))
        fj = furstenberg_self_joining(sys_)
        partial = {
            N: nonconventional_average(sys_, funcs, N) for N in range(1, 3 * L + 1)
        }
        limit_fn = partial[L]
        # Summand periodicity: each window of length L sums to L times the
        # limit, so N S_N - (N - L) S_{N-L} is constant across N <= 3L.
        for N in range(L + 1, 3 * L + 1):
            window = tuple(
                N * a - (N - L) * b
                for a, b in zip(partial[N].values, partial[N - L].values)
            )
            assert window == tuple(L * v for v in limit_fn.values)
        for m in (2, 3):
            assert partial[m * L] == limit_fn
        # The integral of the limit is the joining integral of the tensor.
        tensor = sum(
            (
                v * prod
                for t, v in fj.coupling.mass.items()
                for prod in [_prod(funcs[i].values[t[i]] for i in range(sys_.dim))]
            ),
            F(0),
        )
        assert limit_fn.integral(sys_.space) == tensor


def _prod(xs):
    out = F(1)
    for x in xs:
        out *= x
    return out


# -- exact Cesaro limits ----------------------------------------------------------

def test_cesaro_one_dimensional_is_measure():
    rng = random.Random(4)
    for _ in range(20):
        sys_ = random_system(rng, max_points=8, dim=1)
        a = frozenset(x for x in range(len(sys_)) if rng.random() < 0.5)
        assert cesaro_limit(sys_, [a]) == sys_.space.measure(a)


def test_cesaro_z3_worked_value():
    sys_ = cyclic_system(3, 1, 2)
    assert cesaro_limit(sys_, [{0}, {0}]) == F(1, 9)
    # Period-enumeration oracle, computed independently.
    assert brute_cesaro(sys_, [{0}, {0}], 3) == F(1, 9)


def test_cesaro_full_set_marginalizes():
    sys_ = cyclic_system(4, 1, 2)
    full = frozenset(range(4))
    for a in ({0}, {1, 2}, {0, 3}):
        assert cesaro_limit(sys_, [full, a]) == cesaro_limit_one_direction(sys_, a)


def cesaro_limit_one_direction(sys_, a):
    sub = FiniteZdSystem(sys_.space, (sys_.generators[1],))
    return cesaro_limit(sub, [a])


# -- the self-joining --------------------------------------------------------------

def test_joining_singleton_direction_is_the_measure():
    rng = random.Random(6)
    for _ in range(10):
        sys_ = random_system(rng, max_points=8, dim=2)
        fj = furstenberg_self_joining(sys_, (0,))
        assert fj.coupling.mass == {
            (x,): w for x, w in enumerate(sys_.space.weights) if w > 0
        }


def test_joining_z4_worked_value_with_oracle():
    sys_ = cyclic_system(4, 1, 2)
    fj = furstenberg_self_joining(sys_)
    assert fj.period == 4
    assert fj.coupling.mass[(0, 0)] == F(1, 16)
    # Oracle: enumerate the off-diagonal measures over one period directly.
    acc = {}
    for n in range(4):
        for x in range(4):
            key = ((x + n) % 4, (x + 2 * n) % 4)
            acc[key] = acc.get(key, F(0)) + F(1, 4)
    assert {k: v / 4 for k, v in acc.items()} == dict(fj.coupling.mass)


def test_joining_equal_generators_is_diagonal():
    sys_ = cyclic_system(5, 2, 2)
    fj = furstenberg_self_joining(sys_)
    assert set(fj.coupling.mass) == {(x, x) for x in range(5)}


def test_offdiagonal_invariance_randomized():
    rng = random.Random(8)
    for _ in range(100):
        sys_ = random_system(rng, max_points=8, dim=rng.randint(1, 3))
        fj = furstenberg_self_joining(sys_)
        assert check_offdiagonal_invariance(fj)


def test_offdiagonal_check_in_place_matches_the_pushforward():
    # The diagonal coupling is invariant under every diagonal action, so it
    # passes the joining's own check; under two different generators it is
    # not invariant, and the in-place check must say what comparing the
    # rebuilt pushforward coupling says.
    _, systems = weighted_systems_with_null_points(31, 60)
    verdicts = set()
    for sys_ in systems:
        dirs = tuple(range(sys_.dim))
        fj = FurstenbergJoining(sys_, dirs, Coupling.diagonal(sys_.space, sys_.dim), 1)
        perms = [sys_.generators[i] for i in dirs]
        verdict = check_offdiagonal_invariance(fj)
        assert verdict == pushforward_invariant(fj.coupling, perms)
        verdicts.add(verdict)
        joined = furstenberg_self_joining(sys_)
        assert check_offdiagonal_invariance(joined)
        assert pushforward_invariant(joined.coupling, perms)
    assert verdicts == {True, False}


def test_joining_invariance_check_matches_the_pushforward():
    # Graphs of random weight-preserving permutations: the joining must
    # reject exactly those that some generator's rebuilt pushforward moves.
    rng, systems = weighted_systems_with_null_points(33, 80)
    outcomes = set()
    for sys_ in systems:
        if sys_.dim < 2:
            continue
        weights = sys_.space.weights
        sigma = list(range(len(sys_)))
        for w in set(weights):
            cls = [x for x in range(len(sys_)) if weights[x] == w]
            for x, y in zip(cls, rng.sample(cls, len(cls))):
                sigma[x] = y
        graph = Coupling(2, sys_.space, {(x, sigma[x]): w for x, w in enumerate(weights) if w})
        expected = all(pushforward_invariant(graph, [g, g]) for g in sys_.generators)
        try:
            FurstenbergJoining(sys_, (0, 1), graph, 1)
            outcomes.add(True)
            assert expected
        except ValueError as exc:
            outcomes.add(False)
            assert not expected
            assert str(exc) == "coupling must be invariant under the diagonal action"
    assert outcomes == {True, False}


def test_projection_consistency_randomized():
    rng = random.Random(9)
    for _ in range(40):
        sys_ = random_system(rng, max_points=7, dim=rng.randint(2, 3))
        dirs = tuple(range(sys_.dim))
        fj = furstenberg_self_joining(sys_, dirs)
        for r in range(1, len(dirs) + 1):
            for e in combinations(dirs, r):
                assert (
                    project_joining(fj, e).mass
                    == furstenberg_self_joining(sys_, e).coupling.mass
                )


def test_projection_trivial_cases():
    sys_ = cyclic_system(4, 1, 3)
    fj = furstenberg_self_joining(sys_)
    assert project_joining(fj, fj.directions) == fj.coupling
    assert project_joining(fj, (1,)).mass == {
        (x,): F(1, 4) for x in range(4)
    }


def test_diagonal_restriction_of_joining():
    # Restricted to blocks of the difference-invariant factor, the joining is
    # the diagonal measure.
    sys_ = three_direction_torus(5)
    fj = furstenberg_self_joining(sys_, (0, 1))
    phi = invariant_factor(sys_, difference_subgroup(3, (0, 1)))
    for a, b in iter_product(phi.blocks, repeat=2):
        mass = fj.coupling.event_mass([frozenset(a), frozenset(b)])
        assert mass == sys_.space.measure(set(a) & set(b))


def test_oblique_copy_equal_generators():
    sys_ = cyclic_system(4, 1, 1)
    fj = furstenberg_self_joining(sys_)
    oc = oblique_copy(fj, (0, 1))
    # Equal generators: the difference factor is everything, pulled back it
    # separates the diagonal support completely.
    assert len(oc.blocks) == len(fj.coupling.support())


def test_oblique_copy_torus_agreement():
    sys_ = three_direction_torus(5)
    fj = furstenberg_self_joining(sys_)
    for e in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        oc = oblique_copy(fj, e)  # raises on cross-coordinate disagreement
        assert oc.size == len(fj.coupling.support())


def test_oblique_copy_coarse_for_mixing_directions():
    # With generators +1 and +2 on five points, the difference direction acts
    # transitively, so the oblique copy is the one-block partition.
    sys_ = cyclic_system(5, 1, 2)
    fj = furstenberg_self_joining(sys_)
    oc = oblique_copy(fj, (0, 1))
    assert len(oc.blocks) == 1


def test_oblique_copy_needs_two_directions():
    sys_ = cyclic_system(3, 1, 2)
    fj = furstenberg_self_joining(sys_)
    with pytest.raises(ValueError):
        oblique_copy(fj, (0,))


def test_repeated_directions_count_once():
    assert difference_subgroup(2, (0, 0)) == SubgroupSpec(())
    assert difference_subgroup(3, (2, 0, 2)) == difference_subgroup(3, (0, 2))
    fj = furstenberg_self_joining(cyclic_system(3, 1, 2))
    with pytest.raises(ValueError, match="needs at least two directions"):
        oblique_copy(fj, (0, 0))
    assert oblique_copy(fj, (1, 0, 1)) == oblique_copy(fj, (0, 1))


# -- recurrence ---------------------------------------------------------------------

def test_recurrence_null_set():
    sp_weights = (F(1, 2), F(1, 2), F(0))
    from ergolab.measure import ExactProbabilitySpace

    sys_ = FiniteZdSystem(
        ExactProbabilitySpace((0, 1, 2), sp_weights), ((1, 0, 2), (0, 1, 2))
    )
    cert = recurrence_certificate(sys_, {2})
    assert cert.limit == 0 and cert.witness is None


def test_recurrence_worked_example():
    sys_ = cyclic_system(3, 1, 2)
    cert = recurrence_certificate(sys_, {0})
    assert cert == RecurrenceCertificate(F(1, 9), 3)


def test_recurrence_full_set():
    sys_ = cyclic_system(3, 1, 2)
    cert = recurrence_certificate(sys_, {0, 1, 2})
    assert cert.limit == 1 and cert.witness == 1


def test_period_scan_matches_the_joining_and_brute_force():
    # One integer scan gives the limit the self-joining's product mass and
    # the plain average over one period give, and the witness the old
    # n-by-n loop found.
    rng, systems = weighted_systems_with_null_points(32, 40)
    witnesses = set()
    for sys_ in systems:
        fj = furstenberg_self_joining(sys_)
        points = range(len(sys_))
        for _ in range(4):
            sets = [frozenset(x for x in points if rng.random() < 0.6) for _ in range(sys_.dim)]
            limit = cesaro_limit(sys_, sets)
            assert limit == fj.coupling.event_mass(sets)
            assert limit == brute_cesaro(sys_, sets, fj.period)
            A = sets[0]
            cert = recurrence_certificate(sys_, A)
            assert cert.limit == fj.coupling.event_mass([A] * sys_.dim)
            assert cert.witness == old_recurrence_witness(sys_, A)
            witnesses.add(cert.witness if cert.witness is None else min(cert.witness, 2))
    assert witnesses == {None, 1, 2}  # null sets, and returns at n = 1 and later


@pytest.mark.parametrize("index", [-1, 3, 99])
def test_recurrence_rejects_points_outside_the_system(index):
    sys_ = cyclic_system(3, 1, 2)
    message = f"^point index {index} out of range for 3 points$"
    with pytest.raises(ValueError, match=message):
        recurrence_certificate(sys_, {0, index})
    with pytest.raises(ValueError, match=message):
        cesaro_limit(sys_, [{0}, {index}])


def test_joining_checks_directions_before_reading_generators():
    sys_ = cyclic_system(3, 1, 2)
    with pytest.raises(ValueError, match="^direction out of range$"):
        furstenberg_self_joining(sys_, (0, 5))
    with pytest.raises(ValueError, match="^directions must be a nonempty set"):
        furstenberg_self_joining(sys_, (1, 1))
    with pytest.raises(ValueError, match="^directions must be a nonempty set"):
        furstenberg_self_joining(sys_, ())


def _local_periods(sys_, dirs):
    """Each point's period under the given directions, by stepping."""
    out = []
    for x in range(len(sys_)):
        period = 1
        for i in dirs:
            g, y, n = sys_.generators[i], sys_.generators[i][x], 1
            while y != x:
                y, n = g[y], n + 1
            period = lcm(period, n)
        out.append(period)
    return out


def test_local_period_walks_match_the_global_period_oracles():
    # The joining (on every direction subset), the period scan and the
    # exhaustive certificates equal the former loops over the global period,
    # masses, witnesses and the joining's mass order included.
    rng, systems = weighted_systems_with_null_points(41, 150)
    mixed = shorter = 0
    for sys_ in systems:
        for r in range(1, sys_.dim + 1):
            for dirs in combinations(range(sys_.dim), r):
                new, old = furstenberg_self_joining(sys_, dirs), old_furstenberg_self_joining(sys_, dirs)
                assert new == old and list(new.coupling.mass) == list(old.coupling.mass)
                periods = _local_periods(sys_, dirs)
                support = [periods[x] for x in sys_.space.support()]
                mixed += len(set(support)) > 1
                shorter += lcm(*support) < new.period
        points = range(len(sys_))
        for _ in range(6):
            sets = [frozenset(x for x in points if rng.random() < 0.6) for _ in range(sys_.dim)]
            assert _period_scan(sys_, sets) == old_period_scan(sys_, sets)
            A = sets[0]
            assert recurrence_certificate(sys_, A) == RecurrenceCertificate(
                *old_period_scan(sys_, [A] * sys_.dim)
            )
        if len(sys_) <= 7:
            assert recurrence_certificates_exhaustive(sys_) == old_recurrence_certificates_exhaustive(sys_)
    # Support points with different local periods, and supports whose
    # periods miss a cycle length of the null points.
    assert mixed >= 20 and shorter >= 5


def test_long_global_period_scans_in_local_periods():
    sys_ = long_period_system()
    A = frozenset(range(0, 100, 3))
    start = time.perf_counter()
    assert furstenberg_self_joining(sys_).period == 223092870
    assert recurrence_certificate(sys_, A).limit == sys_.space.measure(A)
    # One direction: the point before 0 on its 2-cycle enters {0} at n = 1.
    assert recurrence_certificate(sys_, {0}) == RecurrenceCertificate(F(1, 100), 1)
    assert multiple_recurrence_check(sys_, [A])
    assert time.perf_counter() - start < 2.0


def test_recurrence_exhaustive_agrees_with_single_calls():
    rng = random.Random(10)
    for _ in range(8):
        sys_ = random_system(rng, max_points=7, dim=rng.randint(1, 3))
        table = recurrence_certificates_exhaustive(sys_)
        for _ in range(12):
            mask = rng.randrange(1 << len(sys_))
            aset = {x for x in range(len(sys_)) if mask >> x & 1}
            assert table[mask] == recurrence_certificate(sys_, aset)


def test_multiple_recurrence_trivial_cases():
    sys_ = cyclic_system(4, 1, 2)
    assert multiple_recurrence_check(sys_, [{0}, {1}])  # disjoint
    assert multiple_recurrence_check(sys_, [set(range(4)), set(range(4))])


def test_joining_mass_dominates_intersection():
    # The period average includes the zero-offset term, so the product mass
    # is at least the intersection measure divided by the period.
    rng = random.Random(12)
    for _ in range(30):
        sys_ = random_system(rng, max_points=6, dim=2)
        fj = furstenberg_self_joining(sys_)
        a = frozenset(x for x in range(len(sys_)) if rng.random() < 0.5)
        b = frozenset(x for x in range(len(sys_)) if rng.random() < 0.5)
        lhs = fj.coupling.event_mass([a, b])
        assert lhs * fj.period >= sys_.space.measure(a & b)


# -- van der Corput -------------------------------------------------------------------

def test_vdc_constant_sequence_equality():
    v = (F(2, 3), F(-1, 2))
    seq = VectorSequence(tuple(v for _ in range(8)))
    rep = van_der_corput_inequality(seq, 4, 2)
    norm = v[0] * v[0] + v[1] * v[1]
    assert rep.lhs == rep.rhs == norm
    assert rep.holds


def test_vdc_alternating_sequence():
    v = (F(1), F(2))
    seq = VectorSequence(
        tuple(v if i % 2 == 0 else tuple(-c for c in v) for i in range(10))
    )
    rep = van_der_corput_inequality(seq, 4, 2)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds


def test_vdc_randomized():
    rng = random.Random(13)
    for _ in range(120):
        length = rng.randint(4, 16)
        seq = VectorSequence(random_vector_sequence(rng, rng.randint(1, 4), length))
        N = rng.randint(1, length - 2)
        H = rng.randint(1, length - N)
        assert van_der_corput_inequality(seq, N, H).holds


def test_vdc_index_overflow():
    seq = VectorSequence(((F(1),),) * 4)
    with pytest.raises(ValueError):
        van_der_corput_inequality(seq, 4, 2)


# -- structure predicates ---------------------------------------------------------------

def test_structure_report_three_direction_torus():
    rep = self_joining_structure_report(three_direction_torus(5))
    assert rep.coordinate_holds
    assert rep.oblique_holds


def test_structure_report_d2_oblique_poset_is_small():
    sys_ = cyclic_system(4, 1, 2)
    rep = self_joining_structure_report(sys_)
    # d = 2: the only nonempty up-set is {{0,1}}; all pairs are degenerate.
    assert len(rep.oblique_pairs) == 4
    assert rep.oblique_holds


@pytest.mark.parametrize(
    "make, masks",
    [(lambda: three_direction_torus(3), 4), (lambda: cyclic_system(3, 1, 2, 0, 1), 11)],
    ids=["torus-3", "z3-1201"],
)
def test_structure_report_computes_each_invariant_factor_once(monkeypatch, make, masks):
    # One invariant factor per index set of size >= 2, shared by the pair
    # factors and the oblique members: 3 + 1 sets at d = 3, 6 + 4 + 1 at d = 4.
    seen = []
    real = averages.invariant_factor

    def counting(sys_, subgroup):
        seen.append(subgroup)
        return real(sys_, subgroup)

    monkeypatch.setattr(averages, "invariant_factor", counting)
    self_joining_structure_report(make())
    assert len(seen) == len(set(seen)) == masks


def test_structure_report_needs_two_directions():
    with pytest.raises(ValueError):
        self_joining_structure_report(cyclic_system(3, 1))
