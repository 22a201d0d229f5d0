"""Exact measure plumbing: conditional expectation, relative independence,
fiber products, and a.e. equality."""
from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    event_mass,
    fraction_coupling_error,
    fraction_fiber_product_mass,
    fraction_product_mass,
    fraction_space_error,
    iid_law,
    indicator,
    marginal,
    old_diagonal_coupling,
    old_product_coupling,
    old_relative_independence,
)

from ergolab import removal
from ergolab.averages import FurstenbergJoining, VectorSequence, furstenberg_self_joining
from ergolab.generators import random_system
from ergolab.hales_jewett import (
    CombinatorialSubspace,
    StationaryLawTruncation,
    constant_law,
)
from ergolab.measure import (
    Coupling,
    clean_entries,
    ExactProbabilitySpace,
    Partition,
    SimpleFunction,
    ae_equal,
    common_refinement,
    conditional_expectation,
    relative_independence,
    relatively_independent_product,
)
from ergolab.serialize import canonical_dumps, coupling_to_json
from ergolab.systems import FiniteZdSystem, GroupRotationSystem, SubgroupSpec
from ergolab.upsets import UpSet

F = Fraction


def small_space(weights) -> ExactProbabilitySpace:
    return ExactProbabilitySpace(tuple(range(len(weights))), tuple(weights))


# -- construction invariants --------------------------------------------------

def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        small_space([F(1, 2), F(1, 3)])
    with pytest.raises(ValueError):
        small_space([F(3, 2), F(-1, 2)])
    with pytest.raises(ValueError):
        ExactProbabilitySpace(("a", "a"), (F(1, 2), F(1, 2)))


def test_space_checks_on_numerators_match_the_fraction_checks():
    # Seeded spaces, most of them failing: a repeated label, a length
    # mismatch, a negative weight (with a total of 1 or not), or a total
    # other than 1.  A whole weight is sometimes given as an int.
    rng = random.Random(20)
    verdicts = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        weights = [F(rng.randint(-2, 6), rng.randint(1, 6)) for _ in range(n)]
        total = sum(weights, F(0))
        if total > 0 and rng.random() < 0.7:
            weights = [w / total for w in weights]
        weights = [int(w) if w.denominator == 1 and rng.random() < 0.5 else w for w in weights]
        points = list(range(n))
        if n > 1 and rng.random() < 0.1:
            points[-1] = points[0]
        if rng.random() < 0.05:
            points.append(n)
        expected = fraction_space_error(points, weights)
        verdicts.add(expected)
        try:
            ExactProbabilitySpace(points, weights)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected
    assert verdicts == {
        None,
        "points and weights must have equal length",
        "point labels must be distinct",
        "weights must be nonnegative",
        "weights must sum to exactly 1",
    }


def test_partition_canonical_and_validated():
    p = Partition(4, ((3, 1), (0, 2)))
    assert p.blocks == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        Partition(3, ((0, 1),))
    with pytest.raises(ValueError):
        Partition(3, ((0, 1), (1, 2)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 5), st.sampled_from("abc")), max_size=12))
def test_from_labels_equals_the_validating_constructor(labels):
    # from_labels skips __post_init__, so its output must already be the
    # canonical, validated partition the constructor builds.
    groups: dict = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    expected = Partition(len(labels), tuple(groups.values()))
    got = Partition.from_labels(labels)
    assert got.size == expected.size
    assert got.blocks == expected.blocks
    assert got.labels == expected.labels
    assert got == expected
    assert hash(got) == hash(expected)


def test_partition_from_pairs_is_connected_components():
    assert Partition.from_pairs(5, [(3, 1), (0, 4), (4, 0)]) == Partition(
        5, ((0, 4), (1, 3), (2,))
    )
    assert Partition.from_pairs(3, []) == Partition.singletons(3)
    assert Partition.from_pairs(4, [(0, 1), (2, 3), (1, 2)]) == Partition.one_block(4)


def test_coupling_marginals_enforced():
    sp = small_space([F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        Coupling(2, sp, {(0, 0): F(1)})
    diag = Coupling.diagonal(sp, 2)
    assert diag.mass == {(0, 0): F(1, 2), (1, 1): F(1, 2)}


def _random_weights(rng, n):
    nums = [rng.choice([0, 1, 1, 2, 3]) for _ in range(n)]
    if not any(nums):
        nums[rng.randrange(n)] = 1
    total = sum(nums)
    return tuple(F(v, total) for v in nums)


class _Pairs:
    """A mass given as ``(list, value)`` pairs: not a dict, and its keys are
    lists."""

    def __init__(self, mass):
        self.pairs = [(list(t), v) for t, v in mass.items()]

    def items(self):
        return iter(self.pairs)


def _table_outcome(build, mass):
    """The table ``build`` stores, or the type and text of its error."""
    try:
        return build(mass)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _coupling_outcome(arity, base, mass):
    return _table_outcome(lambda m: Coupling(arity, base, m).mass, mass)


def _perturb(rng, mass, change, n, width):
    """Break ``mass`` in place as ``change`` says: move part of one mass to
    a random key, scale one mass, or add a zero mass at a random key."""
    if change == "move":
        src = rng.choice(sorted(mass))
        dst = tuple(rng.randrange(n) for _ in range(width))
        moved = mass[src] * F(rng.randint(1, 4), 4)
        mass[src] -= moved
        mass[dst] = mass.get(dst, F(0)) + moved
    elif change == "scale":
        t = rng.choice(sorted(mass))
        mass[t] *= rng.choice([F(1, 2), F(3, 2), F(2)])
    elif change == "zero":
        mass[tuple(rng.randrange(n) for _ in range(width))] = F(0)


def _slow_variants(rng, mass, arity, n):
    """The same measure written so that the constructor's one-pass check
    cannot accept it: namedtuple keys, list keys, ``True`` entries, ``int``
    masses and zero masses."""
    key = namedtuple("Key", [f"c{i}" for i in range(arity)])
    as_bool = {tuple(True if i == 1 else i for i in t): v for t, v in mass.items()}
    ints = {t: v.numerator if v.denominator == 1 else v for t, v in mass.items()}
    variants = [{key(*t): v for t, v in mass.items()}]
    unused = [t for t in iter_product(range(n), repeat=arity) if t not in mass]
    if unused:
        fresh = rng.choice(unused)
        variants += [{**ints, fresh: 0}, {**mass, fresh: F(0)}]
    elif ints != mass or any(type(v) is int for v in ints.values()):
        variants.append(ints)
    if any(1 in t for t in mass):
        variants.append(as_bool)
    return variants


def test_coupling_checks_match_the_fraction_sums():
    # Seeded couplings, valid and broken, must get the error text of the
    # Fraction-summed checks.  Half the broken ones keep the total at 1 but
    # move mass between tuples; others are checked against a base whose
    # denominators (7, 11, 13) never occur in the masses.
    rng = random.Random(41)
    outcomes = set()
    foreign_base_rejected = 0
    for _ in range(600):
        n, arity = rng.randint(1, 4), rng.randint(1, 3)
        base = small_space(_random_weights(rng, n))
        kind = rng.choice(["product", "diagonal", "fiber"])
        if kind == "product":
            mass = dict(Coupling.product(base, arity).mass)
        elif kind == "diagonal":
            mass = dict(Coupling.diagonal(base, arity).mass)
        else:
            labels = tuple(rng.randrange(2) for _ in range(n))
            mass = dict(relatively_independent_product([base] * arity, [labels] * arity).mass)
        change = rng.choice(["none", "move", "scale", "zero", "foreign"])
        _perturb(rng, mass, change, n, arity)
        if change == "foreign" and n > 1:
            q = rng.choice([7, 11, 13])
            cut = rng.randint(1, q - 1)
            base = small_space((F(cut, q), F(q - cut, q)) + (F(0),) * (n - 2))
        expected = fraction_coupling_error(arity, base, mass)
        try:
            Coupling(arity, base, mass)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected
        # The one-pass recognition and the entry-by-entry loop must store
        # the same mass and raise the same error.
        clean = _coupling_outcome(arity, base, mass)
        for variant in _slow_variants(rng, mass, arity, n):
            assert not clean_entries(variant.keys(), variant.values(), arity, n)
            assert _coupling_outcome(arity, base, variant) == clean
        assert _coupling_outcome(arity, base, _Pairs(mass)) == clean
        t = rng.choice(sorted(mass))
        assert _coupling_outcome(arity, base, {**mass, t: F(-1, 5)}) == (
            ValueError, "masses must be nonnegative")
        assert _coupling_outcome(arity, base, {**mass, t: 1.0}) == (
            TypeError, "expected an exact rational, got float")
        outcomes.add(expected)
        foreign_base_rejected += change == "foreign" and n > 1 and expected is not None
    assert outcomes == {None, "total mass must be exactly 1"} | {
        f"coordinate {c} marginal differs from the base weights" for c in range(3)
    }
    assert foreign_base_rejected > 20


def _seeded_laws(rng):
    """Seeded laws, valid and broken: each as ``(builder of the stored
    table, weights, key length, entry bound)``."""
    for _ in range(75):
        k, depth, m = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3)
        car = small_space(_random_weights(rng, m))
        law = rng.choice([iid_law, constant_law])(k, depth, car)
        mass = dict(law.weights)
        build = lambda w, k=k, depth=depth, car=car: StationaryLawTruncation(k, depth, car, w).weights
        width = len(next(iter(mass)))
        _perturb(rng, mass, rng.choice(["none", "move", "scale", "zero"]), m, width)
        yield build, mass, width, m


def test_law_reads_both_paths_alike():
    # The one-pass recognition and the entry-by-entry loop of the law store
    # the same table and raise the same error, as the coupling's do.
    rng = random.Random(43)
    outcomes = set()
    for build, mass, width, n in _seeded_laws(rng):
        clean = _table_outcome(build, mass)
        for variant in _slow_variants(rng, mass, width, n):
            assert not clean_entries(variant.keys(), variant.values(), width, n)
            assert _table_outcome(build, variant) == clean
        assert _table_outcome(build, _Pairs(mass)) == clean
        t = rng.choice(sorted(mass))
        assert _table_outcome(build, {**mass, t: F(-1, 5)}) == (
            ValueError, "masses must be nonnegative")
        assert _table_outcome(build, {**mass, t: 1.0}) == (
            TypeError, "expected an exact rational, got float")
        outcomes.add(clean[1] if type(clean) is tuple else None)
    assert outcomes == {
        None,
        "total mass must be exactly 1",
        "carrier weights must equal the first-coordinate marginal",
    }


@pytest.mark.parametrize(
    "build",
    [
        lambda: GroupRotationSystem((3.9,), ((1,),)),
        lambda: GroupRotationSystem((3,), ((1.2,),)),
        lambda: SubgroupSpec(((1.5, 0),)),
        lambda: SubgroupSpec((("1", 0),)),
        lambda: UpSet(2, {3.7}),
        lambda: CombinatorialSubspace(2, (1.9,), ({1},), "1"),
        lambda: CombinatorialSubspace(2, (1,), ({1.2},), "1"),
        lambda: VectorSequence(((0.5, F(1, 3)),)),
        lambda: VectorSequence(((F(1, 2), "1/3"),)),
        lambda: FiniteZdSystem(ExactProbabilitySpace.uniform((0, 1)), (("1", "0"),)),
        lambda: FiniteZdSystem(ExactProbabilitySpace.uniform((0, 1)), ((1.0, 0.0),)),
    ],
    ids=[
        "rotation-order", "rotation-image", "subgroup-float", "subgroup-string", "upset",
        "subspace-breakpoint", "subspace-wildcard", "sequence-float", "sequence-string",
        "system-string", "system-float",
    ],
)
def test_constructors_refuse_inexact_input(build):
    # Integers are read with operator.index and rationals as Fraction or
    # int, so nothing is truncated or parsed.
    with pytest.raises(TypeError):
        build()


def test_system_generators_read_bools_as_integers():
    from ergolab.serialize import canonical_dumps, system_to_json

    sys_ = FiniteZdSystem(ExactProbabilitySpace.uniform((0, 1)), ((True, False),))
    assert sys_.generators == ((1, 0),)
    assert all(type(x) is int for x in sys_.generators[0])
    assert canonical_dumps(system_to_json(sys_)["generators"]) == "[[1,0]]"


@pytest.mark.parametrize("item", [3.9, 3.0, "3"])
def test_upset_membership_refuses_inexact_input(item):
    # Membership reads the mask with operator.index: 3.9 is not mask 3.
    with pytest.raises(TypeError):
        item in UpSet(2, {3})


def test_upset_membership_reads_bools_as_integers():
    ups = UpSet(2, {3})
    assert 3 in ups
    assert True not in ups and False not in ups
    assert (True + 2) in ups


def test_constructors_read_bools_as_integers():
    assert GroupRotationSystem((True, 3), ((True, 2),)).orders == (1, 3)
    assert SubgroupSpec(((True, False),)).vectors == ((1, 0),)
    assert UpSet(2, {True + 2}).members == frozenset({3})
    assert CombinatorialSubspace(2, (True,), ({True},), "1").breakpoints == (1,)
    assert VectorSequence(((True, 2),)).entries == ((F(1), F(2)),)


def test_pullback_disagreement_matches_brute_force():
    rng = random.Random(41)
    for _ in range(80):
        n, arity = rng.randint(1, 4), rng.randint(1, 3)
        nums = [rng.randint(0, 3) for _ in range(n - 1)] + [rng.randint(1, 3)]
        space = ExactProbabilitySpace(tuple(range(n)), tuple(F(v, sum(nums)) for v in nums))
        if rng.random() < 0.5:
            labels = tuple(rng.randrange(2) for _ in range(n))
            coupling = relatively_independent_product([space] * arity, [labels] * arity)
        else:
            coupling = Coupling.diagonal(space, arity)
        aset = [x for x in range(n) if rng.random() < 0.5]
        for i, j in iter_product(range(arity), repeat=2):
            brute = sum(
                (
                    coupling.mass.get(t, F(0))
                    for t in iter_product(range(n), repeat=arity)
                    if (t[i] in aset) != (t[j] in aset)
                ),
                F(0),
            )
            assert coupling.pullback_disagreement(aset, i, j) == brute
    with pytest.raises(ValueError, match="coordinate out of range"):
        coupling.pullback_disagreement(aset, -1, 0)
    with pytest.raises(ValueError, match="coordinate out of range"):
        coupling.pullback_disagreement(aset, 0, arity)


def test_marginal_and_event_mass_match_fraction_sums():
    # Both are summed on integer numerators and divided once; the values
    # must be the entry-by-entry Fraction sums.
    rng = random.Random(43)
    for _ in range(80):
        n, arity = rng.randint(1, 4), rng.randint(1, 3)
        space = small_space(_random_weights(rng, n))
        coupling = rng.choice([Coupling.product, Coupling.diagonal])(space, arity)
        for c in range(arity):
            brute = [F(0)] * n
            for t, v in coupling.mass.items():
                brute[t[c]] += v
            assert marginal(coupling, c) == tuple(brute) == space.weights
        sets = [{x for x in range(n) if rng.random() < 0.5} for _ in range(arity)]
        brute = sum(
            (v for t, v in coupling.mass.items() if all(x in s for x, s in zip(t, sets))),
            F(0),
        )
        assert event_mass(coupling, sets) == brute


def test_coupling_sparse_form_canonical():
    # Zero entries are dropped, so representation refinements do not matter.
    sp = small_space([F(1, 2), F(1, 2)])
    a = Coupling(2, sp, {(0, 0): F(1, 2), (1, 1): F(1, 2), (0, 1): F(0)})
    b = Coupling.diagonal(sp, 2)
    assert a == b


# -- conditional expectation ---------------------------------------------------

def test_ce_singletons_is_identity():
    sp = small_space([F(1, 2), F(1, 4), F(1, 4)])
    f = SimpleFunction((F(3), F(-1), F(7, 2)))
    assert conditional_expectation(f, Partition.singletons(3), sp) == f


def test_ce_one_block_is_full_average():
    sp = small_space([F(1, 2), F(1, 4), F(1, 4)])
    f = SimpleFunction((F(3), F(-1), F(7, 2)))
    out = conditional_expectation(f, Partition.one_block(3), sp)
    assert set(out.values) == {f.integral(sp)}


def test_ce_weighted_average_oracle():
    # X={a,b,c}, mu=(1/2,1/4,1/4), f=(1,0,2), blocks {a},{b,c}.
    sp = small_space([F(1, 2), F(1, 4), F(1, 4)])
    f = SimpleFunction((F(1), F(0), F(2)))
    p = Partition(3, ((0,), (1, 2)))
    out = conditional_expectation(f, p, sp)
    block_avg = (F(1, 4) * 0 + F(1, 4) * 2) / F(1, 2)
    assert out.values == (F(1), block_avg, block_avg)
    assert out.values == (F(1), F(1), F(1))


def test_ce_zero_block_convention_and_integral():
    sp = small_space([F(1, 2), F(1, 2), F(0)])
    f = SimpleFunction((F(5), F(1), F(9)))
    out = conditional_expectation(f, Partition(3, ((0, 1), (2,))), sp)
    assert out.values[2] == 0
    assert out.integral(sp) == f.integral(sp)


@st.composite
def space_function_partitions(draw):
    n = draw(st.integers(2, 6))
    nums = draw(
        st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(lambda v: sum(v) > 0)
    )
    total = sum(nums)
    sp = small_space([F(v, total) for v in nums])
    f = SimpleFunction(
        tuple(F(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(n))
    )
    fine = Partition.from_labels([draw(st.integers(0, 3)) for _ in range(n)])
    merge = {b: draw(st.integers(0, 1)) for b in range(len(fine.blocks))}
    coarse = Partition.from_labels([merge[fine.block_of(i)] for i in range(n)])
    return sp, f, fine, coarse


@settings(max_examples=120, deadline=None)
@given(space_function_partitions())
def test_ce_idempotent_and_tower(data):
    sp, f, fine, coarse = data
    once = conditional_expectation(f, fine, sp)
    assert conditional_expectation(once, fine, sp) == once
    via_fine = conditional_expectation(once, coarse, sp)
    direct = conditional_expectation(f, coarse, sp)
    assert via_fine == direct


# -- relative independence -----------------------------------------------------

def test_product_measure_independent_over_trivial():
    sp = small_space([F(1, 3), F(2, 3)])
    nu = Coupling.product(sp, 2)
    factors = (Partition.singletons(2), Partition.singletons(2))
    trivial = (Partition.one_block(2), Partition.one_block(2))
    assert relative_independence(factors, trivial, nu).holds


def test_diagonal_coupling_fails_over_trivial():
    sp = small_space([F(1, 2), F(1, 2)])
    nu = Coupling.diagonal(sp, 2)
    factors = (Partition.singletons(2), Partition.singletons(2))
    trivial = (Partition.one_block(2), Partition.one_block(2))
    rep = relative_independence(factors, trivial, nu)
    assert not rep.holds
    blocks, lhs, rhs = rep.witness
    assert lhs != rhs


def test_relative_independence_matches_bruteforce():
    # Independent double computation of both integrals for one coupling.
    sp = small_space([F(1, 4), F(1, 4), F(1, 2)])
    quotient = Partition(3, ((0, 1), (2,)))
    nu = relatively_independent_product([sp, sp], [quotient.labels] * 2)
    factors = (Partition.singletons(3), Partition.singletons(3))
    subs = (quotient, quotient)
    rep = relative_independence(factors, subs, nu)
    for b1 in factors[0].blocks:
        for b2 in factors[1].blocks:
            lhs = sum(
                (v for t, v in nu.mass.items() if t[0] in b1 and t[1] in b2),
                F(0),
            )
            e1 = conditional_expectation(indicator(3, b1), quotient, sp)
            e2 = conditional_expectation(indicator(3, b2), quotient, sp)
            rhs = sum(
                (v * e1.values[t[0]] * e2.values[t[1]] for t, v in nu.mass.items()),
                F(0),
            )
            assert lhs == rhs
    assert rep.holds


def _naive_relative_independence(factors, subfactors, nu):
    # Reference path: both integrals computed directly from definitions.
    base = nu.base
    for blocks in iter_product(*(p.blocks for p in factors)):
        lhs = F(0)
        for t, v in nu.mass.items():
            if all(t[i] in set(blocks[i]) for i in range(nu.arity)):
                lhs += v
        exps = [
            conditional_expectation(
                indicator(len(base), blocks[i]), subfactors[i], base
            )
            for i in range(nu.arity)
        ]
        rhs = F(0)
        for t, v in nu.mass.items():
            term = v
            for i in range(nu.arity):
                term *= exps[i].values[t[i]]
            rhs += term
        if lhs != rhs:
            return False
    return True


def test_relative_independence_fuzz_against_naive():
    rng = random.Random(404)
    agree = disagree_seen = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        nums = [rng.randint(0, 3) for _ in range(n)]
        if sum(nums) == 0:
            nums[0] = 1
        sp = small_space([F(v, sum(nums)) for v in nums])
        labels = [rng.randrange(rng.randint(1, 3)) for _ in range(n)]
        quotient = Partition.from_labels(labels)
        kind = rng.randrange(3)
        if kind == 0:
            nu = Coupling.diagonal(sp, 2)
        elif kind == 1:
            nu = Coupling.product(sp, 2)
        else:
            nu = relatively_independent_product([sp, sp], [labels, labels])
        factors = (Partition.singletons(n), Partition.singletons(n))
        subs = rng.choice(
            [
                (quotient, quotient),
                (Partition.one_block(n), Partition.one_block(n)),
                (Partition.singletons(n), quotient),
            ]
        )
        got = relative_independence(factors, subs, nu)
        want = _naive_relative_independence(factors, subs, nu)
        assert got.holds == want
        agree += got.holds
        disagree_seen += not got.holds
    # The fuzz domain must exercise both outcomes.
    assert agree and disagree_seen


def test_coarsening_precondition_enforced():
    sp = small_space([F(1, 2), F(1, 2)])
    nu = Coupling.diagonal(sp, 2)
    coarse = (Partition.one_block(2), Partition.one_block(2))
    fine = (Partition.singletons(2), Partition.singletons(2))
    with pytest.raises(ValueError):
        relative_independence(coarse, fine, nu)


def _random_nu(rng, k):
    """A coupling of arity ``k`` or, for a plain space, ``k`` factors on it;
    the base often has null points."""
    if rng.random() < 0.3:
        sys_ = random_system(rng, max_points=6, dim=k)
        return furstenberg_self_joining(sys_).coupling
    n = rng.randint(1, 5)
    nums = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
    if not any(nums):
        nums[rng.randrange(n)] = 1
    sp = small_space([F(v, sum(nums)) for v in nums])
    kind = rng.randrange(5)
    if kind == 0:
        return sp
    if kind == 1:
        return Coupling.diagonal(sp, k)
    if kind == 2:
        return Coupling.product(sp, k)
    labels = [rng.randrange(2) for _ in range(n)]
    fiber = relatively_independent_product([sp] * k, [labels] * k)
    if kind == 3:
        return fiber
    # Half the diagonal plus half the fiber product: marginals stay the weights.
    mix = {t: v / 2 for t, v in fiber.mass.items()}
    for t, v in Coupling.diagonal(sp, k).mass.items():
        mix[t] = mix.get(t, F(0)) + v / 2
    return Coupling(k, sp, mix)


def _random_factor_pair(rng, base):
    """A random factor and a subfactor that coarsens it modulo null points:
    its blocks merge factor blocks, and each null point may move to any
    block."""
    n = len(base)
    factor = Partition.from_labels([rng.randrange(rng.randint(1, n)) for _ in range(n)])
    kind = rng.randrange(4)
    if kind == 0:
        return factor, factor
    if kind == 1:
        return factor, Partition.one_block(n)
    merge = [rng.randrange(2) for _ in range(len(factor))]
    labels = [merge[b] for b in factor.labels]
    if kind == 3:
        labels = [lab if w else rng.randrange(3) for lab, w in zip(labels, base.weights)]
    return factor, Partition.from_labels(labels)


def test_relative_independence_matches_the_block_product_loop():
    # The support walk reproduces the loop over every block tuple: verdict,
    # witness blocks and both witness values.
    rng = random.Random(1717)
    outcomes, off_support, shapes = set(), set(), set()
    for case in range(400):
        k = 1 + case % 3
        nu = _random_nu(rng, k)
        base = nu.base if isinstance(nu, Coupling) else nu
        pairs = [_random_factor_pair(rng, base) for _ in range(k)]
        factors = tuple(f for f, _ in pairs)
        subs = tuple(s for _, s in pairs)
        got = relative_independence(factors, subs, nu)
        want = old_relative_independence(factors, subs, nu)
        assert got.holds == want.holds
        if not want.holds:
            (blocks, lhs, rhs), (want_blocks, want_lhs, want_rhs) = got.witness, want.witness
            assert blocks == want_blocks
            assert (lhs, rhs) == (want_lhs, want_rhs)
            off_support.add(lhs == 0)
        outcomes.add(got.holds)
        shapes.add((type(nu).__name__, k, any(w == 0 for w in base.weights)))
    # Both outcomes, witnesses off and on the support, and couplings and
    # plain spaces with and without null points, at every arity.
    assert outcomes == off_support == {True, False}
    assert shapes == {
        (name, k, nulls)
        for name in ("Coupling", "ExactProbabilitySpace")
        for k in (1, 2, 3)
        for nulls in (True, False)
    }


def test_precondition_violation_reports_the_same_error():
    # Point 2 is null, so the factor block {1, 2} may straddle the
    # subfactor blocks; the live points of {0, 1} may not.
    sp = small_space([F(1, 2), F(1, 2), F(0)])
    nu = Coupling.diagonal(sp, 2)
    factor = Partition(3, ((0,), (1, 2)))
    straddle_null = Partition(3, ((0, 2), (1,)))
    assert relative_independence((factor, factor), (factor, straddle_null), nu) == (
        old_relative_independence((factor, factor), (factor, straddle_null), nu)
    )
    coarse = Partition(3, ((0, 1), (2,)))
    fine = Partition.singletons(3)
    text = "subfactor 1 does not coarsen its factor modulo null blocks"
    for kernel in (relative_independence, old_relative_independence):
        with pytest.raises(ValueError, match=text):
            kernel((factor, coarse), (factor, fine), nu)


# -- relatively independent products -------------------------------------------

def _product_spaces():
    """Every weight menu of the removal search, at 1 to 4 points, plus the
    menus' reversals, which put the zero weight last."""
    for n in range(1, 5):
        for weights in removal._weight_menu(n):
            yield small_space(weights)
            if weights[::-1] != weights:
                yield small_space(weights[::-1])


def _assert_same_table(got: Coupling, expected: dict) -> None:
    # Same masses in the same order, one Fraction object per distinct mass.
    assert list(got.mass.items()) == list(expected.items())
    assert len({id(v) for v in got.mass.values()}) == len(set(got.mass.values()))


def test_integer_products_match_the_fraction_formulas():
    # Every weight menu, every partition as the fiber map and arity 1 to 4.
    checked = 0
    for space in _product_spaces():
        n = len(space)
        for arity in range(1, 5):
            _assert_same_table(Coupling.product(space, arity), fraction_product_mass(space, arity))
            for part in removal._all_partitions(n):
                maps = [part.labels] * arity
                _assert_same_table(
                    relatively_independent_product([space] * arity, maps),
                    fraction_fiber_product_mass([space] * arity, maps),
                )
                checked += 1
    # 1 space at one point and 5 at 2 to 4 points, times the Bell numbers
    # 1, 2, 5, 15 of partitions, times 4 arities.
    assert checked == 4 * (1 * 1 + 5 * 2 + 5 * 5 + 5 * 15)


def test_integer_fiber_product_matches_on_different_maps():
    # Each coordinate with its own map (and its own label names): the table
    # or the error must be the former one.
    rng = random.Random(53)
    outcomes = set()
    for _ in range(400):
        n, arity = rng.randint(1, 4), rng.randint(1, 4)
        space = small_space(_random_weights(rng, n))
        names = rng.choice([range(3), "abc"])
        maps = [[names[rng.randrange(2)] for _ in range(n)] for _ in range(arity)]
        expected = fraction_fiber_product_mass([space] * arity, maps)
        try:
            got = relatively_independent_product([space] * arity, maps)
        except ValueError as exc:
            assert str(exc) == expected
            outcomes.add("error")
            continue
        _assert_same_table(got, expected)
        outcomes.add("table")
    assert outcomes == {"error", "table"}

def test_product_and_diagonal_match_their_former_bodies():
    # Both are fiber products now, over the map to one point and over the
    # identity map: the masses, their order, the common denominator and the
    # numerators must be those of the former bodies, at arity 1 to 4, on
    # seeded spaces with null points among them.  Equal masses now share one
    # Fraction in the diagonal too; the former one reused the base's weights.
    rng = random.Random(61)
    null_points = 0
    for _ in range(300):
        space = small_space(_random_weights(rng, rng.randint(1, 5)))
        null_points += len(space) - len(space.support())
        for arity in range(1, 5):
            for build, former in (
                (Coupling.product, old_product_coupling),
                (Coupling.diagonal, old_diagonal_coupling),
            ):
                got, expected = build(space, arity), former(space, arity)
                assert list(got.mass.items()) == list(expected.mass.items())
                assert (got._den, got._nums) == (expected._den, expected._nums)
                assert len({id(v) for v in got.mass.values()}) == len(set(got.mass.values()))
    assert null_points > 0


def _assert_matches_validated(got: Coupling) -> None:
    """``got`` equals the coupling the public constructor builds from its
    masses: the masses and their order, the common denominator, the
    numerators, the support, one ``Fraction`` per distinct mass, and the
    canonical JSON."""
    expected = Coupling(got.arity, got.base, dict(got.mass))
    assert list(got.mass.items()) == list(expected.mass.items())
    assert (got._den, got._nums) == (expected._den, expected._nums)
    assert got.support() == expected.support()
    assert len({id(v) for v in got.mass.values()}) == len(set(got.mass.values()))
    assert canonical_dumps(coupling_to_json(got)) == canonical_dumps(coupling_to_json(expected))


def _weight_preserving_shuffle(rng, space):
    """A random permutation of the points that moves each point to one of
    equal weight."""
    out = list(range(len(space)))
    for w in set(space.weights):
        same = [x for x in range(len(space)) if space.weights[x] == w]
        for x, y in zip(same, rng.sample(same, len(same))):
            out[x] = y
    return out


def test_fiber_products_match_the_validated_construction():
    # Product, diagonal and fiber couplings skip the constructor's checks;
    # they must build what it builds, at arity 1 to 4, on seeded spaces
    # with null points among them.  The fiber maps differ per coordinate
    # by a weight-preserving shuffle, so each pushes the weights to the
    # same base.
    rng = random.Random(67)
    null_points = 0
    for _ in range(200):
        space = small_space(_random_weights(rng, rng.randint(1, 5)))
        n = len(space)
        null_points += n - len(space.support())
        for arity in range(1, 5):
            labels = [rng.randrange(n) for _ in range(n)]
            maps = [
                [labels[y] for y in _weight_preserving_shuffle(rng, space)]
                for _ in range(arity)
            ]
            _assert_matches_validated(Coupling.product(space, arity))
            _assert_matches_validated(Coupling.diagonal(space, arity))
            _assert_matches_validated(relatively_independent_product([space] * arity, maps))
    assert null_points > 0


def test_furstenberg_joinings_match_the_validated_construction():
    # The joining and its coupling skip their checks; the coupling must be
    # what the constructor builds, and the public joining constructor must
    # accept it, at d = 1 to 3 and every direction set.
    rng = random.Random(71)
    null_points = 0
    for _ in range(150):
        d = rng.randint(1, 3)
        sys_ = random_system(rng, max_points=rng.randint(1, 8), dim=d)
        null_points += len(sys_) - len(sys_.space.support())
        for r in range(1, d + 1):
            for dirs in combinations(range(d), r):
                fj = furstenberg_self_joining(sys_, dirs)
                _assert_matches_validated(fj.coupling)
                checked = FurstenbergJoining(sys_, dirs, fj.coupling, fj.period)
                assert checked == fj and checked.directions == fj.directions == dirs
    assert null_points > 0


@pytest.mark.parametrize("arity", [0, -1])
@pytest.mark.parametrize("build", [Coupling.product, Coupling.diagonal])
def test_product_and_diagonal_refuse_nonpositive_arity(build, arity):
    with pytest.raises(ValueError, match="^arity must be positive$"):
        build(small_space([F(1, 2), F(1, 2)]), arity)


def test_fiber_product_trivial_base_is_product():
    sp = small_space([F(1, 3), F(2, 3)])
    got = relatively_independent_product([sp, sp], [[0, 0], [0, 0]])
    assert got == Coupling.product(sp, 2)


def test_fiber_product_identity_maps_is_diagonal():
    sp = small_space([F(1, 3), F(2, 3)])
    got = relatively_independent_product([sp, sp], [[0, 1], [0, 1]])
    assert got == Coupling.diagonal(sp, 2)


def test_fiber_product_parity_oracle():
    # Z4 uniform over the parity map: 1/8 on each parity-matching pair.
    sp = small_space([F(1, 4)] * 4)
    parity = [0, 1, 0, 1]
    got = relatively_independent_product([sp, sp], [parity, parity])
    expected = {}
    for x, y in iter_product(range(4), repeat=2):
        if parity[x] == parity[y]:
            expected[(x, y)] = F(1, 8)
    assert got.mass == expected
    # Direct disintegration oracle, computed separately.
    for x, y in expected:
        nu_y = F(1, 2)
        assert expected[(x, y)] == (F(1, 4) / nu_y) * (F(1, 4) / nu_y) * nu_y


def test_fiber_product_detects_mismatched_pushforwards():
    sp = small_space([F(1, 4), F(1, 4), F(1, 2)])
    with pytest.raises(ValueError):
        relatively_independent_product([sp, sp], [[0, 0, 1], [0, 1, 1]])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_fiber_product_marginals_and_independence(n, seed):
    rng = random.Random(seed)
    nums = [rng.randint(0, 4) for _ in range(n)]
    if sum(nums) == 0:
        nums[0] = 1
    total = sum(nums)
    sp = small_space([F(v, total) for v in nums])
    labels = [rng.randrange(3) for _ in range(n)]
    quotient = Partition.from_labels(labels)
    nu = relatively_independent_product([sp, sp], [labels, labels])
    assert marginal(nu, 0) == sp.weights
    assert marginal(nu, 1) == sp.weights
    rep = relative_independence(
        (Partition.singletons(n), Partition.singletons(n)),
        (quotient, quotient),
        nu,
    )
    assert rep.holds


# -- ae equality -----------------------------------------------------------------

def test_ae_equal_cases():
    sp = small_space([F(1, 2), F(1, 2), F(0)])
    p = Partition(3, ((0,), (1,), (2,)))
    q = Partition(3, ((0,), (1, 2)))
    assert ae_equal(p, p, sp)
    assert ae_equal(p, q, sp)  # differ only at the null point
    full = small_space([F(1, 3), F(1, 3), F(1, 3)])
    assert not ae_equal(Partition.singletons(3), Partition.one_block(3), full)
    assert not ae_equal(p, q, full)


def test_common_refinement():
    p = Partition(4, ((0, 1), (2, 3)))
    q = Partition(4, ((0, 2), (1, 3)))
    assert common_refinement(p, q) == Partition.singletons(4)
    assert common_refinement(p, p) == p
