"""Shared builders for the test suite."""
from __future__ import annotations

import argparse
from fractions import Fraction
from itertools import combinations, compress, product as iter_product, starmap
from math import gcd, lcm, prod
from operator import or_
from random import Random
from types import SimpleNamespace

from ergolab import cli, hales_jewett, serialize
from ergolab.averages import (
    FurstenbergJoining,
    RecurrenceCertificate,
    _local_weights,
    _orbit_walk,
    _period_scan,
    difference_subgroup,
    furstenberg_self_joining,
)
from ergolab.generators import random_system
from ergolab.hales_jewett import (
    _LETTERS,
    CombinatorialSubspace,
    CorrespondenceMeasure,
    MaxLineFreeResult,
    StationaryLawTruncation,
    all_words,
    check_alphabet,
    enumerate_lines,
    words_up_to,
)
from ergolab.measure import (
    Coupling,
    ExactProbabilitySpace,
    IndependenceReport,
    Partition,
    SimpleFunction,
    ValidationError,
    _frac,
    common_refinement,
    conditional_expectation,
    relative_independence,
    relatively_independent_product,
)
from ergolab.removal import RemovalInstance, UpSet, check_conclusion
from ergolab.systems import (
    FactorMap,
    FiniteZdSystem,
    Perm,
    SubgroupSpec,
    compose,
    cycle_decomposition,
    invariant_factor,
    is_partially_trivial,
)
from ergolab.upsets import bits_of, ground_masks, mask_of


def cyclic_system(n: int, *shifts: int) -> FiniteZdSystem:
    """Uniform Z_n with one translation generator per shift."""
    space = ExactProbabilitySpace.uniform(tuple(range(n)))
    gens = tuple(tuple((x + s) % n for x in range(n)) for s in shifts)
    return FiniteZdSystem(space, gens)


def long_period_system() -> FiniteZdSystem:
    """Uniform 100 points, one generator whose cycles, on consecutive
    points, have the prime lengths 2, 3, 5, ..., 23: its order is
    223,092,870, while every point's own period is at most 23."""
    gen = []
    for length in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        start = len(gen)
        gen.extend(start + (i + 1) % length for i in range(length))
    return FiniteZdSystem(ExactProbabilitySpace.uniform(tuple(range(100))), (tuple(gen),))


def torus_system(mod: int, *vectors: tuple[int, ...]) -> FiniteZdSystem:
    """Uniform (Z_mod)^m with one translation generator per vector."""
    m = len(vectors[0])
    points = list(iter_product(range(mod), repeat=m))
    index = {p: i for i, p in enumerate(points)}
    space = ExactProbabilitySpace.uniform(tuple(points))
    gens = []
    for v in vectors:
        gens.append(
            tuple(
                index[tuple((p[j] + v[j]) % mod for j in range(m))] for p in points
            )
        )
    return FiniteZdSystem(space, tuple(gens))


def three_direction_torus(mod: int = 5) -> FiniteZdSystem:
    """The two-torus with directions (1,0), (0,1), (1,1): pairwise independent
    invariant factors that jointly generate everything."""
    return torus_system(mod, (1, 0), (0, 1), (1, 1))


def self_joining_extension(sys: FiniteZdSystem) -> FiniteZdSystem:
    """The support of the Furstenberg self-joining of all directions, as a
    system: each support tuple is a point weighted by its mass, and
    generator ``m`` acts diagonally, as ``T_m x ... x T_m``.  The
    generators commute, so the diagonal action preserves the joining."""
    coupling = furstenberg_self_joining(sys).coupling
    space = coupling.as_space()
    index = {t: i for i, t in enumerate(space.points)}
    gens = tuple(
        tuple(index[tuple(map(g.__getitem__, t))] for t in space.points)
        for g in sys.generators
    )
    return FiniteZdSystem(space, gens)


def twice_extended_system() -> FiniteZdSystem:
    """A 152-point 3-direction system: a seeded random system on at most 10
    points, extended twice by :func:`self_joining_extension`."""
    sys_ = random_system(Random(9), max_points=10, dim=3)
    return self_joining_extension(self_joining_extension(sys_))


def brute_cesaro(sys: FiniteZdSystem, sets, n_terms: int) -> Fraction:
    """Independent oracle: the plain finite average over n = 1..n_terms."""
    total = Fraction(0)
    supp = sys.space.support()
    for n in range(1, n_terms + 1):
        perms = [sys.act(tuple(n if j == i else 0 for j in range(sys.dim)))
                 for i in range(sys.dim)]
        for x in supp:
            if all(p[x] in s for p, s in zip(perms, sets)):
                total += sys.space.weights[x]
    return total / n_terms


def old_recurrence_witness(sys: FiniteZdSystem, A) -> int | None:
    """Reference for the least return time: the loop that composed the
    generator powers and tested every support point, ``n`` by ``n``."""
    A = frozenset(A)
    supp = sys.space.support()
    current = list(sys.generators)
    n = 1
    while True:
        if any(all(p[x] in A for p in current) for x in supp):
            return n
        if all(p == tuple(range(len(sys))) for p in current):
            return None  # a full period without a return
        current = [compose(g, p) for g, p in zip(sys.generators, current)]
        n += 1


# -- the period scans as they ran over the global period --------------------------
#
# Copies of the former ``averages.furstenberg_self_joining``, ``_period_scan``
# and ``recurrence_certificates_exhaustive``, which step ``compose`` over the
# global period ``L``, and of the former ``systems.perm_order`` and
# ``perm_power``: the references for the local-period walk and the cycle
# decomposition.

def old_perm_order(p):
    seen = [False] * len(p)
    out = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        out = lcm(out, length)
    return out


def old_perm_power(p, k):
    n = len(p)
    if n == 0:
        return p
    k %= old_perm_order(p)
    out = tuple(range(n))
    for _ in range(k):
        out = compose(p, out)
    return out


def old_direction_period(sys, directions):
    return lcm(*(old_perm_order(sys.generators[i]) for i in directions))


def old_furstenberg_self_joining(sys, directions=None):
    dirs = tuple(sorted(range(sys.dim) if directions is None else directions))
    L = old_direction_period(sys, dirs)
    den, nums = sys.space.integerized()
    live = [num for num in nums if num]
    acc = {}
    current = [tuple(range(len(sys))) for _ in dirs]
    for _ in range(L):
        for t, num in zip(compress(zip(*current), nums), live):
            acc[t] = acc.get(t, 0) + num
        current = [compose(sys.generators[i], p) for i, p in zip(dirs, current)]
    share = {v: Fraction(v, L * den) for v in set(acc.values())}
    mass = {t: share[v] for t, v in acc.items()}
    return FurstenbergJoining(sys, dirs, Coupling(len(dirs), sys.space, mass), L)


def old_period_scan(sys, sets):
    n_pts = len(sys)
    L = old_direction_period(sys, range(sys.dim))
    den, nums = sys.space.integerized()
    inside = [[x in s for x in range(n_pts)] for s in sets]
    total = 0
    witness = None
    for n in range(1, L + 1):
        inside = [list(map(row.__getitem__, g)) for row, g in zip(inside, sys.generators)]
        hit = sum(compress(nums, map(all, zip(*inside))))
        if hit and witness is None:
            witness = n
        total += hit
    return Fraction(total, L * den), witness


def old_recurrence_certificates_exhaustive(sys):
    n_pts = len(sys)
    den, nums = sys.space.integerized()
    supp = sys.space.support()
    L = old_direction_period(sys, range(sys.dim))
    agg = [0] * (1 << n_pts)
    masks_by_n = []
    current = [tuple(range(n_pts)) for _ in range(sys.dim)]
    for n in range(L):
        level = []
        for x in supp:
            m = 0
            for p in current:
                m |= 1 << p[x]
            agg[m] += nums[x]
            level.append(m)
        masks_by_n.append(level)
        current = [compose(g, p) for g, p in zip(sys.generators, current)]
    for bit in range(n_pts):
        step = 1 << bit
        for m in range(1 << n_pts):
            if m & step:
                agg[m] += agg[m ^ step]
    first_hit = {}
    for n in range(1, L + 1):
        for tm in masks_by_n[n % L]:
            if tm not in first_hit:
                first_hit[tm] = n
    sentinel = L + 1
    wit = [sentinel] * (1 << n_pts)
    for tm, n in first_hit.items():
        if n < wit[tm]:
            wit[tm] = n
    for bit in range(n_pts):
        step = 1 << bit
        for m in range(1 << n_pts):
            if m & step and wit[m ^ step] < wit[m]:
                wit[m] = wit[m ^ step]
    return {
        m: RecurrenceCertificate(Fraction(agg[m], L * den), wit[m] if wit[m] <= L else None)
        for m in range(1 << n_pts)
    }


def pushforward_invariant(coupling: Coupling, point_maps) -> bool:
    """Reference for in-place invariance: build the validated pushforward
    coupling under the point bijections and compare its masses."""
    out: dict = {}
    for t, v in coupling.mass.items():
        key = tuple(point_maps[c][t[c]] for c in range(coupling.arity))
        out[key] = out.get(key, Fraction(0)) + v
    return Coupling(coupling.arity, coupling.base, out).mass == coupling.mass


def old_relative_independence(factors, subfactors, nu) -> IndependenceReport:
    """Reference for ``relative_independence``: the loop over every tuple
    of factor blocks, in lex order, comparing both sides as ``Fraction``s
    and reporting the first tuple where they differ."""
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
        entries = [(w, (x,) * k) for x, w in enumerate(nu.weights) if w > 0]
    else:
        raise TypeError("nu must be a Coupling or an ExactProbabilitySpace")

    n = len(base)
    for p in list(factors) + list(subfactors):
        if p.size != n:
            raise ValueError("partition size must match the base point count")

    supp = set(base.support())
    containing = []
    for i in range(k):
        cont = []
        for block in factors[i].blocks:
            live = [x for x in block if x in supp]
            labs = {subfactors[i].block_of(x) for x in live}
            if len(labs) > 1:
                raise ValueError(
                    f"subfactor {i} does not coarsen its factor modulo null blocks"
                )
            cont.append(labs.pop() if labs else None)
        containing.append(cont)

    evals = []
    for i in range(k):
        sub_mass = [base.measure(b) for b in subfactors[i].blocks]
        row = []
        for bi, block in enumerate(factors[i].blocks):
            c = containing[i][bi]
            if c is None or sub_mass[c] == 0:
                row.append(Fraction(0))
            else:
                row.append(base.measure(block) / sub_mass[c])
        evals.append(row)

    lhs, coarse = {}, {}
    for v, t in entries:
        fkey = tuple(factors[i].labels[t[i]] for i in range(k))
        skey = tuple(subfactors[i].labels[t[i]] for i in range(k))
        lhs[fkey] = lhs.get(fkey, Fraction(0)) + v
        coarse[skey] = coarse.get(skey, Fraction(0)) + v

    for fkey in iter_product(*(range(len(p.blocks)) for p in factors)):
        e = Fraction(1)
        for i in range(k):
            e *= evals[i][fkey[i]]
        if e == 0:
            rhs = Fraction(0)
        else:
            ckey = tuple(containing[i][fkey[i]] for i in range(k))
            rhs = coarse.get(ckey, Fraction(0)) * e
        left = lhs.get(fkey, Fraction(0))
        if left != rhs:
            blocks = tuple(factors[i].blocks[fkey[i]] for i in range(k))
            return IndependenceReport(False, (blocks, left, rhs))
    return IndependenceReport(True, None)


def naive_upset_pairs(upsets, member_partition, space, kernel=relative_independence):
    """Reference for ``upset_pair_independence``: the plain ordered-pair loop.

    The lift of a set of members is built from scratch on its first use
    (the join of ``member_partition`` over the members, one block when
    there are none) and kept for the later uses in this call.  The meet is
    the intersection of the member sets.  Yields ``(a, b, report)`` triples
    with ``a`` and ``b`` as member frozensets.  ``kernel`` stands for
    ``relative_independence``, so that a caller may reuse its reports.
    """
    lifts = {}

    def lift(members):
        if members not in lifts:
            parts = [member_partition(m) for m in sorted(members)]
            lifts[members] = (
                common_refinement(*parts) if parts else Partition.one_block(len(space))
            )
        return lifts[members]

    for a in upsets:
        for b in upsets:
            meet = lift(a.members & b.members)
            rep = kernel((lift(a.members), lift(b.members)), (meet, meet), space)
            yield frozenset(a.members), frozenset(b.members), rep


def first_dependent_naive_pair(coupling, psi, d):
    """Reference for hypothesis [iii] of a removal instance: the first
    ``(a, b, witness)`` of :func:`naive_upset_pairs` whose report fails, with
    ``a`` and ``b`` as member frozensets, or ``None``.  Each member's
    partition is its ``psi`` partition pulled back through its least
    coordinate, built anew for every use."""
    from ergolab.measure import support_pullback_partition
    from ergolab.upsets import enumerate_upsets

    def member_partition(m):
        return support_pullback_partition(coupling, psi[m], min(bits_of(m)))

    reports = {}

    def kernel(factors, subfactors, space):
        # The report is a function of the partitions' labels; d = 4 has
        # 12,996 pairs, most of them repeating a few label triples.
        key = tuple(p.labels for p in factors + subfactors)
        if key not in reports:
            reports[key] = relative_independence(factors, subfactors, space)
        return reports[key]

    pairs = naive_upset_pairs(enumerate_upsets(d), member_partition, coupling.as_space(), kernel)
    for a, b, rep in pairs:
        if not rep.holds:
            return a, b, rep.witness
    return None


def listed_weight_menu(n):
    """The weight menu of ``n`` points as the former ``removal._weight_menu``
    built it, the reference for ``removal._menu_weights``."""
    menu = [tuple(Fraction(1, n) for _ in range(n))]
    if n >= 2:
        total = n * (n + 1) // 2
        menu.append(tuple(Fraction(i + 1, total) for i in range(n)))
        menu.append(
            (Fraction(0),) + tuple(Fraction(1, n - 1) for _ in range(n - 1))
        )
    return menu


def recursive_partitions(n):
    """The former recursive ``removal._all_partitions``, the reference for
    ``removal._partition_at``: every partition of ``range(n)``, with the
    restricted growth strings of their labels in lexicographic order."""
    out = []

    def rec(i, labels, used):
        if i == n:
            out.append(Partition.from_labels(tuple(labels)))
            return
        for lab in range(used + 1):
            labels.append(lab)
            rec(i + 1, labels, max(used, lab + 1))
            labels.pop()

    rec(0, [], 0)
    return out


def bell_triangle(count):
    """The first ``count`` Bell numbers, read off the Bell triangle: each
    row starts with the last entry of the row before, and each further
    entry adds its left neighbour and the entry above that neighbour."""
    bells, row = [], [1]
    for _ in range(count):
        bells.append(row[0])
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
    return bells


def old_self_joining_psi(sys):
    """The former ``averages.self_joining_psi``, the reference for the one
    built from inverses: the invariant factor of each index set's
    difference subgroup, each acting vector's permutation built by
    ``FiniteZdSystem.act``."""
    d = sys.dim
    return {m: invariant_factor(sys, difference_subgroup(d, bits_of(m))) for m in ground_masks(d)}


def old_random_instance(rng, config, coord_upsets):
    """The former ``removal._random_instance``, which rebuilt the weight
    menu, the partition list and the list of block unions on every draw,
    and chose from each list."""
    from ergolab import removal
    from ergolab.averages import furstenberg_self_joining
    from ergolab.generators import random_system
    from ergolab.measure import relatively_independent_product

    d = config.d
    n = rng.choice(list(config.sizes))
    masks = ground_masks(d)
    family = rng.choice(list(config.families))
    if family == "selfjoin":
        sys = random_system(rng, max_points=n, dim=d)
        space = sys.space
        coupling = furstenberg_self_joining(sys).coupling
        psi = old_self_joining_psi(sys)
    else:
        space = ExactProbabilitySpace(tuple(range(n)), rng.choice(listed_weight_menu(n)))
        if family == "diagonal":
            coupling = Coupling.diagonal(space, d)
            psi_part = rng.choice(recursive_partitions(n))
            psi = {m: psi_part for m in masks}
        elif family == "product":
            coupling = Coupling.product(space, d)
            psi = {m: Partition.one_block(n) for m in masks}
        else:
            part = rng.choice(recursive_partitions(n))
            coupling = relatively_independent_product([space] * d, [part.labels] * d)
            psi = {m: part for m in masks}
    shell_families = []
    for i in range(d):
        fam = []
        for _ in range(rng.randint(1, 2)):
            ups = rng.choice(coord_upsets[i])
            unions = removal._block_unions(removal._block_join(psi, ups))
            fam.append((ups, rng.choice(unions)))
        shell_families.append(tuple(fam))
    try:
        return removal.RemovalInstance(space, coupling, psi, tuple(shell_families))
    except ValueError:
        return None


def old_random_search(config):
    """The former random mode of ``removal.search_counterexample``, which
    built and validated every draw (:func:`old_random_instance`) and ran
    ``check_hypotheses`` and ``check_conclusion`` on it.  The removal
    names are looked up at call time, so a test that replaces
    ``removal._conclusion_holds`` reaches this loop too."""
    from ergolab import removal

    removal._check_random_domain(config)
    coord_upsets = removal._coordinate_upsets(config.d)
    rng = Random(config.seed)
    tested = 0
    attempts = 0
    while tested < config.samples and attempts < 80 * config.samples:
        attempts += 1
        inst = old_random_instance(rng, config, coord_upsets)
        if inst is None:
            continue
        if not removal.check_hypotheses(inst).all_hold:
            continue
        tested += 1
        if not removal.check_conclusion(inst, verified=True):
            return inst
    if tested < config.samples:
        raise RuntimeError("sampling failed to reach the requested valid-instance count")
    return None


def old_translation_systems(space, d):
    """The former ``removal._translation_systems``: every d-tuple of
    translations of ``Z_n`` on the points, each built as a system and kept
    when the constructor accepts it, that is, when it preserves the
    weights."""
    n = len(space)
    out = []
    for phis in iter_product(range(n), repeat=d):
        gens = tuple(tuple((x + phi) % n for x in range(n)) for phi in phis)
        try:
            out.append(FiniteZdSystem(space, gens))
        except ValueError:
            continue
    return out


def shell_json(space, coupling, psi, families):
    """A removal draw's shell and targets as the canonical instance JSON,
    read without building (and so validating) a ``RemovalInstance``."""
    return serialize.removal_instance_to_json(
        SimpleNamespace(space=space, coupling=coupling, psi=psi, families=families)
    )


# -- the product couplings as they were before integer numerators -------------------
#
# Verbatim in substance: every mass is a product of Fraction weights, and the
# fiber product divides by the fiber mass as a Fraction and sums over fibers.

def fraction_product_mass(space, arity):
    """Reference for ``Coupling.product``: the mass table, in order."""
    out = {}
    for t in iter_product(space.support(), repeat=arity):
        v = Fraction(1)
        for i in t:
            v *= space.weights[i]
        out[t] = v
    return out


def fraction_fiber_product_mass(spaces, maps):
    """Reference for ``relatively_independent_product``: the mass table, in
    order, or the ``ValueError`` text the former construction raised."""
    if not spaces or len(spaces) != len(maps):
        return "need one map per space"
    first = spaces[0]
    for sp in spaces[1:]:
        if sp.points != first.points or sp.weights != first.weights:
            return "coupled spaces must be identical"
    n = len(first)
    fibers, pushes = [], []
    for m in maps:
        if len(m) != n:
            return "map length must equal the point count"
        push, fib = {}, {}
        for x in range(n):
            w = first.weights[x]
            if w > 0:
                push[m[x]] = push.get(m[x], Fraction(0)) + w
                fib.setdefault(m[x], []).append(x)
        pushes.append(push)
        fibers.append(fib)
    for push in pushes[1:]:
        if push != pushes[0]:
            return "maps push the weights to different base measures"
    mass = {}
    k = len(spaces)
    for y, ny in pushes[0].items():
        scale = ny ** (k - 1)
        for t in iter_product(*(fib[y] for fib in fibers)):
            v = Fraction(1)
            for x in t:
                v *= first.weights[x]
            mass[t] = mass.get(t, Fraction(0)) + v / scale
    return mass


def naive_pullback(law, image_words):
    """The joint law of a law truncation's coordinates at the given words:
    ``Fraction`` sums over the public weights, keyed by the configuration at
    those words."""
    idx = [law.words.index(w) for w in image_words]
    out = {}
    for cfg, v in law.weights.items():
        key = tuple(cfg[i] for i in idx)
        out[key] = out.get(key, Fraction(0)) + v
    return out


def naive_coordinate_marginal(law, w):
    """The law of a law truncation's coordinate at ``w``: the carrier-indexed
    masses, summed as ``Fraction``s."""
    i = law.words.index(w)
    out = [Fraction(0)] * len(law.carrier)
    for cfg, v in law.weights.items():
        out[cfg[i]] += v
    return tuple(out)


def all_lines_max_line_free(k, N, budget):
    """Reference for ``max_line_free``: the same include-first branch and
    bound, but testing every line of ``[k]^N`` at every node instead of only
    the lines whose largest point is being included.  Returns
    ``(size, extremal, exhaustive)``."""
    points = all_words(k, N)
    index = {w: i for i, w in enumerate(points)}
    lines = [sum(1 << index[w] for w in line) for line in enumerate_lines(k, N)]
    n_pts = len(points)
    best_size, best_mask, nodes, exhausted = 0, 0, 0, True
    stack = [(0, 0, 0)]
    while stack:
        nodes += 1
        if nodes > budget:
            exhausted = False
            break
        pos, chosen, count = stack.pop()
        if count + (n_pts - pos) <= best_size:
            continue
        if pos == n_pts:
            if count > best_size:
                best_size, best_mask = count, chosen
            continue
        with_pt = chosen | (1 << pos)
        stack.append((pos + 1, chosen, count))
        if all((line & with_pt) != line for line in lines):
            stack.append((pos + 1, with_pt, count + 1))
    extremal = tuple(points[i] for i in range(n_pts) if best_mask >> i & 1)
    return best_size, extremal, exhausted


# The line-free search as it was before the include child was entered in
# place, kept verbatim (bar the name) as the reference for its node order.
def old_max_line_free(k: int, N: int, budget: int = 5_000_000) -> MaxLineFreeResult:
    """Largest subset of ``[k]^N`` containing no combinatorial line.

    Include-first branch and bound over the line hypergraph; the first
    maximum found is the lexicographically least extremal set, and pruning
    preserves that tie-break.  Points are decided in index order and the
    chosen set is always line-free, so including a point can only complete
    a line whose largest point it is: each line is tested once per node,
    at that point only.  ``budget`` (at least 1) caps the number of search
    nodes; exceeding it returns the best set found with ``exhaustive=False``,
    which is the empty set when no leaf was reached.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    points = all_words(k, N)
    if len(points) > 4096:
        raise ValueError("over budget: point set too large for the exact search")
    index = {w: i for i, w in enumerate(points)}
    n_pts = len(points)
    completes: list[list[int]] = [[] for _ in range(n_pts)]
    for line in enumerate_lines(k, N):
        idx = [index[w] for w in line]
        completes[max(idx)].append(mask_of(idx))

    best_size = 0  # the empty set is line-free
    best_mask = 0
    nodes = 0
    exhausted = True

    # Depth-first over point decisions; a line is violated once all its
    # points are chosen.
    stack = [(0, 0, 0)]  # (next point, chosen mask, chosen count)
    while stack:
        nodes += 1
        if nodes > budget:
            exhausted = False
            break
        pos, chosen, count = stack.pop()
        if count + (n_pts - pos) <= best_size:
            continue
        if pos == n_pts:
            if count > best_size:
                best_size = count
                best_mask = chosen
            continue
        with_pt = chosen | (1 << pos)
        ok = all((line & with_pt) != line for line in completes[pos])
        # Exclude branch pushed first so the include branch is explored first.
        stack.append((pos + 1, chosen, count))
        if ok:
            stack.append((pos + 1, with_pt, count + 1))

    extremal = tuple(points[i] for i in range(n_pts) if best_mask >> i & 1)
    return MaxLineFreeResult(best_size, extremal, exhausted)


def old_subspace_forcing_check(k, L, N, max_sets=200_000):
    """The former ``subspace_forcing_check`` loop, kept as its reference:
    the missing-point count found by ``Fraction`` comparisons, and every
    qualifying set built and searched for a prefix set.  Returns
    ``(holds, counterexample)`` and raises past ``max_sets`` sets."""
    points = all_words(k, N)
    total = len(points)
    threshold = 1 - Fraction(1, k ** (2 * L))
    max_missing = 0
    while Fraction(total - (max_missing + 1), total) > threshold:
        max_missing += 1
    prefixes = all_words(k, L)
    suffixes = all_words(k, N - L)
    count = 0
    for miss in range(max_missing + 1):
        for gone in combinations(points, miss):
            count += 1
            if count > max_sets:
                raise ValueError("over budget: too many qualifying sets")
            A = set(points) - set(gone)
            if not any(all(u + w in A for u in prefixes) for w in suffixes):
                return False, frozenset(A)
    return True, None


def cofactor_det(rows):
    """Reference determinant for ``systems._lattice_index``: cofactor
    expansion along the first row, O(n!) integer operations."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def generated_subgroup(rot, gens):
    """Reference for ``GroupRotationSystem.subgroup_order``: every element of
    the subgroup the elements ``gens`` generate, by breadth-first search over
    the group."""
    zero = tuple(0 for _ in rot.orders)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in gens]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = rot.add(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def unreduced_subgroup_order(rot, gens):
    """Reference for ``GroupRotationSystem.subgroup_order``: the same lattice
    rows, with the echelon form of ``systems._lattice_index`` built without
    reducing any entry mod the common denominator ``e``."""
    gens = [tuple(g) for g in gens]
    k = len(gens)
    cols = [(o, [g[i] % o for g in gens]) for i, o in enumerate(rot.orders)]
    e = lcm(*(o // gcd(o, *v) for o, v in cols))
    rows = [[e * x // o for x in v] for o, v in cols]
    rows += ([e if j == i else 0 for j in range(k)] for i in range(k))
    index = 1
    for col in range(k):
        pivot, rest = None, []
        for row in rows:
            while pivot is not None and row[col]:
                q = pivot[col] // row[col]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]
            if pivot is None and row[col]:
                pivot = row
            else:
                rest.append(row)
        index *= abs(pivot[col])
        rows = rest
    return e**k // index


def fraction_coupling_error(arity, base, mass):
    """Reference for the ``Coupling`` constructor's mass checks, summed as
    ``Fraction``s: the error text of the first failing check, or ``None``.
    ``mass`` must already satisfy the arity, range and sign checks."""
    cleaned = {}
    for t, v in mass.items():
        v = Fraction(v)
        if v:
            cleaned[tuple(t)] = cleaned.get(tuple(t), Fraction(0)) + v
    if sum(cleaned.values(), Fraction(0)) != 1:
        return "total mass must be exactly 1"
    for c in range(arity):
        marginal = [Fraction(0)] * len(base)
        for t, v in cleaned.items():
            marginal[t[c]] += v
        if tuple(marginal) != base.weights:
            return f"coordinate {c} marginal differs from the base weights"
    return None


def fraction_identification(inst):
    """Reference for removal hypothesis [ii]: the block-by-block loop that
    sums the ``Fraction`` mass of every block's pullback mismatch.  Returns
    ``(identified, witness)``."""
    for m in ground_masks(inst.coupling.arity):
        coords = bits_of(m)
        for block in inst.psi[m].blocks:
            bset = set(block)
            for ai in range(len(coords)):
                for bi in range(ai + 1, len(coords)):
                    i, j = coords[ai], coords[bi]
                    bad = Fraction(0)
                    for t, v in inst.coupling.mass.items():
                        if (t[i] in bset) != (t[j] in bset):
                            bad += v
                    if bad != 0:
                        return False, (coords, block, (i, j), bad)
    return True, None


# -- the removal sweep as it ran before direct monotone enumeration -------------------
#
# Verbatim copies of the former ``removal._psi_maps`` (with its cap and
# graded-chain fallback), ``_monotone`` (the verdict of
# ``pair_walk_monotone``), ``_conclusion_holds`` and ``_scan_families``, the
# references for the current sweep.  The scan takes
# the conclusion predicate as ``holds(targets)`` so that tests can force a
# failure on chosen targets.

def old_psi_maps(parts, masks, cap=1000):
    """Monotone psi assignments.  All of them when the raw product is small,
    otherwise constants plus size-graded chains (documented restriction)."""
    total = len(parts) ** len(masks)
    maps = []
    if total <= cap:
        for choice in iter_product(parts, repeat=len(masks)):
            psi = dict(zip(masks, choice))
            if pair_walk_monotone(psi, masks)[0]:
                maps.append(psi)
        return maps
    for p in parts:
        maps.append({m: p for m in masks})
    sizes = sorted({m.bit_count() for m in masks})
    for chain in iter_product(parts, repeat=len(sizes)):
        by_size = dict(zip(sizes, chain))
        ok = all(
            by_size[a].is_refinement_of(by_size[b])
            for a in sizes
            for b in sizes
            if a < b
        )
        if ok:
            psi = {m: by_size[m.bit_count()] for m in masks}
            if psi not in maps:
                maps.append(psi)
    return maps


def pair_walk_monotone(psi, masks):
    """Removal hypothesis [i] as ``removal.check_hypotheses`` decided it
    before it walked supersets only: every ordered pair of index sets, in
    mask order, comparing the subset pairs.  Returns ``(monotone,
    witness)``, the witness ``None`` when it holds."""
    monotone = True
    witness = None
    for small in masks:
        for big in masks:
            if small != big and small & big == small:
                if not psi[small].is_refinement_of(psi[big]):
                    monotone = False
                    witness = (bits_of(small), bits_of(big))
                    break
        if not monotone:
            break
    return monotone, witness


def old_conclusion_holds(space, coupling, targets):
    points = frozenset(range(len(space)))
    per_coord = [points.intersection(*sets) for sets in targets]
    if any(all(t[c] in s for c, s in enumerate(per_coord)) for t in coupling.support()):
        return True
    return not any(space.weights[x] > 0 for x in points.intersection(*per_coord))


def old_scan_families(space, coupling, psi, coord_upsets, holds=None):
    """The former scan: every (up-set, target) choice per coordinate, in
    product order; ``holds(targets)`` defaults to the former predicate."""
    from ergolab import removal

    if holds is None:
        def holds(targets):
            return old_conclusion_holds(space, coupling, [(a,) for a in targets])

    shell = removal.RemovalInstance(
        space,
        coupling,
        psi,
        tuple(((opts[0], frozenset(range(len(space)))),) for opts in coord_upsets),
    )
    if not removal.check_hypotheses(shell).all_hold:
        return None
    d, n = coupling.arity, len(space)
    choice_lists = []
    for i, opts in enumerate(coord_upsets):
        per_coord = []
        for ups in opts:
            for a in removal._block_unions(block_join(shell, ups)):
                removal._check_target(d, i, ups, a, psi, n)
                per_coord.append((ups, a))
        choice_lists.append(per_coord)
    for combo in iter_product(*choice_lists):
        if not holds(tuple(a for _, a in combo)):
            return removal.RemovalInstance(space, coupling, psi, tuple((c,) for c in combo))
    return None


def old_exhaustive_search(config, holds_for=None):
    """The former exhaustive sweep, built from the copies above.
    ``holds_for(space, coupling)`` gives the scan's ``holds`` per shell."""
    from ergolab import removal

    masks = ground_masks(config.d)
    coord_upsets = removal._coordinate_upsets(config.d)
    for n in config.sizes:
        for weights in listed_weight_menu(n):
            space = ExactProbabilitySpace(tuple(range(n)), weights)
            for coupling in removal._coupling_menu(space, config.d, config.families):
                holds = None if holds_for is None else holds_for(space, coupling)
                for psi in old_psi_maps(recursive_partitions(n), masks):
                    hit = old_scan_families(space, coupling, psi, coord_upsets, holds)
                    if hit is not None:
                        return hit
    return None


# -- the scan and the subspace enumeration as they were before depth-first pruning ----
#
# Verbatim copies of the former ``removal._scan_families``, which evaluates
# every combination of the product, and of the former
# ``hales_jewett.enumerate_subspaces``, which builds every template of each
# image.  The removal names are looked up in the module at call time, so a
# test that replaces ``removal._conclusion_holds`` reaches this scan too.

def product_scan_families(space, coupling, psi, coord_upsets, memo):
    """The lexicographically first (up-set, target) combination, one per
    coordinate, whose conclusion fails, as a validated instance; ``None``
    when ``psi`` fails hypothesis [iii] or every combination passes."""
    from ergolab import removal

    if removal._first_dependent_pair(coupling, psi, memo) is not None:
        return None
    d, n = coupling.arity, len(space)
    by_points = []
    mask_lists = []
    for i, opts in enumerate(coord_upsets):
        first = {}
        for ups in opts:
            for a in removal._block_unions(removal._block_join(psi, ups)):
                if a not in first:
                    removal._check_target(d, i, ups, a, psi, n)
                    first[a] = ups
        masks = [removal._target_masks(coupling, i, a) for a in first]
        by_points.append({points: (ups, a) for (_, points), (a, ups) in zip(masks, first.items())})
        mask_lists.append(masks)
    positive = removal._positive_mask(space)
    for combo in iter_product(*mask_lists):
        if not removal._conclusion_holds(combo, positive):
            return removal.RemovalInstance(
                space,
                coupling,
                psi,
                tuple((choices[points],) for choices, (_, points) in zip(by_points, combo)),
            )
    return None


def every_template_subspaces(k, n, max_length, exact_length=None):
    """All n-dimensional subspaces (``n >= 1``) with ambient length up to
    ``max_length`` (or exactly ``exact_length``), deduplicated by image."""
    from itertools import combinations

    out = []
    seen = set()

    if n < 1:
        raise ValueError("subspace dimension must be at least 1")
    lengths = (
        [exact_length] if exact_length is not None else list(range(n, max_length + 1))
    )
    for total in lengths:
        if total < n:
            continue
        for bps in combinations(range(1, total + 1), n - 1):
            breakpoints = tuple(bps) + (total,)
            windows = []
            prev = 0
            for b in breakpoints:
                windows.append(tuple(range(prev + 1, b + 1)))
                prev = b
            wildcard_choices = []
            for win in windows:
                opts = []
                for r in range(1, len(win) + 1):
                    opts.extend(frozenset(c) for c in combinations(win, r))
                wildcard_choices.append(opts)
            for wcs in iter_product(*wildcard_choices):
                for template in all_words(k, total):
                    s = CombinatorialSubspace(k, breakpoints, tuple(wcs), template)
                    img = image(s)
                    if img not in seen:
                        seen.add(img)
                        out.append(s)
    return out


def old_subspace_maps(k, n, total):
    """Reference for ``hales_jewett._subspace_maps``: every ``n``-dimensional
    subspace map (``n >= 1``) of ambient length ``total``, every choice of
    breakpoints included, as ``(breakpoints, wildcards, template, image)``,
    with letter 1 at each wildcard position of the template, ordered by
    breakpoints, then wildcard sets, then the letters of the other positions
    in word order.

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


def old_enumerate_subspaces(k, n, max_length):
    """The maps of :func:`old_subspace_maps` over the lengths ``n`` to
    ``max_length``, each kept only if its image is new."""
    out, seen = [], set()
    for total in range(n, max_length + 1):
        for subspace in old_subspace_maps(k, n, total):
            if subspace[3] not in seen:
                seen.add(subspace[3])
                out.append(subspace)
    return out


def word_line_masks(k, N):
    """Reference for ``hales_jewett._line_masks``: for each point of
    ``[k]^N``, the set of the lines whose largest point it is, each as the
    frozenset of the indices of its other points, built from the words of
    :func:`old_line_maps` and a word-to-index dict."""
    index = {w: i for i, w in enumerate(all_words(k, N))}
    out = [set() for _ in index]
    for line in old_line_maps(k, N):
        idx = sorted(index[w] for w in line)
        out[idx[-1]].add(frozenset(idx[:-1]))
    return out


def set_family_atoms(line, coords):
    """Reference for the insensitive algebra of the line marginal ``line``
    at the 0-based coordinates ``coords``: the atoms of the family of sets
    ``A`` of base points with ``mu_line(pullback_i A delta pullback_j A) = 0``
    for every two coordinates ``i, j``, found by trying all ``2^m`` sets.
    Two points share an atom when no set of the family separates them."""
    m = len(line.base)
    pairs = tuple(combinations(coords, 2))
    good_sets = [
        bits
        for bits in range(1 << m)
        if all(line.pullback_disagreement(bits_of(bits), i, j) == 0 for i, j in pairs)
    ]
    return Partition.from_labels(
        [tuple(bits for bits in good_sets if bits >> x & 1) for x in range(m)]
    )


def old_line_to_point_implication(point, line):
    """The line report's former implication check, ``(holds, witness)``:
    every tuple of singletons of carrier points in product order, the first
    whose line event is null while their intersection has positive point
    mass."""
    for xs in iter_product(range(len(point)), repeat=line.arity):
        sets = [frozenset((x,)) for x in xs]
        if event_mass(line, sets) == 0 and point.measure(frozenset.intersection(*sets)) != 0:
            return False, tuple(sets)
    return True, None


# -- lines, products and diagonals as they were before the shared constructions ----
#
# Verbatim in substance: the former ``hales_jewett.line_maps`` loop, the
# former ``CorrespondenceMeasure`` event scans, and the former bodies of
# ``Coupling.product`` (integer numerators over ``D**arity``) and
# ``Coupling.diagonal`` (the base weights on the diagonal tuples).

def old_line_maps(k, N):
    """Reference for ``line_maps``: every ``(J, w0)``, by ``|J|``, then ``J``
    in order, then the letters ``w0`` of the other positions in word order."""
    out = []
    positions = list(range(N))
    for r in range(1, N + 1):
        for J in combinations(positions, r):
            fixed_positions = [p for p in positions if p not in J]
            for w0 in iter_product(range(1, k + 1), repeat=len(fixed_positions)):
                line = []
                for letter in range(1, k + 1):
                    word = [""] * N
                    for p in J:
                        word[p] = str(letter)
                    for p, c in zip(fixed_positions, w0):
                        word[p] = str(c)
                    line.append("".join(word))
                out.append(tuple(line))
    return out


def line_maps(k, N):
    """The lines of ``[k]^N`` in parameter order, as the words of
    ``hales_jewett._lines``: the former library ``line_maps``."""
    words = all_words(k, N)
    return [tuple(map(words.__getitem__, line)) for line in hales_jewett._lines(k, N)]


def old_point_event(cm, w):
    """Reference for ``CorrespondenceMeasure.event`` at one word: the mass
    of the configurations with a 1 at ``w``, scanned in ``Fraction``s."""
    i = cm.words.index(w)
    return sum((v for cfg, v in cm.mass.items() if cfg[i] == 1), Fraction(0))


def old_line_event(cm, line):
    """Reference for ``CorrespondenceMeasure.event`` at the words of a line:
    the mass of the configurations with a 1 at each, scanned in ``Fraction``s."""
    idx = [cm.words.index(w) for w in line]
    return sum(
        (v for cfg, v in cm.mass.items() if all(cfg[i] == 1 for i in idx)),
        Fraction(0),
    )


def old_build_correspondence(A, k, N, L, max_lines=None):
    """Reference for ``build_correspondence``: every word checked letter by
    letter into a set of strings, and each suffix's configuration read as
    ``w + v in A`` over the prefixes, with the same checks in the same order.
    The measure is a plain record of ``k``, ``length``, ``mass`` (in suffix
    order) and ``words``, which the event oracles above read."""
    if not 1 <= L < N:
        raise ValueError("need 1 <= L < N")
    A = {hales_jewett.check_word(w, k) for w in A}
    for w in A:
        if len(w) != N:
            raise ValueError("set elements must have length N")
    bound = hales_jewett.MAX_FORCING_POINTS
    if check_alphabet(k) > 1 and hales_jewett._more_points(k, N, bound):
        raise ValueError(f"point set too large for the correspondence: at most {bound} points")
    if max_lines is not None:
        hales_jewett._check_lines(k, L, max_lines)
    prefixes = all_words(k, L)
    acc = {}
    for v in all_words(k, N - L):
        cfg = tuple(1 if w + v in A else 0 for w in prefixes)
        acc[cfg] = acc.get(cfg, 0) + 1
    total = k ** (N - L)
    mass = {cfg: Fraction(c, total) for cfg, c in acc.items()}
    return SimpleNamespace(k=k, length=L, mass=mass, words=tuple(prefixes))


def old_product_coupling(space, arity):
    """Reference for ``Coupling.product``."""
    from ergolab.measure import _SharedFractions

    den, nums = space.integerized()
    scale, shared = den**arity, _SharedFractions()
    return Coupling(
        arity,
        space,
        {t: shared[prod(map(nums.__getitem__, t)), scale]
         for t in iter_product(space.support(), repeat=arity)},
    )


def old_diagonal_coupling(space, arity):
    """Reference for ``Coupling.diagonal``."""
    return Coupling(
        arity,
        space,
        {(i,) * arity: w for i, w in enumerate(space.weights) if w > 0},
    )


# -- the weight checks as they ran on Fractions before integer numerators ----------
#
# The former sign check of ``ExactProbabilitySpace`` (``w < 0`` on each
# weight) and weight-preservation check of ``FiniteZdSystem`` (tuples of
# weights compared as ``Fraction``s), with the other checks in their order.

def fraction_space_error(points, weights):
    """Reference for the ``ExactProbabilitySpace`` constructor's checks: the
    error text of the first failing one, or ``None``."""
    points, weights = tuple(points), tuple(weights)
    if len(points) != len(weights):
        return "points and weights must have equal length"
    if len(set(points)) != len(points):
        return "point labels must be distinct"
    if any(w < 0 for w in weights):
        return "weights must be nonnegative"
    if sum(weights, Fraction(0)) != 1:
        return "weights must sum to exactly 1"
    return None


def fraction_system_error(space, generators):
    """Reference for the ``FiniteZdSystem`` constructor's checks: the text
    of the first failing one, located as the constructor locates it, or
    ``None``."""
    n, weights = len(space), space.weights
    for i, g in enumerate(generators):
        if sorted(g) != list(range(n)):
            return f"$.generators[{i}]: not a permutation of the points"
        if tuple(weights[x] for x in g) != weights:
            x = next(x for x in range(n) if weights[g[x]] != weights[x])
            return f"$.generators[{i}]: weight not preserved at point {x}"
    for (i, a), (j, b) in combinations(enumerate(generators), 2):
        if compose(a, b) != compose(b, a):
            return f"$.generators: generators {i} and {j} do not commute"
    return None


# -- the located mass-table reader, as it read every document ---------------------
#
# A copy of the former ``serialize._entries``, which read every law, coupling
# and baseless coupling document entry by entry (an object with an array of
# ints and a value string already parsed was read inline), and of the
# readers that called it: the reference for the batched read.

_INT = frozenset({int})


def old_entries(obj, key, field, stored=False, wire=None):
    entries = serialize._need(obj, key)
    if not isinstance(entries, list):
        raise ValidationError([key], "expected an array")
    out = {}
    parsed = serialize._Rationals()
    prev = None
    for i, entry in enumerate(entries):
        t = entry.get(field) if type(entry) is dict else None
        if type(t) is list and _INT.issuperset(map(type, t)):
            t = tuple(t)
        else:
            try:
                t = serialize._key(entry, field, serialize._ints)
            except ValidationError as exc:
                raise exc.within(key, i)
        if stored and prev is not None and t <= prev:
            serialize._broken(wire, [key, i, field], "tuples must be sorted and distinct")
        prev = t
        raw = entry.get("value")
        v = parsed.get(raw) if type(raw) is str else None
        if v is None:
            try:
                v = serialize._key(entry, "value", parsed.read)
            except ValidationError as exc:
                raise exc.within(key, i)
        if stored and v <= 0:
            serialize._broken(wire, [key, i, "value"], "stored masses must be positive")
        out[t] = out[t] + v if t in out else v
    return out


def old_law_from_json(obj):
    """The former ``serialize.law_from_json``, for a document whose ``k``,
    ``depth`` and ``carrier`` are well formed."""
    carrier = serialize.space_from_json(obj["carrier"])
    weights = old_entries(obj, "weights", "config")
    return serialize._build(StationaryLawTruncation, obj["k"], obj["depth"], carrier, weights)


def old_coupling_from_json(obj):
    """The former ``serialize.coupling_from_json`` of a document with a
    well-formed ``arity`` and ``base``: wire rules reported after the
    constructor's check."""
    base = serialize.space_from_json(obj["base"])
    wire = []
    mass = old_entries(obj, "mass", "tuple", stored=True, wire=wire)
    coupling = serialize._build(Coupling, obj["arity"], base, mass)
    if wire:
        raise wire[0]
    return coupling


def old_baseless_coupling(obj):
    """The former check of a coupling document without a base.  The old
    reader let only ints and booleans through, on which the
    ``operator.index`` read of ``serialize._baseless_coupling`` is the
    identity up to ``True == 1``."""
    mass = old_entries(obj, "mass", "tuple", stored=True)
    return serialize._build(serialize._baseless_coupling, obj["arity"], mass)


# -- the command-line parser as it was written by hand, before its grammar was data --

def old_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Exact checks for finite probability-preserving Z^d systems",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", type=str, default=None, help="write the report to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("avg", parents=[common], help="nonconventional average")
    p.add_argument("--system", required=True)
    p.add_argument("--functions", required=True)
    p.add_argument("-N", type=int, required=True)
    p.set_defaults(func=cli._cmd_avg)

    p = sub.add_parser("fjoin", parents=[common], help="Furstenberg self-joining")
    p.add_argument("--system", required=True)
    p.add_argument("--directions", default=None, help="comma-separated generator indices")
    p.set_defaults(func=cli._cmd_fjoin)

    p = sub.add_parser("recur", parents=[common], help="recurrence certificate")
    p.add_argument("--system", required=True)
    p.add_argument("--set", required=True, help="JSON array of point indices")
    p.set_defaults(func=cli._cmd_recur)

    p = sub.add_parser("vdc", parents=[common], help="van der Corput inequality")
    p.add_argument("--seq", required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-H", type=int, required=True)
    p.set_defaults(func=cli._cmd_vdc)

    p = sub.add_parser("joint", parents=[common], help="joint distribution predicate")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cli._cmd_joint)

    p = sub.add_parser("removal", parents=[common], help="removal instance tools")
    p.add_argument("action", choices=["check", "search"])
    p.add_argument("--instance", help="instance file for 'check'")
    p.add_argument("--sizes", default="2", help="comma-separated point counts")
    p.add_argument("-d", type=int, default=3)
    p.add_argument("--random", action="store_true", help="sample instead of enumerating")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="seed for 'search --random'")
    p.set_defaults(func=cli._cmd_removal)

    p = sub.add_parser("dhj", parents=[common], help="combinatorial space tools")
    p.add_argument("action", choices=["lines", "maxfree", "force", "correspond", "stationarity"])
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-N", type=int, default=2)
    p.add_argument("-L", type=int, default=1)
    p.add_argument("--set", help="JSON file with an array of words (correspond)")
    p.add_argument("--law", help="law truncation file (stationarity)")
    p.add_argument("--budget", type=int, default=5_000_000, help="search node budget (maxfree)")
    p.add_argument("--dim-cap", dest="dim_cap", type=int, default=None,
                   help="subspace dimension cap (stationarity)")
    p.set_defaults(func=cli._cmd_dhj)

    p = sub.add_parser("rotation", parents=[common], help="group rotation membership and extension")
    p.add_argument("--rotation", required=True)
    p.add_argument("--extend", action="store_true")
    p.set_defaults(func=cli._cmd_rotation)

    p = sub.add_parser("validate", parents=[common], help="validate a JSON document")
    p.add_argument("--schema", required=True)
    p.add_argument("file")
    p.set_defaults(func=cli._cmd_validate)

    return parser


# -- library functions that only the tests call -----------------------------------

def perm_order(p: Perm) -> int:
    """lcm of the cycle lengths."""
    return lcm(*map(len, cycle_decomposition(p)[0]))


def full_orbit_partition(sys: FiniteZdSystem, subgroup: SubgroupSpec) -> Partition:
    """Orbits of the subgroup's images over every point, zero-weight ones
    too, unlike ``systems.invariant_factor``, whose orbits run inside the
    support: a partition that :func:`quotient_system` can take."""
    if any(len(v) != sys.dim for v in subgroup.vectors):
        raise ValueError("subgroup vectors must match the system dimension")
    perms = [sys.act(v) for v in subgroup.vectors]
    return Partition.from_pairs(len(sys), ((x, p[x]) for p in perms for x in range(len(sys))))


def quotient_system(
    sys: FiniteZdSystem, partition: Partition
) -> tuple[FiniteZdSystem, FactorMap]:
    """Quotient by a partition whose blocks are permuted by every generator."""
    if partition.size != len(sys):
        raise ValueError("partition must live on the system's points")
    labels = partition.labels
    gens_out = []
    for g in sys.generators:
        out = [None] * len(partition.blocks)
        for bi, block in enumerate(partition.blocks):
            images = {labels[g[x]] for x in block}
            if len(images) != 1:
                raise ValueError("generators must map blocks to blocks")
            out[bi] = images.pop()
        gens_out.append(tuple(out))
    weights = tuple(sys.space.measure(b) for b in partition.blocks)
    space = ExactProbabilitySpace(
        tuple(f"b{i}" for i in range(len(partition.blocks))), weights
    )
    target = FiniteZdSystem(space, tuple(gens_out))
    fmap = FactorMap(sys, target, tuple(labels))
    return target, fmap


def event_mass(coupling: Coupling, sets) -> Fraction:
    """Mass of the product event ``A_1 x ... x A_arity``, summed in the
    coupling's integer numerators over its common denominator."""
    if len(sets) != coupling.arity:
        raise ValueError("need one set per coordinate")
    sets = [frozenset(s) for s in sets]
    total = sum(
        num
        for t, num in zip(coupling.mass, coupling._nums)
        if all(map(frozenset.__contains__, sets, t))
    )
    return Fraction(total, coupling._den)


def marginal(coupling: Coupling, coord: int) -> tuple[Fraction, ...]:
    """The marginal at ``coord``, from the coupling's integer numerators
    over its common denominator."""
    den = coupling._den
    return tuple(Fraction(num, den) for num in coupling._marginal_nums(coord))


def pushforward(coupling: Coupling, coords) -> Coupling:
    """Marginal coupling on a subtuple of coordinates."""
    coords = tuple(coords)
    if not coords or any(not 0 <= c < coupling.arity for c in coords):
        raise ValueError("invalid coordinate selection")
    out: dict[tuple[int, ...], Fraction] = {}
    for t, v in coupling.mass.items():
        key = tuple(t[c] for c in coords)
        out[key] = out.get(key, Fraction(0)) + v
    return Coupling(len(coords), coupling.base, out)


def indicator(n: int, where) -> SimpleFunction:
    s = set(where)
    return SimpleFunction(tuple(Fraction(int(i in s)) for i in range(n)))


def constant(n: int, value) -> SimpleFunction:
    return SimpleFunction((value,) * n)


def minimal_members(u: UpSet) -> frozenset[int]:
    """The members of an up-set with no other member inside them: the
    antichain :meth:`UpSet.closure` rebuilds it from."""
    return frozenset(
        m for m in u.members if not any(o != m and o & m == o for o in u.members)
    )


def block_join(inst: RemovalInstance, upset: UpSet) -> Partition:
    """Join of the instance's ``psi`` over the up-set members."""
    from ergolab import removal

    return removal._block_join(inst.psi, upset)


def basis_subgroup(dim: int, i: int) -> SubgroupSpec:
    """The subgroup of Z^dim the ``i``-th unit vector generates."""
    return SubgroupSpec((tuple(int(j == i) for j in range(dim)),))


def embed(s: CombinatorialSubspace, v: str) -> str:
    """The image word of ``v``, letter by letter: wildcard positions take
    the matching letter of ``v``, the others copy the template."""
    out = list(s.template)
    for letter, positions in zip(v, s.wildcards):
        for p in positions:
            out[p - 1] = letter
    return "".join(out)


def image(s: CombinatorialSubspace) -> tuple[str, ...]:
    """The subspace's words, embedded one parameter word at a time: the
    oracle of :func:`hales_jewett.subspace_images`' index rule."""
    return tuple(embed(s, v) for v in all_words(s.k, len(s.breakpoints)))


def random_subgroup(rng: Random, dim: int, max_vectors: int = 1) -> SubgroupSpec:
    vectors = []
    for _ in range(rng.randint(0, max_vectors)):
        vectors.append(tuple(rng.randint(-2, 2) for _ in range(dim)))
    return SubgroupSpec(tuple(vectors))


def random_vector_sequence(
    rng: Random, dim: int = 2, length: int = 8
) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
        for _ in range(length)
    )


def project_joining(fj: FurstenbergJoining, directions) -> Coupling:
    """Coordinate pushforward onto a nonempty subset of the directions.

    Equals the directly built self-joining of the smaller direction set
    exactly: the projection identity.
    """
    dirs = tuple(sorted(directions))
    if not dirs:
        raise ValueError("direction subset must be nonempty")
    if any(i not in fj.directions for i in dirs):
        raise ValueError("not a subset of the joining's directions")
    positions = [fj.directions.index(i) for i in dirs]
    return pushforward(fj.coupling, positions)


def recurrence_certificates_exhaustive(sys: FiniteZdSystem) -> dict[int, RecurrenceCertificate]:
    """Certificates for every subset of points at once, keyed by bitmask.

    Shares one period scan across all sets via a subset-sum transform, so the
    full sweep over ``2^|X|`` sets costs ``O(2^|X| |X| + |X| max L_x)`` integer
    operations.  Agrees with ``averages.recurrence_certificate`` set by set.
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


def level_set_replacement(
    space: ExactProbabilitySpace, A, partition: Partition
) -> tuple[frozenset[int], Fraction]:
    """Replace a set by the positivity level set of its conditional
    expectation; the removed part ``A minus A'`` is always null."""
    A = frozenset(A)
    ce = conditional_expectation(
        indicator(len(space), A), partition, space
    )
    a2 = frozenset(x for x in range(len(space)) if ce.values[x] > 0)
    gap = space.measure(A - a2)
    return a2, gap


def letter_replace(e, i: int, w: str) -> str:
    """Rewrite every letter in ``e`` to ``i``; other letters are unchanged."""
    targets, rep = {str(x) for x in e}, str(i)
    return "".join(rep if ch in targets else ch for ch in w)


def iid_law(k: int, depth: int, carrier: ExactProbabilitySpace) -> StationaryLawTruncation:
    """Product law: coordinates independent with the carrier distribution."""
    cfgs = iter_product(carrier.support(), repeat=len(words_up_to(k, depth)))
    weights = {cfg: prod(map(carrier.weights.__getitem__, cfg), start=Fraction(1)) for cfg in cfgs}
    return StationaryLawTruncation(k, depth, carrier, weights)


def law_from_correspondence(cm: CorrespondenceMeasure) -> StationaryLawTruncation:
    """Promote a depth-1 correspondence measure to a law truncation on the
    0/1 carrier."""
    if cm.length != 1:
        raise ValueError("only depth-1 correspondence measures promote to laws")
    marg = [Fraction(0), Fraction(0)]
    for cfg, v in cm.mass.items():
        marg[cfg[0]] += v
    carrier = ExactProbabilitySpace((0, 1), tuple(marg))
    return StationaryLawTruncation(cm.k, 1, carrier, dict(cm.mass))


def check_density_premises(obj, delta: Fraction) -> bool:
    """Whether every point event (the coordinate taking the designated
    positive value) of a correspondence measure or a law truncation has
    mass at least ``delta``, an exact rational."""
    delta = _frac(delta)
    if isinstance(obj, CorrespondenceMeasure):
        return all(obj.event((i,)) >= delta for i in range(len(obj.words)))
    if isinstance(obj, StationaryLawTruncation):
        if 1 not in obj.carrier.points:
            raise ValueError("law carrier has no designated positive value 1")
        one = obj.carrier.points.index(1)
        return all(naive_coordinate_marginal(obj, w)[one] >= delta for w in obj.words)
    raise TypeError("expected a correspondence measure or a law truncation")


def direction_period(sys: FiniteZdSystem, directions) -> int:
    """Order of the tuple of generator permutations at the given directions:
    the global period ``L`` of a direction set."""
    return lcm(*(perm_order(sys.generators[i]) for i in directions))


def multiple_recurrence_check(sys: FiniteZdSystem, sets) -> bool:
    """Verify the implication: vanishing self-joining mass of the product set
    forces vanishing measure of the intersection.

    The mass comes from ``averages._period_scan``, without building the
    joining.  Vacuously true when the product mass is positive.
    Unconditionally true for finite systems, since the period average
    dominates ``mu(cap A_i)/L``.
    """
    if len(sets) != sys.dim:
        raise ValueError("need one set per generator")
    sets = [frozenset(s) for s in sets]
    if _period_scan(sys, sets)[0] != 0:
        return True
    inter = set.intersection(*(set(s) for s in sets)) if sets else set()
    return sys.space.measure(inter) == 0


def two_fold_joining_check(
    joining: FiniteZdSystem,
    pi1: FactorMap,
    pi2: FactorMap,
    gamma1: SubgroupSpec,
    gamma2: SubgroupSpec,
) -> IndependenceReport:
    """Exhaustively verify that a joining of two partially trivial systems is
    relatively independent over their ``gamma1 + gamma2`` invariant factors.

    This holds for every valid input, so a ``False`` outcome indicates a bug
    or a violated precondition.
    """
    for pi in (pi1, pi2):
        if pi.source is not joining and pi.source != joining:
            raise ValueError("both factor maps must start from the joining system")
    for pi, gamma in ((pi1, gamma1), (pi2, gamma2)):
        if not is_partially_trivial(pi.target, gamma):
            raise ValueError("each target must be trivial under its subgroup")
    total = gamma1 + gamma2
    factors = (pi1.fiber_partition(), pi2.fiber_partition())
    subfactors = (
        pi1.pullback(invariant_factor(pi1.target, total)),
        pi2.pullback(invariant_factor(pi2.target, total)),
    )
    return relative_independence(factors, subfactors, joining.space)


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
    prod_before = event_mass(lam, [a1, a2, frozenset({0, 1, 2})])
    prod_after = event_mass(lam, [a1 & a2, frozenset({0, 1, 2}), frozenset({0, 1, 2})])
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
                indicator(4, a), block_join(inst2, ups), spaces
            )
            out.append(
                frozenset(x for x in range(4) if ce.values[x] > 1 - delta)
            )
        replaced.append(out)
    product_null_before = event_mass(lam2, [a for ((_, a),) in inst2.families])
    f_mass = event_mass(lam2, [frozenset.intersection(*r) for r in replaced])
    report["threshold"] = {
        "delta": delta,
        "product_null_before": product_null_before == 0,
        "replaced_product_null": f_mass == 0,
    }
    return report
