"""Shared builders for the test suite."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress, product as iter_product
from math import gcd, lcm, prod
from random import Random

from ergolab import serialize
from ergolab.averages import (
    FurstenbergJoining,
    RecurrenceCertificate,
    _period_scan,
    furstenberg_self_joining,
)
from ergolab.generators import random_system
from ergolab.hales_jewett import (
    MaxLineFreeResult,
    StationaryLawTruncation,
    all_words,
    enumerate_lines,
)
from ergolab.measure import (
    Coupling,
    ExactProbabilitySpace,
    IndependenceReport,
    Partition,
    ValidationError,
    common_refinement,
    relative_independence,
)
from ergolab.systems import FiniteZdSystem, compose, perm_order
from ergolab.upsets import bits_of, ground_masks, mask_of, popcount


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


def old_random_instance(rng, config, coord_upsets):
    """The former ``removal._random_instance``, which rebuilt the weight
    menu, the partition list and the list of block unions on every draw."""
    from ergolab import removal
    from ergolab.averages import difference_subgroup, furstenberg_self_joining
    from ergolab.generators import random_system
    from ergolab.measure import relatively_independent_product
    from ergolab.systems import invariant_factor

    d = config.d
    n = rng.choice(list(config.sizes))
    masks = ground_masks(d)
    family = rng.choice(list(config.families))
    if family == "selfjoin":
        sys = random_system(rng, max_points=n, dim=d)
        space = sys.space
        coupling = furstenberg_self_joining(sys).coupling
        psi = {
            m: invariant_factor(sys, difference_subgroup(sys.dim, bits_of(m)))
            for m in masks
        }
    else:
        space = ExactProbabilitySpace(tuple(range(n)), rng.choice(removal._weight_menu(n)))
        if family == "diagonal":
            coupling = Coupling.diagonal(space, d)
            psi_part = rng.choice(removal._all_partitions(n))
            psi = {m: psi_part for m in masks}
        elif family == "product":
            coupling = Coupling.product(space, d)
            psi = {m: Partition.one_block(n) for m in masks}
        else:
            part = rng.choice(removal._all_partitions(n))
            coupling = relatively_independent_product([space] * d, [part.labels] * d)
            psi = {m: part for m in masks}
    shell_families = []
    for i in range(d):
        fam = []
        for _ in range(rng.randint(1, 2)):
            ups = rng.choice(coord_upsets[i])
            unions = removal._block_unions(removal._block_join(psi, ups, len(space)))
            fam.append((ups, rng.choice(unions)))
        shell_families.append(tuple(fam))
    try:
        return removal.RemovalInstance(space, coupling, psi, tuple(shell_families))
    except ValueError:
        return None


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
    """Reference for ``StationaryLawTruncation.pullback``: ``Fraction`` sums
    over the public weights, keyed by the configuration at the given words."""
    idx = [law.words.index(w) for w in image_words]
    out = {}
    for cfg, v in law.weights.items():
        key = tuple(cfg[i] for i in idx)
        out[key] = out.get(key, Fraction(0)) + v
    return out


def naive_coordinate_marginal(law, w):
    """Reference for ``coordinate_marginal``: the carrier-indexed masses of
    the coordinate at ``w``, summed as ``Fraction``s."""
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
    for m in ground_masks(inst.d):
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
# graded-chain fallback), ``_monotone``, ``_conclusion_holds`` and
# ``_scan_families``, the references for the current sweep.  The scan takes
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
            if old_monotone(psi, masks):
                maps.append(psi)
        return maps
    for p in parts:
        maps.append({m: p for m in masks})
    sizes = sorted({popcount(m) for m in masks})
    for chain in iter_product(parts, repeat=len(sizes)):
        by_size = dict(zip(sizes, chain))
        ok = all(
            by_size[a].is_refinement_of(by_size[b])
            for a in sizes
            for b in sizes
            if a < b
        )
        if ok:
            psi = {m: by_size[popcount(m)] for m in masks}
            if psi not in maps:
                maps.append(psi)
    return maps


def old_monotone(psi, masks):
    for small in masks:
        for big in masks:
            if small != big and small & big == small:
                if not psi[small].is_refinement_of(psi[big]):
                    return False
    return True


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
            for a in removal._block_unions(shell.block_join(ups)):
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
        for weights in removal._weight_menu(n):
            space = ExactProbabilitySpace(tuple(range(n)), weights)
            for _, coupling in removal._coupling_menu(space, config.d, config.families):
                holds = None if holds_for is None else holds_for(space, coupling)
                for psi in old_psi_maps(removal._all_partitions(n), masks):
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
            for a in removal._block_unions(removal._block_join(psi, ups, n)):
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

    from ergolab.hales_jewett import CombinatorialSubspace

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
                    img = s.image()
                    if img not in seen:
                        seen.add(img)
                        out.append(s)
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
        if line.event_mass(sets) == 0 and point.measure(frozenset.intersection(*sets)) != 0:
            return False, tuple(sets)
    return True, None


# -- lines, products and diagonals as they were before the shared constructions ----
#
# Verbatim in substance: the former ``hales_jewett.line_maps`` loop, and the
# former bodies of ``Coupling.product`` (integer numerators over ``D**arity``)
# and ``Coupling.diagonal`` (the base weights on the diagonal tuples).

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


# -- library functions that only the tests call -----------------------------------

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
