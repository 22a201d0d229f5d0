"""Independent oracles for the benchmark's verdicts.

Each oracle recomputes what a verdict claims by brute force over the raw
JSON inputs, or checks it against a closed form (Sperner's theorem, the
published DHJ values).  None of them calls ergolab, so a fast path that
goes wrong in the library cannot also fool its oracle.  An oracle returns
``None`` when the verdict is right and a short reason otherwise.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb, lcm


def words(k: int, length: int) -> list[str]:
    return ["".join(t) for t in product("123456789"[:k], repeat=length)]


def lines(k: int, n: int) -> list[frozenset[str]]:
    """Every combinatorial line of [k]^n: a template over letters and ``*``
    with at least one ``*``, the ``*`` positions taking each letter in turn."""
    letters = "123456789"[:k]
    out = []
    for template in product("*" + letters, repeat=n):
        if "*" in template:
            t = "".join(template)
            out.append(frozenset(t.replace("*", a) for a in letters))
    return out


def line_free(points: set[str], k: int, n: int) -> bool:
    return not any(line <= points for line in lines(k, n))


def line_free_sets(k: int, n: int) -> list[list[str]]:
    """All line-free subsets of [k]^n, each sorted, in bitmask order."""
    pts = words(k, n)
    masks = [sum(1 << pts.index(w) for w in line) for line in lines(k, n)]
    return [
        [pts[i] for i in range(len(pts)) if bits >> i & 1]
        for bits in range(1 << len(pts))
        if not any(bits & m == m for m in masks)
    ]


def known_max_line_free(k: int, n: int) -> int | None:
    """Largest line-free subset of [k]^n where a closed form or a published
    value is known: Sperner for k = 2, k - 1 for n = 1, k(k - 1) for n = 2,
    and c_3 = 18, c_4 = 52 for k = 3 (Polymath, arXiv:1002.0374)."""
    if k == 2:
        return comb(n, n // 2)
    if n == 1:
        return k - 1
    if n == 2:
        return k * (k - 1)
    return {(3, 3): 18, (3, 4): 52}.get((k, n))


def _report(out: str) -> dict:
    return json.loads(out)["results"]


# -- systems ------------------------------------------------------------------

def _system(doc: dict) -> tuple[list[Fraction], list[list[int]]]:
    return [Fraction(w) for w in doc["space"]["weights"]], doc["generators"]


def period(gens: list[list[int]]) -> int:
    """Order of the generator tuple: lcm of all cycle lengths."""
    out = 1
    for g in gens:
        for x in range(len(g)):
            y, length = g[x], 1
            while y != x:
                y, length = g[y], length + 1
            out = lcm(out, length)
    return out


def _orbits(gens: list[list[int]], steps: int):
    """Yield, for n = 1..steps, each point's image under T^(n e_i) for every i."""
    pos = [list(g) for g in gens]
    for _ in range(steps):
        yield pos
        pos = [[g[p] for p in row] for g, row in zip(gens, pos)]


def recurrence(doc: dict, aset: list[int], out: str) -> str | None:
    """Limit: period average of mu(x : T^(n e_i) x in A for all i); witness:
    least such n with a supported x."""
    weights, gens = _system(doc)
    A = set(aset)
    L = period(gens)
    total, witness = Fraction(0), None
    for n, pos in enumerate(_orbits(gens, L), start=1):
        hit = [x for x in range(len(weights)) if all(row[x] in A for row in pos)]
        total += sum((weights[x] for x in hit), Fraction(0))
        if witness is None and any(weights[x] > 0 for x in hit):
            witness = n
    res = _report(out)
    if Fraction(res["limit"]) != total / L:
        return f"limit {res['limit']} != brute-force {total / L}"
    if res["witness_n"] != witness:
        return f"witness {res['witness_n']} != brute-force {witness}"
    return None


def average(doc: dict, functions: list[list[str]], N: int, out: str) -> str | None:
    """For 0/1 functions the integral of the average is the plain average over
    n = 1..N of mu(x : f_i(T^(n e_i) x) = 1 for all i)."""
    weights, gens = _system(doc)
    ones = [{x for x, v in enumerate(f) if Fraction(v) == 1} for f in functions]
    total = Fraction(0)
    for pos in _orbits(gens, N):
        for x, w in enumerate(weights):
            if w and all(row[x] in s for row, s in zip(pos, ones)):
                total += w
    res = _report(out)
    if Fraction(res["integral"]) != total / N:
        return f"integral {res['integral']} != brute-force {total / N}"
    return None


def self_joining(out: str) -> str | None:
    if _report(out)["offdiagonal_invariant"] is not True:
        return "self-joining not off-diagonal invariant"
    return None


def van_der_corput(seq: dict, N: int, H: int, out: str) -> str | None:
    """``holds`` is true, and the left side is the squared norm of the plain
    double average."""
    rows = [[Fraction(v) for v in row] for row in seq["entries"]]
    avg = [
        sum((rows[n + h + 1][i] for n in range(N) for h in range(H)), Fraction(0)) / (N * H)
        for i in range(len(rows[0]))
    ]
    res = _report(out)
    if res["holds"] is not True:
        return "van der Corput inequality reported violated"
    if Fraction(res["lhs"]) != sum(a * a for a in avg):
        return "van der Corput left side differs from the brute-force value"
    return None


def validated(out: str) -> str | None:
    res = _report(out)
    if res["ok"] is not True or res["diagnostics"]:
        return f"valid document rejected: {res['diagnostics']}"
    return None


def structure_report(out: str) -> str | None:
    """Oblique pairs: the verdict is symmetric in (a, b), and a nested pair
    (one up-set inside the other) always holds."""
    pairs = {(tuple(a), tuple(b)): holds for a, b, holds in json.loads(out)["pairs"]}
    for (a, b), holds in pairs.items():
        if pairs.get((b, a)) != holds:
            return f"pair {a} {b} is not symmetric"
        if (set(a) <= set(b) or set(b) <= set(a)) and not holds:
            return f"nested pair {a} {b} reported violated"
    return None


# -- removal ------------------------------------------------------------------

def removal_clean(out: str) -> str | None:
    if _report(out)["counterexample"] is not None:
        return "removal search reported a counterexample"
    return None


# -- Hales-Jewett ---------------------------------------------------------------

def max_line_free(k: int, n: int, exhaustive: bool, out: str) -> str | None:
    """Exhaustive runs hit the known maximum; budgeted runs stay within it.
    The set is line-free either way."""
    res = _report(out)
    pts = set(res["extremal"])
    if len(pts) != res["size"] or not pts <= set(words(k, n)):
        return "extremal set does not match its size or alphabet"
    if not line_free(pts, k, n):
        return "extremal set contains a line"
    best = known_max_line_free(k, n)
    if res["exhaustive"] is not exhaustive:
        return f"exhaustive flag {res['exhaustive']}, expected {exhaustive}"
    if exhaustive and res["size"] != best:
        return f"size {res['size']} != known maximum {best}"
    if not exhaustive and res["size"] > best:
        return f"size {res['size']} exceeds known maximum {best}"
    return None


def forcing(out: str) -> str | None:
    res = _report(out)
    if res["holds"] is not True or res["counterexample"] is not None:
        return "density forcing reported violated"
    return None


def correspondence(A: list[str], k: int, n: int, L: int, out: str) -> str | None:
    """Point events are slice densities and, A being line-free, every line
    event is 0 (acceptance criterion 10)."""
    res = _report(out)
    tails = words(k, n - L)
    S = set(A)
    for w in words(k, L):
        density = Fraction(sum(1 for v in tails if w + v in S), len(tails))
        if Fraction(res["point_events"][w]) != density:
            return f"point event at {w} != slice density {density}"
    if len(res["line_events"]) != len(lines(k, L)):
        return "wrong number of line events"
    if any(Fraction(v) != 0 for v in res["line_events"].values()):
        return "nonzero line event for a line-free set"
    return None


def _pullback(law: dict, image: list[str]) -> dict:
    order = [w for m in range(1, law["depth"] + 1) for w in words(law["k"], m)]
    idx = [order.index(w) for w in image]
    out: dict = {}
    for entry in law["weights"]:
        key = tuple(entry["config"][i] for i in idx)
        out[key] = out.get(key, Fraction(0)) + Fraction(entry["value"])
    return {k: v for k, v in out.items() if v}


def stationarity(law: dict, stationary: bool, out: str) -> str | None:
    """A stationary law holds and its point marginal is the carrier; a
    non-stationary one carries a witness whose two pullbacks really differ."""
    res = _report(out)
    if stationary:
        if res["holds"] is not True:
            return "stationary law reported violated"
        point = [Fraction(w) for w in res["point_marginal"]["weights"]]
        if point != [Fraction(w) for w in law["carrier"]["weights"]]:
            return "point marginal differs from the carrier"
        return None
    wit = res.get("witness")
    if res["holds"] is not False or wit is None:
        return "non-stationary law reported stationary"
    if _pullback(law, wit["first"]) == _pullback(law, wit["second"]):
        return "witness pullbacks agree"
    return None
