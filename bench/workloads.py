"""The three seeded workloads: job lists built from the workload seed.

A job is one verdict a user would ask for.  Jobs with a CLI command run
through ``ergolab.cli.main(argv)``; the structure reports, which have no
command, call the library.  Every job carries the exit code it must return
and an oracle from :mod:`oracles`.  Builders run during set-up: they write
the JSON inputs into ``workdir`` and may use ergolab's generators and
serializers there, since set-up is timed separately and never traced.

Each builder keeps the mix of job kinds fixed and lets the seed choose only
the content, so that seeds differ in inputs but not in the shape of work.
See README.md for why each workload exists and which layers it loads.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import oracles


@dataclass
class Job:
    """One verdict.  ``argv`` runs through the CLI; otherwise ``call`` runs a
    library routine and returns a canonical text summary of its verdict."""

    name: str
    argv: list[str] | None = None
    call: Callable[[], str] | None = None
    code: int | None = 0
    oracle: Callable[[str], str | None] = field(default=lambda out: None)


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _weights(rng: random.Random, n: int) -> list[Fraction]:
    nums = [rng.randint(1, 4) for _ in range(n)]
    return [Fraction(v, sum(nums)) for v in nums]


# -- removal-search ----------------------------------------------------------------

REMOVAL_RANDOM_JOBS = 110
REMOVAL_SAMPLES = 4


def removal_search(lib: SimpleNamespace, rng: random.Random, workdir: str) -> list[Job]:
    """The exhaustive size-2 sweep plus seeded random searches at d = 3.

    d = 4 is left out: every d = 4 hypothesis check raises ``KeyError`` in
    ``check_hypotheses`` at this commit, so there is nothing to time.
    """
    jobs = [
        Job(
            "removal-exhaustive",
            ["removal", "search", "--sizes", "2", "-d", "3"],
            code=0,
            oracle=oracles.removal_clean,
        )
    ]
    for i in range(REMOVAL_RANDOM_JOBS):
        seed = rng.randrange(2**31)
        jobs.append(
            Job(
                f"removal-random-{i}",
                ["removal", "search", "--sizes", "2,3,4", "-d", "3", "--random",
                 "--samples", str(REMOVAL_SAMPLES), "--seed", str(seed)],
                code=2,
                oracle=oracles.removal_clean,
            )
        )
    return jobs


# -- joining-lab -------------------------------------------------------------------

JOINING_SYSTEMS = 36  # half with 2 directions, half with 3
JOINING_POINTS = (10, 12)
JOINING_MAX_PERIOD = 12
# Four recurrence jobs per system put the median job inside the dense
# cluster of cheap verdicts (validate, recur, fjoin) instead of at its top
# edge, where the seed moved it by up to 17%.
RECUR_SETS = 4
AVG_N = 300
VDC_TERMS, VDC_N, VDC_H = 40, 20, 12
# Z_3 with four directions: the one d = 4 structure report (12,996 up-set pairs).
CYCLIC_SHIFTS = (1, 2, 0, 1)


def _structure_job(name: str, averages, system) -> Job:
    def call() -> str:
        rep = averages.self_joining_structure_report(system)
        pairs = [[sorted(a), sorted(b), r.holds] for a, b, r in rep.oblique_pairs]
        return json.dumps({"coordinate": rep.coordinate_holds, "pairs": pairs}, sort_keys=True)

    return Job(name, call=call, code=None, oracle=oracles.structure_report)


def _random_system(lib: SimpleNamespace, rng: random.Random, dim: int):
    """A random system of 10 to 12 points whose generator tuple has period at
    most 12.  Other draws are drawn again, so that seeds change the systems
    but not much the cost of their jobs, which grows with size and period."""
    low, high = JOINING_POINTS
    while True:
        system = lib.generators.random_system(rng, max_points=high, dim=dim)
        if len(system) >= low and oracles.period(system.generators) <= JOINING_MAX_PERIOD:
            return system


def joining_lab(lib: SimpleNamespace, rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for i in range(JOINING_SYSTEMS):
        dim = 2 + i % 2
        system = _random_system(lib, rng, dim)
        doc = lib.serialize.system_to_json(system)
        sys_path = _write(workdir, f"system{i}.json", doc)
        asets = [
            sorted(lib.generators.random_nonnull_subset(rng, system.space))
            for _ in range(RECUR_SETS)
        ]
        funcs = [[str(rng.randint(0, 1)) for _ in range(len(system))] for _ in range(dim)]
        fn_path = _write(workdir, f"functions{i}.json", funcs)
        seq = {
            "entries": [
                [f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}" for _ in range(2)]
                for _ in range(VDC_TERMS)
            ]
        }
        seq_path = _write(workdir, f"sequence{i}.json", seq)
        jobs += [
            Job(f"fjoin-{i}", ["fjoin", "--system", sys_path], oracle=oracles.self_joining),
            *(
                Job(
                    f"recur-{i}-{j}",
                    ["recur", "--system", sys_path, "--set", json.dumps(aset)],
                    oracle=lambda out, doc=doc, aset=aset: oracles.recurrence(doc, aset, out),
                )
                for j, aset in enumerate(asets)
            ),
            Job(
                f"avg-{i}",
                ["avg", "--system", sys_path, "--functions", fn_path, "-N", str(AVG_N)],
                oracle=lambda out, doc=doc, funcs=funcs: oracles.average(doc, funcs, AVG_N, out),
            ),
            Job(
                f"vdc-{i}",
                ["vdc", "--seq", seq_path, "-N", str(VDC_N), "-H", str(VDC_H)],
                oracle=lambda out, seq=seq: oracles.van_der_corput(seq, VDC_N, VDC_H, out),
            ),
            Job(f"validate-{i}", ["validate", "--schema", "system", sys_path], oracle=oracles.validated),
        ]
        if dim == 3:
            jobs.append(_structure_job(f"structure-{i}", lib.averages, system))
    n = 3
    space = lib.measure.ExactProbabilitySpace.uniform(tuple(range(n)))
    gens = tuple(tuple((x + s) % n for x in range(n)) for s in CYCLIC_SHIFTS)
    jobs.append(_structure_job("structure-z3-d4", lib.averages, lib.systems.FiniteZdSystem(space, gens)))
    return jobs


# -- dhj-search --------------------------------------------------------------------

MAXFREE_EXHAUSTIVE = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3))
MAXFREE_BUDGETED = ((2, 6, 20_000), (3, 4, 20_000))
FORCING = ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3))  # (k, L, N)
LAW_K, LAW_DEPTH, DIM_CAP = 2, 3, 2
CONSTANT_LAWS, MIXTURE_LAWS, BROKEN_LAWS = 5, 5, 4
CORRESPOND_CUBE, CORRESPOND_SQUARE = 30, 60  # line-free sets of [2]^3 and [3]^2


def _nonstationary_law(rng: random.Random) -> dict:
    """Two configurations, all-0 and all-1, with one later coordinate of the
    all-0 one flipped: the marginal there is no longer the carrier."""
    n_words = sum(LAW_K**m for m in range(1, LAW_DEPTH + 1))
    p = Fraction(rng.randint(1, 4), 5)
    low = [0] * n_words
    low[rng.randrange(1, n_words)] = 1
    return {
        "k": LAW_K,
        "depth": LAW_DEPTH,
        "carrier": {"points": [0, 1], "weights": [str(p), str(1 - p)]},
        "weights": [
            {"config": low, "value": str(p)},
            {"config": [1] * n_words, "value": str(1 - p)},
        ],
    }


def _iid_law(rng: random.Random) -> dict:
    """The product law on a two-point carrier, written directly: 2^14
    configurations at depth 3, so the library's constructor stays out of
    set-up.  The weights are fifths: the job's cost grows with the size of
    the weights' denominators, and this job dominates the workload's time."""
    p = Fraction(rng.randint(1, 4), 5)
    q = 1 - p
    n_words = sum(LAW_K**m for m in range(1, LAW_DEPTH + 1))
    mass = [str(p ** (n_words - ones) * q**ones) for ones in range(n_words + 1)]
    return {
        "k": LAW_K,
        "depth": LAW_DEPTH,
        "carrier": {"points": [0, 1], "weights": [str(p), str(q)]},
        "weights": [
            {"config": list(cfg), "value": mass[sum(cfg)]}
            for cfg in itertools.product((0, 1), repeat=n_words)
        ],
    }


def dhj_search(lib: SimpleNamespace, rng: random.Random, workdir: str) -> list[Job]:
    hj, ser = lib.hales_jewett, lib.serialize
    space = lib.measure.ExactProbabilitySpace
    jobs = []
    for k, n in MAXFREE_EXHAUSTIVE:
        jobs.append(Job(
            f"maxfree-{k}-{n}",
            ["dhj", "maxfree", "-k", str(k), "-N", str(n)],
            oracle=lambda out, k=k, n=n: oracles.max_line_free(k, n, True, out),
        ))
    for k, n, budget in MAXFREE_BUDGETED:
        jobs.append(Job(
            f"maxfree-{k}-{n}-budget",
            ["dhj", "maxfree", "-k", str(k), "-N", str(n), "--budget", str(budget)],
            code=2,
            oracle=lambda out, k=k, n=n: oracles.max_line_free(k, n, False, out),
        ))
    for k, L, n in FORCING:
        jobs.append(Job(
            f"force-{k}-{L}-{n}",
            ["dhj", "force", "-k", str(k), "-L", str(L), "-N", str(n)],
            oracle=oracles.forcing,
        ))

    def carrier(size: int):
        return space(tuple(range(size)), tuple(_weights(rng, size)))

    laws = [
        (f"constant{i}", hj.constant_law(LAW_K, LAW_DEPTH, carrier(2 + i % 2)))
        for i in range(CONSTANT_LAWS)
    ]
    for i in range(MIXTURE_LAWS):
        parts = [hj.constant_law(LAW_K, LAW_DEPTH, carrier(3)) for _ in range(2)]
        q = Fraction(rng.randint(1, 4), 5)
        laws.append((f"mixture{i}", hj.mixture_law(parts, [q, 1 - q])))
    docs = [("iid", _iid_law(rng), True)]
    docs += [(name, ser.law_to_json(law), True) for name, law in laws]
    docs += [(f"broken{i}", _nonstationary_law(rng), False) for i in range(BROKEN_LAWS)]
    for name, doc, stationary in docs:
        path = _write(workdir, f"law-{name}.json", doc)
        jobs.append(Job(
            f"stationarity-{name}",
            ["dhj", "stationarity", "--law", path, "--dim-cap", str(DIM_CAP)],
            code=0 if stationary else 1,
            oracle=lambda out, doc=doc, st=stationary: oracles.stationarity(doc, st, out),
        ))

    cube, square = oracles.line_free_sets(2, 3), oracles.line_free_sets(3, 2)
    picks = [(2, 3, rng.choice(cube), rng.randint(1, 2)) for _ in range(CORRESPOND_CUBE)]
    picks += [(3, 2, A, 1) for A in rng.sample(square, CORRESPOND_SQUARE)]
    for i, (k, n, A, L) in enumerate(picks):
        path = _write(workdir, f"set{i}.json", A)
        jobs.append(Job(
            f"correspond-{k}-{n}-{i}",
            ["dhj", "correspond", "--set", path, "-k", str(k), "-N", str(n), "-L", str(L)],
            oracle=lambda out, A=A, k=k, n=n, L=L: oracles.correspondence(A, k, n, L, out),
        ))
    return jobs


WORKLOADS: dict[str, Callable[[SimpleNamespace, random.Random, str], list[Job]]] = {
    "removal-search": removal_search,
    "joining-lab": joining_lab,
    "dhj-search": dhj_search,
}
