"""ergolab benchmark: one seeded workload, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload removal-search --seed 1 --seconds 30 --trace 0

Set-up imports ``ergolab`` from ``./src`` and builds the workload's job list
and JSON inputs from the seed; it runs ``SETUP_REPEATS`` times.  The timed
phase runs the whole job list back to back, one job after the previous
verdict returns, in passes until the next pass would end after ``--seconds``
(at least one pass).  Every verdict is checked by an independent oracle
after the passes, outside the timed window.  End-to-end times are rescaled
to a nominal host speed by :mod:`host`; see README.md for why.

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones give the per-layer metrics, and each job's stdout must be byte-identical
to the untraced pass.  The last stdout line is the result object; the line
before it records the run's details and provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from host import SpeedSampler  # noqa: E402
from spans import SPAN_NAMES, SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def layer_units(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    return "s"


# -- set-up ---------------------------------------------------------------------

def import_ergolab(src: str) -> SimpleNamespace:
    """Import every layer afresh from ``src``, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "ergolab" or m.startswith("ergolab.")]:
        del sys.modules[name]
    package = importlib.import_module("ergolab")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "ergolab"):
        raise ImportError(f"ergolab imported from {package.__file__}, not from {src}")
    layers = list(SPANS) + ["generators"]
    return SimpleNamespace(**{m: importlib.import_module(f"ergolab.{m}") for m in layers})


def set_up(workload: str, seed: int, src: str, workdir: str) -> tuple[SimpleNamespace, list[Job]]:
    os.makedirs(workdir)
    lib = import_ergolab(src)
    return lib, WORKLOADS[workload](lib, random.Random(seed), workdir)


# -- the timed phase --------------------------------------------------------------

class Outcome(NamedTuple):
    start: float
    end: float
    code: int | None
    out: str | None
    err: str | None


def run_job(cli, job: Job) -> Outcome:
    """Run one job.  ``out`` is its stdout, or a library job's summary.
    ``cli.main`` is looked up at call time, so a tracer's wrapper is used."""
    code = out = err = None
    start = time.perf_counter()
    try:
        if job.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(job.argv)
            out = buf.getvalue()
        else:
            out = job.call()
    except Exception as exc:  # a crashing verdict is a failed job; the run goes on
        err = f"{type(exc).__name__}: {exc}"
    return Outcome(start, time.perf_counter(), code, out, err)


def run_pass(cli, jobs: list[Job]) -> list[Outcome]:
    return [run_job(cli, job) for job in jobs]


def check(job: Job, outcome: Outcome, cache: dict) -> str | None:
    """Why a job's outcome is wrong, or ``None``: an exception, an unexpected
    exit code, or its oracle's objection.  Oracles run once per distinct
    output."""
    if outcome.err is not None:
        return outcome.err
    if outcome.code != job.code:
        return f"exit code {outcome.code}, expected {job.code}"
    key = (id(job), outcome.out)
    if key not in cache:
        try:
            cache[key] = job.oracle(outcome.out)
        except Exception as exc:  # a malformed report fails its job
            cache[key] = f"oracle raised {type(exc).__name__}: {exc}"
    return cache[key]


def failures(jobs: list[Job], passes: list[list[Outcome]]) -> list[str]:
    """One reason per failed job execution.  Every pass must also print what
    the first pass printed, byte for byte."""
    cache: dict = {}
    out = []
    for p, outcomes in enumerate(passes):
        for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
            reason = check(job, outcome, cache)
            if reason is None and outcome.out != passes[0][i].out:
                reason = "stdout differs from the first pass"
            if reason is not None:
                out.append(f"pass {p} {job.name}: {reason}")
    return out


def job_times(passes: list[list[Outcome]], sampler: SpeedSampler) -> list[float]:
    """Each job's median scaled time across passes."""
    return [
        statistics.median(sampler.scaled(p[i].start, p[i].end) for p in passes)
        for i in range(len(passes[0]))
    ]


# -- provenance -------------------------------------------------------------------

def git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "ergolab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def provenance(root: str, src: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }


# -- main -------------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, root: str, src: str, workdir: str) -> tuple[dict, dict]:
    sampler = SpeedSampler()
    setups = []
    with sampler:
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            lib, jobs = set_up(args.workload, args.seed, src, os.path.join(workdir, f"setup{i}"))
            setups.append((start, time.perf_counter()))

    # Untraced passes feed the end-to-end metrics, traced ones the per-layer
    # metrics.  The speed sampler runs in both, so that the tracing overhead
    # is a difference of scaled times.
    tracer = Tracer()
    modes = (False, True) if args.trace else (False,)
    passes: dict[bool, list[list[Outcome]]] = {False: [], True: []}
    layers: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = modes[sum(map(len, passes.values())) % len(modes)]
        start = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install(vars(lib))
        try:
            with sampler:
                passes[traced].append(run_pass(lib.cli, jobs))
        finally:
            tracer.uninstall()
        if traced:
            layers.append(tracer.metrics())
        wall = time.perf_counter() - start
        done = all(passes[m] for m in modes)
        if done and time.perf_counter() - started + wall > args.seconds:
            break

    every_pass = passes[False] + passes[True]
    failed = failures(jobs, every_pass)
    attempted = sum(len(p) for p in every_pass)
    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in layers) if name.endswith(".self_s")
            else layers[0][name]
            for name in layers[0]
        }
        metrics["trace.overhead_s"] = (
            sum(job_times(passes[True], sampler)) - sum(job_times(passes[False], sampler))
        )
        units = {name: layer_units(name) for name in metrics}
        with open(os.path.join(root, ".bench_out", f"trace-{args.workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "names": list(SPAN_NAMES),
                       "spans": tracer.spans}, fh)
    else:
        per_job = [t * 1000 for t in job_times(passes[False], sampler)]
        metrics = {
            "setup_s": statistics.median(sampler.scaled(s, e) for s, e in setups),
            "wall_s": sum(per_job) / 1000,
            "job_p50_ms": statistics.median(per_job),
            "job_p90_ms": statistics.quantiles(per_job, n=10)[8],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(jobs),
        "passes": len(every_pass),
        "failed_frac": len(failed) / attempted,
        "failures": failed[:10],
        "probe_ms": {"best": sampler.best() * 1000,
                     "median": statistics.median(sampler.durations) * 1000},
        "provenance": provenance(root, src),
    }
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ergolab", "cli.py")):
        print(f"bench: no ergolab sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    workdir = os.path.join(root, ".bench_out", f"work-{os.getpid()}")
    try:
        details, result = measure(args, root, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
