"""Self-tests of the benchmark harness.

Run from the repository root with either of

    python3 -m unittest discover -s bench
    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import oracles  # noqa: E402
from host import NOMINAL_PROBE_S, SpeedSampler  # noqa: E402
import run  # noqa: E402
from spans import RATIOS, SPAN_NAMES, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeCli:
    """Prints a canned report and returns a canned exit code."""

    def __init__(self, report: dict, code: int) -> None:
        self.report, self.code = report, code

    def main(self, argv):
        print(json.dumps({"results": self.report}))
        return self.code


def crash(argv):
    raise KeyError("planted")


class FailureCounting(unittest.TestCase):
    def test_planted_wrong_verdict_exit_code_and_crash_fail(self):
        job = Job("removal", ["removal"], code=2, oracle=oracles.removal_clean)
        right = run.run_pass(FakeCli({"counterexample": None}, 2), [job])
        wrong_verdict = run.run_pass(FakeCli({"counterexample": {"d": 3}}, 2), [job])
        wrong_code = run.run_pass(FakeCli({"counterexample": None}, 0), [job])
        crashed = run.run_pass(type("Crash", (), {"main": staticmethod(crash)}), [job])
        self.assertEqual(run.failures([job], [right]), [])
        for outcomes in (wrong_verdict, wrong_code, crashed):
            self.assertEqual(len(run.failures([job], [outcomes])), 1)

    def test_stdout_must_match_first_pass(self):
        job = Job("maxfree", ["maxfree"], code=0, oracle=lambda out: None)
        first = run.run_pass(FakeCli({"size": 2}, 0), [job])
        other = run.run_pass(FakeCli({"size": 3}, 0), [job])
        self.assertEqual(len(run.failures([job], [first, other])), 1)

    def test_planted_wrong_exit_code_through_the_real_cli(self):
        lib = run.import_ergolab(SRC)
        argv = ["dhj", "maxfree", "-k", "2", "-N", "3"]
        good = Job("m", argv, code=0, oracle=lambda out: oracles.max_line_free(2, 3, True, out))
        planted = Job("m", argv, code=2, oracle=good.oracle)
        wrong_size = Job("m", argv, code=0, oracle=lambda out: oracles.max_line_free(2, 4, True, out))
        outcomes = run.run_pass(lib.cli, [good, planted, wrong_size])
        reasons = run.failures([good, planted, wrong_size], [outcomes])
        self.assertEqual(len(reasons), 2)
        self.assertIn("exit code 0, expected 2", reasons[0])


class SelfTime(unittest.TestCase):
    def test_synthetic_nested_trace(self):
        # a [0, 10] holds b [1, 4] and d [5, 7]; b holds c [2, 3].
        spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 7.0, 0)]
        self.assertEqual(self_times(spans), [5.0, 2.0, 1.0, 2.0])
        metrics = layer_metrics(spans, dict.fromkeys(RATIOS, 0))
        first, second = SPAN_NAMES[0], SPAN_NAMES[1]
        self.assertEqual(metrics[f"{first}.calls"], 1)
        self.assertEqual(metrics[f"{first}.self_s"], 5.0)
        self.assertEqual(metrics[f"{second}.calls"], 2)
        self.assertEqual(metrics[f"{second}.self_s"], 4.0)
        self.assertEqual(metrics["measure.relative_independence.tautology_frac"], 0.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [(0, 0.0, 10.0, -1), (1, 1.0, 5.0, 0), (1, 3.0, 6.0, 0)]
        self.assertEqual(self_times(spans)[0], 5.0)


class HostSpeed(unittest.TestCase):
    def test_scaling_by_probes_inside_and_around_a_span(self):
        sampler = SpeedSampler()
        sampler.ends = [0.0, 1.0, 2.0, 3.0]
        sampler.durations = [0.1, 0.2, 0.2, 0.1]
        # Two probes (0.4 s in all) ran inside [0.5, 2.5].
        self.assertAlmostEqual(sampler.scaled(0.5, 2.5), (2.0 - 0.4) * NOMINAL_PROBE_S / 0.2)
        # No probe inside [2.2, 2.4]: the probes on either side stand in.
        self.assertAlmostEqual(sampler.scaled(2.2, 2.4), 0.2 * NOMINAL_PROBE_S / 0.15)

    def test_sampler_restores_the_signal_handler(self):
        before = signal.getsignal(signal.SIGPROF)
        with SpeedSampler() as sampler:
            sum(i * i for i in range(200_000))
        self.assertIs(signal.getsignal(signal.SIGPROF), before)
        self.assertGreaterEqual(len(sampler.durations), 2)


class Tracing(unittest.TestCase):
    def test_wrappers_record_nested_spans_and_are_removed(self):
        lib = run.import_ergolab(SRC)
        original = lib.hales_jewett.max_line_free
        job = Job("m", ["dhj", "maxfree", "-k", "2", "-N", "3"])
        plain = run.run_pass(lib.cli, [job])
        tracer = Tracer()
        tracer.install(vars(lib))
        try:
            traced = run.run_pass(lib.cli, [job])
        finally:
            tracer.uninstall()
        self.assertIs(lib.hales_jewett.max_line_free, original)
        self.assertEqual(plain[0][2], traced[0][2])
        self.assertEqual(SPAN_NAMES[tracer.spans[0][0]], "cli.main")
        line_free = [s for s in tracer.spans if SPAN_NAMES[s[0]] == "hales_jewett.max_line_free"]
        self.assertEqual(len(line_free), 1)
        self.assertEqual(line_free[0][3], 0)  # its parent is the cli.main span
        metrics = tracer.metrics()
        self.assertEqual(metrics["hales_jewett.max_line_free.exhaustive_frac"], 1.0)

    def test_constructor_spans_wrap_post_init(self):
        lib = run.import_ergolab(SRC)
        tracer = Tracer()
        tracer.install(vars(lib))
        try:
            space = lib.measure.ExactProbabilitySpace.uniform((0, 1))
            lib.measure.Coupling.diagonal(space, 2)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.metrics()["measure.Coupling.calls"], 1)


class MetricNames(unittest.TestCase):
    def test_names_match_the_pattern_and_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        layer = layer_metrics([], dict.fromkeys(RATIOS, 0))
        layer["trace.overhead_s"] = 0.0
        declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared_e2e, run.END_TO_END_UNITS)
        self.assertEqual(declared_layer, {n: run.layer_units(n) for n in layer})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        for name in list(declared_e2e) + list(declared_layer):
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)


class Oracles(unittest.TestCase):
    def test_line_free_counts_and_known_maxima(self):
        self.assertEqual(len(oracles.line_free_sets(2, 3)), 20)
        self.assertEqual(len(oracles.line_free_sets(3, 2)), 247)
        self.assertEqual(max(len(s) for s in oracles.line_free_sets(3, 2)), 6)
        self.assertEqual(oracles.known_max_line_free(2, 6), 20)
        self.assertEqual(oracles.known_max_line_free(3, 4), 52)


class Entry(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as empty:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "dhj-search",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
