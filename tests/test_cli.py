"""Command-line dispatch: reports, exit codes, determinism."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import cyclic_system, long_period_system

import ergolab
from ergolab import cli
from ergolab.cli import main
from ergolab.serialize import canonical_dumps, system_to_json

F = Fraction


@pytest.fixture()
def z3_file(tmp_path):
    sys_ = cyclic_system(3, 1, 2)
    path = tmp_path / "z3.json"
    path.write_text(canonical_dumps(system_to_json(sys_)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_recur_worked_example(z3_file, capsys):
    code, report = run(capsys, ["recur", "--system", z3_file, "--set", "[0]"])
    assert code == 0
    assert report["results"] == {"limit": "1/9", "witness_n": 3}
    assert report["command"] == "recur"


def test_vdc_constant_sequence(tmp_path, capsys):
    seq = {"entries": [["2/3", "-1/2"]] * 6}
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq))
    code, report = run(capsys, ["vdc", "--seq", str(path), "-N", "4", "-H", "2"])
    assert code == 0
    res = report["results"]
    assert res["lhs"] == res["rhs"]
    assert res["holds"] is True


def test_dhj_maxfree(capsys):
    code, report = run(capsys, ["dhj", "maxfree", "-k", "3", "-N", "2"])
    assert code == 0
    assert report["results"]["size"] == 6
    assert report["results"]["exhaustive"] is True


def test_dhj_lines_identity(capsys):
    code, report = run(capsys, ["dhj", "lines", "-k", "2", "-N", "3"])
    assert code == 0
    assert report["results"]["count"] == report["results"]["identity"] == 19


def test_dhj_force(capsys):
    code, report = run(capsys, ["dhj", "force", "-k", "2", "-L", "1", "-N", "3"])
    assert code == 0
    assert report["results"]["holds"] is True


def test_dhj_force_over_its_set_limit_is_partial(capsys):
    # [2]^5 has 4,514,873 sets of density above 3/4 (at most 7 of the 32
    # points missing); the check stops after 200,000 of them, none a
    # counterexample.
    start = time.perf_counter()
    code, report = run(capsys, ["dhj", "force", "-k", "2", "-L", "1", "-N", "5"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert report["exhaustive"] is False
    assert report["results"] == {"holds": True, "counterexample": None, "threshold": "3/4"}


def test_dhj_lines_refuses_more_than_the_listed_bound(capsys):
    # 10^8 - 9^8 = 56,953,279 lines at k = 9, N = 8, and at least 2^(N-1)
    # at any long N: refused before any line is built.
    for n in ("8", "1000000000"):
        start = time.perf_counter()
        code, report = run(capsys, ["dhj", "lines", "-k", "9", "-N", n])
        assert time.perf_counter() - start < 2
        assert code == 3
        assert report == {"error": "too many lines: at most 100000 are listed"}


def test_correspond_subcommand(tmp_path, capsys):
    # The correspondence lives under 'dhj'; the top-level form is gone.
    path = tmp_path / "set.json"
    path.write_text(json.dumps(["12", "21"]))
    code, report = run(
        capsys, ["dhj", "correspond", "--set", str(path), "-k", "2", "-N", "2", "-L", "1"]
    )
    assert code == 0
    assert report["results"]["point_events"] == {"1": "1/2", "2": "1/2"}
    assert set(report["results"]["line_events"].values()) == {"0/1"}


def test_fjoin_report(z3_file, capsys):
    code, report = run(capsys, ["fjoin", "--system", z3_file])
    assert code == 0
    assert report["results"]["period"] == 3
    assert report["results"]["offdiagonal_invariant"] is True
    # Emitted couplings round-trip through validation.
    from ergolab.serialize import validate_document

    assert validate_document(report["results"]["coupling"], "coupling") == []


def test_validate_ok_and_error_codes(z3_file, tmp_path, capsys):
    code, report = run(capsys, ["validate", "--schema", "system", z3_file])
    assert code == 0 and report["results"]["ok"] is True

    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "space": {"points": [0], "weights": ["2/3"]}, "generators": [[0]]}')
    code, report = run(capsys, ["validate", "--schema", "system", str(bad)])
    assert code == 3
    assert report["results"]["ok"] is False

    notjson = tmp_path / "broken.json"
    notjson.write_text("{")
    code, report = run(capsys, ["validate", "--schema", "system", str(notjson)])
    assert code == 3
    assert "malformed" in report["error"]


@pytest.mark.parametrize(
    "schema, doc, expected",
    [
        (
            "system",
            {
                "dim": 1,
                "space": {"points": [{"a": 1}, {"b": 2}], "weights": ["1/2", "1/2"]},
                "generators": [[1, 0]],
            },
            "$.space.points[0]: a point label cannot be an object",
        ),
        (
            "joint",
            {
                "joining": {
                    "dim": 1,
                    "space": {"points": [0, 1], "weights": ["1/2", "1/2"]},
                    "generators": [[1, 0]],
                },
                "targets": [],
                "maps": [],
                "subgroups": 5,
            },
            "$.subgroups: expected an array",
        ),
        (
            "coupling",
            {"arity": 2, "mass": [{"tuple": [0, 1], "value": "1/2"}, {"tuple": [0, 2], "value": "1/2"}]},
            "$: coordinate 1 marginal differs from the base weights",
        ),
    ],
    ids=["object-label", "subgroups-not-an-array", "baseless-unequal-marginals"],
)
def test_validate_reports_bad_documents(tmp_path, capsys, schema, doc, expected):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, ["validate", "--schema", schema, str(path)])
    assert code == 3
    assert report["results"] == {"ok": False, "diagnostics": [expected], "schema": schema}


def test_object_labels_are_input_errors_with_a_path(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "dim": 1,
        "space": {"points": [{"a": 1}, {"b": 2}], "weights": ["1/2", "1/2"]},
        "generators": [[1, 0]],
    }))
    code, report = run(capsys, ["recur", "--system", str(path), "--set", "[0]"])
    assert code == 3
    assert report == {"error": "$.space.points[0]: a point label cannot be an object"}


def test_vdc_ragged_sequence_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"entries": [["1", "2"], ["3"]] * 4}))
    code, report = run(capsys, ["vdc", "--seq", str(path), "-N", "2", "-H", "2"])
    assert code == 3
    assert report == {"error": "$.entries: vectors must share one dimension"}


def test_boolean_point_index_is_an_input_error(z3_file, capsys):
    code, report = run(capsys, ["recur", "--system", z3_file, "--set", "[true]"])
    assert code == 3
    assert report == {"error": "$.--set: expected a JSON array of point indices"}


@pytest.mark.parametrize("index", [-1, 99])
def test_point_index_outside_the_system_is_a_located_input_error(z3_file, index, capsys):
    code, report = run(capsys, ["recur", "--system", z3_file, "--set", f"[0, {index}]"])
    assert code == 3
    assert report == {"error": f"$.--set: point index {index} out of range for 3 points"}


@pytest.mark.parametrize(
    "argv",
    [["recur", "--set", "[0]"], ["recur", "--set", "[7]"], ["fjoin"]],
)
def test_system_without_generators_is_located_at_the_generators(tmp_path, argv, capsys):
    # No option can supply a direction, so the set is not at fault.
    path = tmp_path / "dim0.json"
    path.write_text(
        json.dumps({"dim": 0, "generators": [], "space": {"points": [0, 1], "weights": ["1/2", "1/2"]}})
    )
    code, report = run(capsys, argv[:1] + ["--system", str(path)] + argv[1:])
    assert code == 3
    assert report == {"error": "$.generators: need at least one direction"}


def test_long_global_period_commands_finish(tmp_path, capsys):
    # One generator with cycles 2, 3, 5, ..., 23: the global period is
    # 223,092,870, but no point's own period exceeds 23.
    sys_ = long_period_system()
    path = tmp_path / "long.json"
    path.write_text(canonical_dumps(system_to_json(sys_)))
    aset = [0, 2, 5, 10, 17, 28, 41, 58, 77]
    start = time.perf_counter()
    code, report = run(capsys, ["recur", "--system", str(path), "--set", json.dumps(aset)])
    assert code == 0
    # With one direction the limit is mu(A) itself.
    assert report["results"]["limit"] == "9/100"
    code, report = run(capsys, ["fjoin", "--system", str(path)])
    assert code == 0
    assert report["results"]["period"] == 223092870
    assert report["results"]["offdiagonal_invariant"] is True
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "directions, message",
    [
        ("0,5", "direction out of range"),
        ("1,1", "directions must be a nonempty set of generator indices"),
        ("x", "expected comma-separated generator indices"),
        (",", "expected comma-separated generator indices"),
        ("", "expected comma-separated generator indices"),
    ],
)
def test_bad_directions_are_located_input_errors(z3_file, directions, message, capsys):
    code, report = run(capsys, ["fjoin", "--system", z3_file, "--directions", directions])
    assert code == 3
    assert report == {"error": f"$.--directions: {message}"}


def test_missing_file_is_input_error(capsys):
    code, report = run(capsys, ["recur", "--system", "/nonexistent.json", "--set", "[0]"])
    assert code == 3


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_removed_duplicate_paths_are_input_errors(tmp_path, capsys):
    # The top-level forms of 'dhj correspond' / 'dhj stationarity' and the
    # unused --depth flag are gone.
    path = tmp_path / "set.json"
    path.write_text(json.dumps(["12", "21"]))
    assert main(["correspond", "--set", str(path), "-N", "2"]) == 3
    assert main(["stationarity", "--law", str(path)]) == 3
    assert main(["dhj", "lines", "--depth", "2"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["removal", "check"], "--instance"),
        (["dhj", "correspond", "-N", "2"], "--set"),
        (["dhj", "stationarity"], "--law"),
    ],
)
def test_missing_action_file_is_path_precise_input_error(argv, option, capsys):
    code, report = run(capsys, argv)
    assert code == 3
    assert report["error"].startswith(f"$.{option}: required by")


def test_uncaught_exception_is_internal_error(z3_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr("ergolab.averages.recurrence_certificate", broken)
    code, report = run(capsys, ["recur", "--system", z3_file, "--set", "[0]"])
    assert code == 4
    assert report == {"error": "internal error: KeyError: 'boom'"}


@pytest.mark.parametrize("action", ["lines", "maxfree"])
def test_alphabet_beyond_single_digits_is_input_error(action, capsys):
    code, report = run(capsys, ["dhj", action, "-k", "10", "-N", "1"])
    assert code == 3
    assert "alphabet size" in report["error"]


@pytest.mark.parametrize("word", ["1\u0663", "1\u00b2"])
def test_correspond_refuses_a_letter_that_is_another_digit(word, tmp_path, capsys):
    # U+0663 (Arabic-Indic three) was read as 3 and its word silently
    # dropped; U+00B2 (superscript two) reached int() and failed there.
    path = tmp_path / "set.json"
    path.write_text(json.dumps([word, "11"]), encoding="utf-8")
    code, report = run(
        capsys, ["dhj", "correspond", "--set", str(path), "-k", "3", "-N", "2", "-L", "1"]
    )
    assert code == 3
    assert report == {"error": f"letter {word[1]!r} outside alphabet of size 3"}


def test_options_belong_to_the_commands_that_read_them():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    owners = {
        option: sorted(name for name, p in commands.items() if option in p._option_string_actions)
        for option in ("--seed", "--budget", "--dim-cap", "--json")
    }
    assert owners == {
        "--seed": ["removal"],
        "--budget": ["dhj"],
        "--dim-cap": ["dhj"],
        "--json": sorted(commands),
    }


@pytest.mark.parametrize(
    "extra", [["--budget", "5"], ["--seed", "1"], ["--dim-cap", "1"]]
)
def test_an_option_of_another_command_is_an_input_error(extra, z3_file, tmp_path, capsys):
    functions = tmp_path / "functions.json"
    functions.write_text(json.dumps([["1", "0", "1"], ["0", "1", "1"]]))
    argv = ["avg", "--system", z3_file, "--functions", str(functions), "-N", "3"]
    code, report = run(capsys, argv)
    assert code == 0 and report["seed"] == 0
    assert main(argv + extra) == 3
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_reports_byte_stable(z3_file, capsys):
    code1 = main(["recur", "--system", z3_file, "--set", "[0]"])
    first = capsys.readouterr().out
    code2 = main(["recur", "--system", z3_file, "--set", "[0]"])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_removal_search_cli(capsys):
    code, report = run(
        capsys,
        ["removal", "search", "--sizes", "2", "-d", "3", "--random", "--samples", "25", "--seed", "5"],
    )
    assert code == 2  # clean, but a sample is not an exhaustive search
    assert report["results"]["counterexample"] is None
    assert report["exhaustive"] is False


def test_removal_search_cli_d4_regression(capsys):
    # The d = 4 up-set family is closed under intersection, so hypothesis
    # [iii] is evaluated instead of failing on a missing meet.
    code, report = run(
        capsys,
        ["removal", "search", "--sizes", "2", "-d", "4", "--random", "--samples", "1", "--seed", "1"],
    )
    assert code == 2
    assert report["results"]["counterexample"] is None


@pytest.mark.parametrize(
    "options, field",
    [
        (["--sizes", "0", "--random", "--samples", "1"], "sizes"),
        (["--sizes", "-1", "--random", "--samples", "1"], "sizes"),
        (["--sizes", "2", "--random", "--samples", "0"], "samples"),
        (["--sizes", "2", "--random", "--samples", "-3"], "samples"),
        (["--sizes", "0"], "sizes"),
    ],
)
def test_removal_search_cli_rejects_empty_domains(capsys, options, field):
    # A search that could test nothing is an input error, not a clean sweep.
    code, report = run(capsys, ["removal", "search", "-d", "3", *options])
    assert code == 3
    assert report["error"].startswith(f"{field}:")


@pytest.mark.parametrize(
    "options, error",
    [
        (["-d", "1"], "d: need at least two coordinates, got 1"),
        (["-d", "0", "--random"], "d: need at least two coordinates, got 0"),
        (["-d", "4", "--sizes", "2,4"],
         "sizes: configuration too large for exhaustive mode: at most 3 points at d = 4, got 4"),
        (["-d", "5"], "d: configuration too large for exhaustive mode: at most d = 4, got 5"),
    ],
)
def test_removal_search_cli_locates_domain_errors(capsys, options, error):
    code, report = run(capsys, ["removal", "search", *options])
    assert code == 3
    assert report == {"error": error}


@pytest.mark.parametrize("sizes", ["2,x", "x", "2,", "2.5"])
def test_removal_search_cli_locates_unparsable_sizes(capsys, sizes):
    code, report = run(capsys, ["removal", "search", "--sizes", sizes, "-d", "3"])
    assert code == 3
    assert report == {"error": "$.--sizes: expected comma-separated point counts"}


def test_removal_search_cli_exhaustive(capsys):
    code, report = run(capsys, ["removal", "search", "--sizes", "2", "-d", "3"])
    assert code == 0
    assert report["results"]["counterexample"] is None
    assert report["exhaustive"] is True


def test_stationarity_cli(tmp_path, capsys):
    from ergolab.hales_jewett import iid_law
    from ergolab.measure import ExactProbabilitySpace
    from ergolab.serialize import law_to_json

    law = iid_law(2, 2, ExactProbabilitySpace((0, 1), (F(1, 2), F(1, 2))))
    path = tmp_path / "law.json"
    path.write_text(canonical_dumps(law_to_json(law)))
    code, report = run(capsys, ["dhj", "stationarity", "--law", str(path)])
    assert code == 0
    assert report["results"]["holds"] is True
    assert "line_marginal" in report["results"]


def test_avg_subcommand(z3_file, tmp_path, capsys):
    fpath = tmp_path / "fs.json"
    fpath.write_text(json.dumps([["1", "0", "0"], ["1", "0", "0"]]))
    code, report = run(capsys, ["avg", "--system", z3_file, "--functions", str(fpath), "-N", "3"])
    assert code == 0
    assert report["results"]["values"] == ["1/3", "0/1", "0/1"]
    assert report["results"]["integral"] == "1/9"


@pytest.mark.parametrize(
    "functions, message",
    [
        (5, "$.functions: expected an array of function value arrays"),
        ([["1", "0", "1"], 5], "$.functions[1]: expected an array of rationals"),
        (
            [["1", "0", "1"], ["1", "x", "0"]],
            "$.functions[1][1]: bad rational 'x': Invalid literal for Fraction: 'x'",
        ),
    ],
)
def test_bad_functions_are_located_input_errors(z3_file, tmp_path, functions, message, capsys):
    fpath = tmp_path / "fs.json"
    fpath.write_text(json.dumps(functions))
    code, report = run(capsys, ["avg", "--system", z3_file, "--functions", str(fpath), "-N", "3"])
    assert code == 3
    assert report == {"error": message}


def test_joint_subcommand(tmp_path, capsys):
    from helpers import torus_system
    from ergolab.serialize import system_to_json as s2j, subgroup_to_json
    from ergolab.systems import SubgroupSpec, orbit_partition, quotient_system

    sys_ = torus_system(3, (1, 0), (0, 1))
    gs = [SubgroupSpec.basis_vector(2, 0), SubgroupSpec.basis_vector(2, 1)]
    targets, maps = [], []
    for g in gs:
        target, pi = quotient_system(sys_, orbit_partition(sys_, g, False))
        targets.append(s2j(target))
        maps.append(list(pi.point_map))
    doc = {
        "joining": s2j(sys_),
        "targets": targets,
        "maps": maps,
        "subgroups": [subgroup_to_json(g) for g in gs],
        "lambda": {"vectors": []},
    }
    path = tmp_path / "joint.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, ["joint", "--instance", str(path)])
    assert code == 0
    assert report["results"]["holds"] is True


def test_removal_check_subcommand(tmp_path, capsys):
    from ergolab.measure import Coupling, ExactProbabilitySpace, Partition
    from ergolab.removal import RemovalInstance, UpSet
    from ergolab.serialize import removal_instance_to_json
    from ergolab.upsets import ground_masks

    sp = ExactProbabilitySpace.uniform((0, 1))
    lam = Coupling.diagonal(sp, 3)
    psi = {m: Partition.singletons(2) for m in ground_masks(3)}
    ups = UpSet.principal(3, range(3))
    inst = RemovalInstance(
        sp, lam, psi, (((ups, frozenset({0})),), ((ups, frozenset({1})),), ((ups, frozenset({0, 1})),))
    )
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(removal_instance_to_json(inst)))
    code, report = run(capsys, ["removal", "check", "--instance", str(path)])
    assert code == 0
    res = report["results"]
    assert res["hypotheses"] == {"i": True, "ii": True, "iii": True}
    assert res["conclusion"] is True


def test_dhj_correspond_action(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(["12", "21"]))
    code, report = run(
        capsys, ["dhj", "correspond", "--set", str(path), "-k", "2", "-N", "2", "-L", "1"]
    )
    assert code == 0
    assert report["command"] == "correspond"
    assert report["results"]["point_events"] == {"1": "1/2", "2": "1/2"}


def test_json_flag_writes_file(z3_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["recur", "--system", z3_file, "--set", "[0]", "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["results"]["limit"] == "1/9"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_dhj_maxfree_rejects_budget_below_one(budget, capsys):
    code, report = run(capsys, ["dhj", "maxfree", "-k", "2", "-N", "3", "--budget", budget])
    assert code == 3
    assert "budget" in report["error"]


def test_dhj_maxfree_budget_short_of_a_leaf_reports_empty_set(capsys):
    # One node is the root alone: no set was completed, and the empty set
    # (always line-free) is reported instead of size -1.
    code, report = run(capsys, ["dhj", "maxfree", "-k", "2", "-N", "3", "--budget", "1"])
    assert code == 2
    assert report["results"] == {"size": 0, "extremal": [], "exhaustive": False}


def _iid_law_file(tmp_path, depth):
    from ergolab.hales_jewett import iid_law
    from ergolab.measure import ExactProbabilitySpace
    from ergolab.serialize import law_to_json

    law = iid_law(2, depth, ExactProbabilitySpace((0, 1), (F(2, 5), F(3, 5))))
    path = tmp_path / "law.json"
    path.write_text(canonical_dumps(law_to_json(law)))
    return str(path)


def test_stationarity_cli_rejects_negative_dim_cap(tmp_path, capsys):
    code, report = run(
        capsys, ["dhj", "stationarity", "--law", _iid_law_file(tmp_path, 1), "--dim-cap", "-1"]
    )
    assert code == 3
    assert "nonnegative" in report["error"]


def test_stationarity_cli_pulls_each_image_back_once(tmp_path, monkeypatch, capsys):
    # At depth 3 and cap 2 the check compares 25 line images and 9 plane
    # images, and the 14 coordinate marginals.  The law is scanned once, in
    # the constructor, into one table per word length, and the constructor
    # sums the first coordinate's marginal from the length-1 table.  The
    # check then reads the coordinate marginals from one pass over each
    # length's table and sums each image once, from its own length's table;
    # the marginals decide nothing again and sum nothing.
    from ergolab import hales_jewett
    from ergolab.hales_jewett import StationaryLawTruncation

    path = _iid_law_file(tmp_path, 3)
    length_tables, scans, passes, sources, parts = [], [], [], [], []
    by_length = StationaryLawTruncation._length_tables
    scan = StationaryLawTruncation._sum_numerators
    sum_image, coordinate_sums = hales_jewett._sum_image, hales_jewett._coordinate_sums

    def counting_length_tables(self, numerator):
        length_tables.append(by_length(self, numerator))
        return length_tables[-1]

    def counting_scan(self, idx):
        scans.append(idx)
        return scan(self, idx)

    def counting_coordinate_sums(table):
        passes.append(table)
        return coordinate_sums(table)

    def counting_sum_image(table, get):
        sources.append(table)
        parts.append(get(next(iter(table))))
        return sum_image(table, get)

    monkeypatch.setattr(StationaryLawTruncation, "_length_tables", counting_length_tables)
    monkeypatch.setattr(StationaryLawTruncation, "_sum_numerators", counting_scan)
    monkeypatch.setattr(hales_jewett, "_coordinate_sums", counting_coordinate_sums)
    monkeypatch.setattr(hales_jewett, "_sum_image", counting_sum_image)
    code, report = run(capsys, ["dhj", "stationarity", "--law", path, "--dim-cap", "2"])
    assert code == 0 and report["results"]["holds"] is True
    assert len(length_tables) == 1 and scans == []
    assert [id(t) for t in passes] == [id(t) for t in length_tables[0]]
    assert all(any(t is own for own in length_tables[0]) for t in sources)
    widths = [len(p) if isinstance(p, tuple) else 1 for p in parts]
    assert sorted(widths) == [1] + [2] * 25 + [4] * 9


def _deep_copy_jsonable(value):
    """The former ``_jsonable``: every value is rebuilt, scalars included."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _deep_copy_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_deep_copy_jsonable(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_deep_copy_jsonable(v) for v in value)
    return value


def test_input_digest_bytes_unchanged():
    import hashlib

    from ergolab.cli import _digest
    from ergolab.hales_jewett import iid_law
    from ergolab.measure import ExactProbabilitySpace
    from ergolab.serialize import law_to_json

    law = law_to_json(iid_law(2, 2, ExactProbabilitySpace((0, 1), (F(2, 3), F(1, 3)))))
    system = system_to_json(cyclic_system(3, 1, 2))
    mixed = {"system": system, "directions": (0, 1), "set": [0, 2], "N": 5, "ok": True,
             "none": None, "q": F(3, 6), "fs": frozenset({2, 1}),
             "row": [True, None, "x", 3, F(1, 2), (False,)]}
    # Digests printed by the deep-copying implementation.
    expected = {"law": "596d60a3fce9826c", "system": "11e0a3e642193ffd",
                "mixed": "956affc143745047"}
    for name, doc in (("law", law), ("system", system), ("mixed", mixed)):
        text = canonical_dumps(_deep_copy_jsonable(doc))
        assert _digest(doc) == hashlib.sha256(text.encode()).hexdigest()[:16]
        assert _digest(doc) == expected[name]


def test_digest_needs_no_converted_copy(tmp_path, monkeypatch):
    # The digest of every golden command's input payload, and of payloads
    # with Fractions, nested sets and tuples, is the hash of the canonical
    # JSON of the converted copy, as both former conversions build it.
    import hashlib

    from test_golden import GOLDEN, run_golden

    payloads = []
    digest = cli._digest
    monkeypatch.setattr(cli, "_digest", lambda payload: payloads.append(payload) or digest(payload))
    run_golden(tmp_path)
    # An input error (exit 3) reports no digest.
    assert len(payloads) == sum(code != 3 for _, code, _ in GOLDEN.values())
    payloads += [
        {"q": F(2, 4), "neg": F(-7, 3), "whole": F(5), "sets": [{F(1, 2), F(1, 3)}, set()]},
        {"fs": frozenset({(1, 2), (0, 5)}), "words": frozenset({"21", "12"})},
        {"t": (F(-1, 3), (F(0), [frozenset({3, 1})]), (None, True, "x", 2.5)),
         "nested": {"a": {"b": ({F(1, 4)},)}}},
        [F(1, 9), (), {"k": []}],
    ]
    for payload in payloads:
        text = canonical_dumps(payload)
        assert text == canonical_dumps(_deep_copy_jsonable(payload))
        assert digest(payload) == hashlib.sha256(text.encode()).hexdigest()[:16]
    with pytest.raises(TypeError):
        digest({"x": object()})


def _tied_law_file(tmp_path):
    """k = 2, depth 2, uniform carrier, coordinates "1" and "2" equal and
    the others independent: stationary at dimension 0 but not at 1."""
    from itertools import product

    weights = [
        {"config": [x, x, *rest], "value": "1/32"} for x, *rest in product((0, 1), repeat=5)
    ]
    doc = {"k": 2, "depth": 2, "carrier": {"points": [0, 1], "weights": ["1/2", "1/2"]},
           "weights": weights}
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_stationarity_refuses_a_law_too_deep_for_its_cap(tmp_path, capsys):
    # k = 2 at depth 9: the check at the default cap 2 would walk 145,149
    # subspace maps, over the bound of 100,000, and is refused at once.
    doc = {"k": 2, "depth": 9, "carrier": {"points": [0, 1], "weights": ["1/2", "1/2"]},
           "weights": [{"config": [x] * 1022, "value": "1/2"} for x in (0, 1)]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, report = run(capsys, ["dhj", "stationarity", "--law", str(path)])
    assert time.perf_counter() - start < 2
    assert code == 3
    assert report == {"error": "law too deep for the check: more than 100000 subspace maps"
                               " at depth 9 and dimension cap 2"}


def test_stationarity_cap_zero_reports_the_point_marginal_alone(tmp_path, capsys):
    path = _tied_law_file(tmp_path)
    code, report = run(capsys, ["dhj", "stationarity", "--law", path, "--dim-cap", "0"])
    assert code == 0
    assert report["results"] == {
        "dim_cap": 0,
        "holds": True,
        "point_marginal": {"points": [0, 1], "weights": ["1/2", "1/2"]},
    }
    code, report = run(capsys, ["dhj", "stationarity", "--law", path, "--dim-cap", "1"])
    assert code == 1
    assert report["results"]["witness"] == {"dimension": 1, "first": ["1", "2"],
                                            "second": ["11", "21"]}


def test_stationarity_cap_zero_keeps_the_line_marginal_when_it_is_defined(tmp_path, capsys):
    path = _iid_law_file(tmp_path, 2)
    reports = []
    for cap in ("0", "1"):
        code, report = run(capsys, ["dhj", "stationarity", "--law", path, "--dim-cap", cap])
        assert code == 0
        reports.append(report["results"])
    assert "line_marginal" in reports[0]
    assert {**reports[0], "dim_cap": 1} == reports[1]


# -- one parser per process ------------------------------------------------------------

def _fresh_python(*args, cwd=None, preexec_fn=None):
    """Run the interpreter on the ``ergolab`` sources this suite imports."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ergolab.__file__))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=120, preexec_fn=preexec_fn,
    )


def _standalone(argv, cwd):
    """Exit code and stdout of the command in a fresh interpreter."""
    proc = _fresh_python("-m", "ergolab.cli", *argv, cwd=cwd)
    return proc.returncode, proc.stdout


def test_parser_is_built_lazily():
    proc = _fresh_python(
        "-c",
        "import ergolab.cli as c; "
        "print(c._parser.cache_info().currsize, c._tables.cache_info().currsize)",
    )
    assert proc.stdout == "0 0\n"


def test_reused_parser_leaks_no_defaults(z3_file, tmp_path, monkeypatch, capsys):
    # Each command follows one that sets an option it leaves at its
    # default; its exit code and bytes must be those of a fresh process.
    law = _iid_law_file(tmp_path, 2)
    in_process, standalone = tmp_path / "a.json", tmp_path / "b.json"
    commands = [
        ["removal", "search", "--sizes", "2", "-d", "3", "--random", "--samples", "3",
         "--seed", "9"],
        ["removal", "search", "--sizes", "2", "-d", "3"],
        ["dhj", "stationarity", "--law", law, "--dim-cap", "1"],
        ["dhj", "stationarity", "--law", law],
        ["recur", "--system", z3_file, "--set", "[0]", "--json", "{report}"],
        ["recur", "--system", z3_file, "--set", "[0]"],
    ]
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    outputs = []
    for argv in commands:
        code = main([a.format(report=in_process) for a in argv])
        outputs.append((code, capsys.readouterr().out))
    assert len(builds) == 1
    for argv, (code, out) in zip(commands, outputs):
        assert _standalone([a.format(report=standalone) for a in argv], tmp_path) == (code, out)
    assert outputs[4] == (0, "")
    assert in_process.read_bytes() == standalone.read_bytes()
    assert json.loads(outputs[2][1])["results"]["dim_cap"] == 1
    assert json.loads(outputs[3][1])["results"]["dim_cap"] == 2


# -- rotations of large groups ----------------------------------------------------------

def _capped_rotation(tmp_path, *options):
    """Exit code, report and wall time of ``rotation`` on a group of order
    10^8, in a child capped at 400 MB of address space."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"orders": [100000000], "phi": [[1], [2]]}))
    cap = 400 << 20
    start = time.perf_counter()
    proc = _fresh_python(
        "-m", "ergolab.cli", "rotation", "--rotation", str(path), *options,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    return proc.returncode, json.loads(proc.stdout), time.perf_counter() - start


def test_rotation_of_a_large_group_lists_no_elements(tmp_path):
    # Membership is lattice-index arithmetic, so no subgroup is built.
    code, report, elapsed = _capped_rotation(tmp_path)
    assert (code, report["results"]) == (0, {"input_in_join": False})
    assert elapsed < 2


def test_rotation_extension_beyond_the_point_bound_is_an_input_error(tmp_path):
    code, report, elapsed = _capped_rotation(tmp_path, "--extend")
    assert code == 3
    assert report == {"error": "extension too large: at most 65536 points, got 5000000000000000"}
    assert elapsed < 2


# -- bounds checked before the words are built ------------------------------------------

def _capped_cli(*argv, cwd=None):
    """Exit code, stdout and wall time of the command in a child capped at
    400 MB of address space."""
    resource = pytest.importorskip("resource")
    cap = 400 << 20
    start = time.perf_counter()
    proc = _fresh_python(
        "-m", "ergolab.cli", *argv, cwd=cwd,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


@pytest.mark.parametrize("N", ["25", "1000000000000"])
def test_maxfree_refuses_a_large_space_before_building_it(N):
    code, out, elapsed = _capped_cli("dhj", "maxfree", "-k", "2", "-N", N)
    assert code == 3
    assert json.loads(out) == {"error": "over budget: point set too large for the exact search"}
    assert elapsed < 5


@pytest.mark.parametrize("N", ["22", "25", "1000000000000"])
def test_force_refuses_more_than_its_point_bound_before_building_them(N):
    code, out, elapsed = _capped_cli("dhj", "force", "-k", "2", "-L", "1", "-N", N)
    assert code == 3
    assert json.loads(out) == {
        "error": "point set too large for the forcing check: at most 2097152 points"
    }
    assert elapsed < 5


def test_force_at_its_point_bound_still_runs_under_the_cap():
    # 2^21 points is the largest space the bound admits; it stops at its
    # set budget as before.
    code, out, _ = _capped_cli("dhj", "force", "-k", "2", "-L", "1", "-N", "21")
    assert code == 2
    assert json.loads(out)["results"] == {"counterexample": None, "holds": True, "threshold": "3/4"}


@pytest.mark.parametrize(
    "N, L, error",
    [
        ("40", "1", "point set too large for the correspondence: at most 2097152 points"),
        ("1000000000000", "1", "point set too large for the correspondence: at most 2097152 points"),
        # 2^21 points, but 3^20 - 2^20 line events in the window [2]^20.
        ("21", "20", "too many lines: at most 100000 are listed"),
    ],
)
def test_correspond_refuses_a_large_space_or_window_before_building_it(tmp_path, N, L, error):
    # An empty set passes every check on its words, so only the bounds stop
    # the command before it builds the suffixes or the lines.
    (tmp_path / "empty.json").write_text("[]")
    code, out, elapsed = _capped_cli(
        "dhj", "correspond", "--set", "empty.json", "-k", "2", "-N", N, "-L", L, cwd=tmp_path
    )
    assert code == 3
    assert json.loads(out) == {"error": error}
    assert elapsed < 5


def test_a_law_with_too_many_letters_is_refused_at_its_depth(tmp_path):
    # k = 1 and depth 30,000: the words "1", "11", ... would hold
    # 450,015,000 letters, so the law is refused before any word is built.
    depth = 30_000
    doc = {
        "k": 1,
        "depth": depth,
        "carrier": {"points": [0, 1], "weights": ["1/2", "1/2"]},
        "weights": [{"config": [x] * depth, "value": "1/2"} for x in (0, 1)],
    }
    path = tmp_path / "law.json"
    path.write_text(json.dumps(doc))
    code, out, elapsed = _capped_cli("dhj", "stationarity", "--law", str(path), "--dim-cap", "0")
    assert code == 3
    assert json.loads(out) == {
        "error": "$.depth: law too deep: its words would have more than 16777216 letters"
    }
    assert elapsed < 5


# -- the table reader ---------------------------------------------------------------

# Every command's files, by name, relative to the directory the commands run in.
READER_FILES = {
    "z3.json": system_to_json(cyclic_system(3, 1, 2)),
    "functions.json": [["1", "0", "1"], ["0", "1", "1"]],
    "seq.json": {"entries": [["2/3", "-1/2"]] * 6},
    "words.json": ["12", "21", "22"],
    "law.json": {
        "k": 2, "depth": 1, "carrier": {"points": [0, 1], "weights": ["1/2", "1/2"]},
        "weights": [{"config": list(c), "value": "1/4"} for c in ([0, 0], [0, 1], [1, 0], [1, 1])],
    },
    "rotation.json": {"orders": [6], "phi": [[2], [3]]},
}
COMMANDS = next(
    a for a in cli.build_parser()._actions if a.dest == "command"
).choices
# Values an option or positional is given, by dest; the ints include a
# non-ASCII digit, a padded one and ones that fail or start with "-".
VALUES = {
    "system": ["z3.json", "seq.json", "missing.json"],
    "functions": ["functions.json"],
    "seq": ["seq.json"],
    "instance": ["words.json", "missing.json"],
    "set": ["[0]", "[0, 1]", "words.json", "[5]"],
    "law": ["law.json"],
    "rotation": ["rotation.json", "z3.json"],
    "file": ["z3.json", "law.json", "missing.json"],
    "schema": ["system", "law", "rotation", "nope"],
    "directions": ["0,1", "0", "x"],
    "sizes": ["1", "2", "1,2", "0", "x"],
    "json": ["report.json"],
}
INTS = ["0", "1", "2", "3", "٢", " 2", "-1", "x", "2.0"]
# Tokens inserted anywhere: prefixes, "=" forms, joined short options, "--",
# help, negative numbers, non-ASCII digits, stray words and bare options.
HOSTILE = ["-1", "--", "=", "-k2", "-N3", "--set=[0]", "--sys", "--dim", "--dim_cap", "-h",
           "--help", "٣", "", "-", "extra", "--json", "-N", "2", "--random", "--extend"]


def _values(action):
    if action.choices is not None:
        return [*action.choices, "frob"]
    return INTS if action.type is int else VALUES[action.dest]


@st.composite
def _argvs(draw):
    """A command line: the options of one command, each required one
    almost always and the others sometimes, in any order, with up to three
    edits (a token inserted, dropped or repeated, or the first one
    replaced)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    pieces = []
    for action in COMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if draw(st.integers(0, 9)) < (9 if action.required else 4):
            head = [draw(st.sampled_from(action.option_strings))] if action.option_strings else []
            tail = [] if action.nargs == 0 else [draw(st.sampled_from(_values(action)))]
            pieces.append(head + tail)
    argv = [command] + [t for piece in draw(st.permutations(pieces)) for t in piece]
    options = sorted(COMMANDS[command]._option_string_actions)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "option", "drop", "repeat", "first"]))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(HOSTILE)))
        elif edit == "option":
            argv.insert(at, draw(st.sampled_from(options)))
        elif edit == "first":
            argv[0] = draw(st.sampled_from(HOSTILE + ["dh", "Dhj", "recur"]))
        elif at < len(argv):
            argv[at:at + 1] = [] if edit == "drop" else [argv[at]] * 2
    return argv


def _argparse_reading(argv):
    """The namespace ``parse_args`` gives, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_the_reader_gives_argparse_namespace_or_declines(argv):
    read = cli._read(cli._tables(cli._parser()), argv)
    if read is not None:
        expected = _argparse_reading(argv)
        assert isinstance(expected, argparse.Namespace)
        assert vars(read) == vars(expected)


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


def _main_in(directory, argv):
    """Exit code, stdout and stderr of ``main(argv)`` run in ``directory``
    on fresh input files, with the wall time masked."""
    for name, doc in READER_FILES.items():
        (directory / name).write_text(json.dumps(doc))
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), re.sub(r"wall_time_s=[0-9.]+", "wall_time_s=", err.getvalue())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_main_is_the_same_with_or_without_the_reader(reader_dir, argv):
    with_reader = _main_in(reader_dir, argv)
    with mock.patch.object(cli, "_read", lambda tables, argv: None):
        assert _main_in(reader_dir, argv) == with_reader


def _bench_job_shapes(files):
    """The command lines of the benchmark's jobs (``bench/workloads.py``),
    one per shape."""
    return [
        ["removal", "search", "--sizes", "2", "-d", "3"],
        ["removal", "search", "--sizes", "2,3,4", "-d", "3", "--random", "--samples", "20",
         "--seed", "7"],
        ["fjoin", "--system", files["z3.json"]],
        ["recur", "--system", files["z3.json"], "--set", "[0, 2]"],
        ["avg", "--system", files["z3.json"], "--functions", files["functions.json"], "-N", "40"],
        ["vdc", "--seq", files["seq.json"], "-N", "6", "-H", "3"],
        ["validate", "--schema", "system", files["z3.json"]],
        ["dhj", "maxfree", "-k", "2", "-N", "3"],
        ["dhj", "maxfree", "-k", "2", "-N", "6", "--budget", "20000"],
        ["dhj", "force", "-k", "2", "-L", "1", "-N", "3"],
        ["dhj", "stationarity", "--law", files["law.json"], "--dim-cap", "2"],
        ["dhj", "correspond", "--set", files["words.json"], "-k", "2", "-N", "3", "-L", "1"],
    ]


def test_the_reader_reads_every_golden_and_bench_command_line(tmp_path):
    from test_golden import GOLDEN

    files = {name: str(tmp_path / name) for name in READER_FILES}
    argvs = [[a.format(dir=tmp_path) for a in argv] for argv, _, _ in GOLDEN.values()]
    argvs += _bench_job_shapes(files)
    tables = cli._tables(cli._parser())
    for argv in argvs:
        read = cli._read(tables, argv)
        assert read is not None, argv
        assert vars(read) == vars(_argparse_reading(argv))
