"""Command-line dispatch: reports, exit codes, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import cyclic_system

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
    # At depth 3 and cap 2 the check and the marginals ask for 84 subspace
    # pullbacks, of 25 line images and 9 plane images, and for every one of
    # the 14 coordinate marginals several times.  Each of these 48 tables is
    # summed once, and only 11 from the whole law: the first coordinate's
    # (the constructor's check), the 9 planes and the one line of length 1,
    # which lies in no plane.  The rest come from remembered wider tables.
    from ergolab import hales_jewett
    from ergolab.hales_jewett import StationaryLawTruncation

    path = _iid_law_file(tmp_path, 3)
    scans, tables = [], []
    scan, sum_by = StationaryLawTruncation._sum_numerators, hales_jewett._sum_by

    def counting_scan(self, idx):
        scans.append(idx)
        return scan(self, idx)

    def counting_sum_by(table, positions):
        tables.append(positions)
        return sum_by(table, positions)

    monkeypatch.setattr(StationaryLawTruncation, "_sum_numerators", counting_scan)
    monkeypatch.setattr(hales_jewett, "_sum_by", counting_sum_by)
    code, report = run(capsys, ["dhj", "stationarity", "--law", path, "--dim-cap", "2"])
    assert code == 0 and report["results"]["holds"] is True
    assert len(scans) == len(set(scans))
    assert sorted(len(idx) for idx in scans) == [1, 2] + [4] * 9
    assert sorted(len(p) for p in tables) == [1] * 14 + [2] * 25 + [4] * 9


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
    assert len(payloads) == len(GOLDEN)
    payloads += [
        {"q": F(2, 4), "neg": F(-7, 3), "whole": F(5), "sets": [{F(1, 2), F(1, 3)}, set()]},
        {"fs": frozenset({(1, 2), (0, 5)}), "words": frozenset({"21", "12"})},
        {"t": (F(-1, 3), (F(0), [frozenset({3, 1})]), (None, True, "x", 2.5)),
         "nested": {"a": {"b": ({F(1, 4)},)}}},
        [F(1, 9), (), {"k": []}],
    ]
    for payload in payloads:
        text = canonical_dumps(cli._jsonable(payload))
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

def _fresh_python(*args, cwd=None):
    """Run the interpreter on the ``ergolab`` sources this suite imports."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ergolab.__file__))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


def _standalone(argv, cwd):
    """Exit code and stdout of the command in a fresh interpreter."""
    proc = _fresh_python("-m", "ergolab.cli", *argv, cwd=cwd)
    return proc.returncode, proc.stdout


def test_parser_is_built_lazily():
    proc = _fresh_python("-c", "import ergolab.cli as c; print(c._parser.cache_info().currsize)")
    assert proc.stdout == "0\n"


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
