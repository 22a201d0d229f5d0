"""Command-line front end: JSON in, canonical JSON reports out.

Exit codes: 0 the run succeeded and the checked property holds; 1 a property
was violated (the report carries a witness); 2 a search was not exhaustive;
3 malformed or invalid input; 4 an internal error (a bug), reported as
``{"error": ...}`` on stdout with the traceback on stderr.

Reports are canonical JSON (sorted keys, no insignificant whitespace,
rationals as reduced ``p/q``), so identical inputs and seed give
byte-identical output.  Wall time is printed to stderr only, keeping stdout
deterministic.

The grammar is declared once, as data, in ``_COMMANDS``.  :func:`build_parser`
builds argparse's parser from it, for help, usage errors and every command
line the table reader declines; :func:`_read` reads the other command lines
from tables built from the same data when the module is imported.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from . import averages, hales_jewett as dhj, removal as removal_mod, serialize
from .serialize import ValidationError, canonical_dumps, format_fraction
from .systems import (
    in_partially_trivial_join,
    joint_distribution_predicate,
    rotation_extension,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARTIAL = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# `dhj lines` prints every line, and `dhj correspond` every line event of
# its window, so each lists at most this many.
MAX_LISTED_LINES = 100_000


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError([path], "file not found") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            [path], f"malformed JSON at line {exc.lineno} column {exc.colno}"
        ) from None


def _load_option(args, name: str) -> Any:
    """Load the file named by an option that only some actions need."""
    path = getattr(args, name)
    if path is None:
        raise ValidationError([f"--{name}"], f"required by '{args.command} {args.action}'")
    return _load(path)


def _digest(payload: Any) -> str:
    """Hash of the canonical JSON of the input payload."""
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()[:16]


def _emit(args, command: str, inputs: Any, results: dict, exhaustive: bool, code: int) -> int:
    report = {
        "command": command,
        "digest": _digest(inputs),
        "exhaustive": exhaustive,
        "results": results,
        "seed": getattr(args, "seed", 0),
    }
    text = canonical_dumps(report)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def _parse_set(text: str) -> frozenset[int]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise ValidationError(["--set"], "expected a JSON array of point indices") from None
    if not isinstance(data, list) or any(type(i) is not int for i in data):
        raise ValidationError(["--set"], "expected a JSON array of point indices")
    return frozenset(data)


def _parse_ints(option: str, text: str, expected: str) -> tuple[int, ...]:
    """The comma-separated integers of an option's value."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValidationError([option], f"expected comma-separated {expected}") from None


def _located(keys: Sequence, call, *args) -> Any:
    """``call(*args)``, with its ``ValueError`` reported at ``keys``: the
    option, or the part of an input file, whose value the call rejected."""
    try:
        return call(*args)
    except ValidationError as exc:
        raise exc.within(*keys)
    except ValueError as exc:
        raise ValidationError(keys, str(exc)) from None


# -- handlers -----------------------------------------------------------------

def _system_with_directions(doc: Any):
    """The system of ``doc``; a system without generators is rejected at
    ``$.generators``, since no option can supply a direction."""
    sys_ = serialize.system_from_json(doc)
    if not sys_.dim:
        raise ValidationError(["generators"], "need at least one direction")
    return sys_


def _cmd_avg(args) -> int:
    doc = _load(args.system)
    sys_ = serialize.system_from_json(doc)
    fdoc = _load(args.functions)
    if not isinstance(fdoc, list):
        raise ValidationError(["functions"], "expected an array of function value arrays")
    funcs = [
        _located(["functions", i], serialize.function_from_json, f) for i, f in enumerate(fdoc)
    ]
    avg = averages.nonconventional_average(sys_, funcs, args.N)
    results = {
        "values": [format_fraction(v) for v in avg.values],
        "integral": avg.integral(sys_.space),
        "N": args.N,
    }
    return _emit(args, "avg", {"system": doc, "functions": fdoc, "N": args.N}, results, True, EXIT_OK)


def _cmd_fjoin(args) -> int:
    doc = _load(args.system)
    if args.directions is None:
        sys_, dirs = _system_with_directions(doc), None
    else:
        sys_ = serialize.system_from_json(doc)
        dirs = _parse_ints("--directions", args.directions, "generator indices")
    fj = _located(["--directions"], averages.furstenberg_self_joining, sys_, dirs)
    results = {
        "directions": list(fj.directions),
        "period": fj.period,
        "coupling": serialize.coupling_to_json(fj.coupling, include_base=False),
        "offdiagonal_invariant": averages.check_offdiagonal_invariance(fj),
    }
    return _emit(args, "fjoin", {"system": doc, "directions": dirs}, results, True, EXIT_OK)


def _cmd_recur(args) -> int:
    doc = _load(args.system)
    sys_ = _system_with_directions(doc)
    aset = _parse_set(args.set)
    cert = _located(["--set"], averages.recurrence_certificate, sys_, aset)
    results = {"limit": cert.limit, "witness_n": cert.witness}
    positive = sys_.space.measure(aset) > 0
    ok = (not positive) or (cert.limit > 0 and cert.witness is not None)
    return _emit(
        args,
        "recur",
        {"system": doc, "set": sorted(aset)},
        results,
        True,
        EXIT_OK if ok else EXIT_VIOLATED,
    )


def _cmd_vdc(args) -> int:
    doc = _load(args.seq)
    seq = serialize.sequence_from_json(doc)
    rep = averages.van_der_corput_inequality(seq, args.N, args.H)
    results = {"lhs": rep.lhs, "rhs": rep.rhs, "holds": rep.holds}
    return _emit(
        args,
        "vdc",
        {"seq": doc, "N": args.N, "H": args.H},
        results,
        True,
        EXIT_OK if rep.holds else EXIT_VIOLATED,
    )


def _cmd_joint(args) -> int:
    doc = _load(args.instance)
    parts = serialize.joint_instance_from_json(doc)
    report = joint_distribution_predicate(
        parts["joining"], parts["maps"], parts["subgroups"], parts["lam"]
    )
    results = {
        "per_coordinate": [
            {"holds": r.holds, "witness": r.witness} for r in report.per_coordinate
        ],
        "holds": report.holds,
    }
    return _emit(
        args, "joint", doc, results, True, EXIT_OK if report.holds else EXIT_VIOLATED
    )


def _cmd_removal(args) -> int:
    if args.action == "check":
        doc = _load_option(args, "instance")
        inst = serialize.removal_instance_from_json(doc)
        hyp = removal_mod.check_hypotheses(inst)
        results: dict[str, Any] = {
            "hypotheses": {
                "i": hyp.monotone,
                "ii": hyp.identified,
                "iii": hyp.independent,
            },
            "witness": {k: v for k, v in hyp.witnesses.items()},
        }
        if hyp.all_hold:
            conclusion = removal_mod.check_conclusion(inst, verified=True)
            results["conclusion"] = conclusion
            code = EXIT_OK if conclusion else EXIT_VIOLATED
        else:
            results["conclusion"] = None
            code = EXIT_VIOLATED
        return _emit(args, "removal-check", doc, results, True, code)

    config = removal_mod.SearchConfig(
        sizes=_parse_ints("--sizes", args.sizes, "point counts"),
        d=args.d,
        seed=args.seed,
        exhaustive=not args.random,
        samples=args.samples,
    )
    hit = removal_mod.search_counterexample(config)
    results = {
        "counterexample": None if hit is None else serialize.removal_instance_to_json(hit),
        "mode": "exhaustive" if config.exhaustive else "random",
        "samples": None if config.exhaustive else config.samples,
    }
    if hit is not None:
        code = EXIT_VIOLATED
    elif config.exhaustive:
        code = EXIT_OK
    else:
        code = EXIT_PARTIAL  # clean but only sampled
    inputs = {
        "sizes": list(config.sizes),
        "d": config.d,
        "exhaustive": config.exhaustive,
        "samples": config.samples,
        "seed": config.seed,
    }
    return _emit(args, "removal-search", inputs, results, config.exhaustive, code)


def _cmd_dhj(args) -> int:
    if args.action == "lines":
        lines = dhj.enumerate_lines(args.k, args.N, MAX_LISTED_LINES)
        results = {
            "count": len(lines),
            "identity": (args.k + 1) ** args.N - args.k**args.N,
            "lines": [list(l) for l in lines],
        }
        return _emit(args, "dhj-lines", {"k": args.k, "N": args.N}, results, True, EXIT_OK)
    if args.action == "maxfree":
        res = dhj.max_line_free(args.k, args.N, args.budget)
        results = {
            "size": res.size,
            "extremal": list(res.extremal),
            "exhaustive": res.exhaustive,
        }
        code = EXIT_OK if res.exhaustive else EXIT_PARTIAL
        return _emit(
            args,
            "dhj-maxfree",
            {"k": args.k, "N": args.N, "budget": args.budget},
            results,
            res.exhaustive,
            code,
        )
    if args.action == "force":
        exhaustive = dhj.subspace_forcing_check(args.k, args.L, args.N)
        # The prefix lemma decides the verdict: no qualifying set is a
        # counterexample, and only the count of the sets can leave it partial.
        results = {
            "holds": True,
            "counterexample": None,
            "threshold": Fraction(args.k ** (2 * args.L) - 1, args.k ** (2 * args.L)),
        }
        inputs = {"k": args.k, "L": args.L, "N": args.N}
        code = EXIT_OK if exhaustive else EXIT_PARTIAL
        return _emit(args, "dhj-force", inputs, results, exhaustive, code)
    if args.action == "correspond":
        return _cmd_correspond(args)
    return _cmd_stationarity(args)


def _cmd_correspond(args) -> int:
    doc = _load_option(args, "set")
    if not isinstance(doc, list) or any(not isinstance(w, str) for w in doc):
        raise ValidationError(["set"], "expected a JSON array of words")
    # Every line event is listed, so the lines follow the bound of `dhj lines`.
    cm = dhj.build_correspondence(doc, args.k, args.N, args.L, MAX_LISTED_LINES)
    words = cm.words
    line_events = {
        "/".join(map(words.__getitem__, line)): cm.event(line)
        for line in dhj._lines(args.k, args.L)
    }
    results = {
        "measure": serialize.correspondence_to_json(cm),
        "point_events": {w: cm.event((i,)) for i, w in enumerate(words)},
        "line_events": line_events,
    }
    return _emit(
        args,
        "correspond",
        {"set": doc, "k": args.k, "N": args.N, "L": args.L},
        results,
        True,
        EXIT_OK,
    )


def _cmd_stationarity(args) -> int:
    doc = _load_option(args, "law")
    # The law is built and dropped inside the helper, so it is freed before
    # the input digest encodes the document: the two never share the peak.
    results = _stationarity_results(serialize.law_from_json(doc), args.dim_cap)
    code = EXIT_OK if results["holds"] else EXIT_VIOLATED
    return _emit(args, "stationarity", doc, results, True, code)


def _stationarity_results(law: dhj.StationaryLawTruncation, dim_cap: int | None) -> dict:
    cap = dim_cap if dim_cap is not None else min(law.depth, 2)
    res = dhj.strong_stationarity_check(law, cap)
    results: dict[str, Any] = {"holds": res.holds, "dim_cap": cap}
    if res.witness is not None:
        dim, im_a, im_b = res.witness
        results["witness"] = {"dimension": dim, "first": list(im_a), "second": list(im_b)}
    if res.holds:
        # Cap 0 checks only the coordinate marginals; the line marginal is
        # reported only where dimension-1 stationarity makes it well defined.
        # The law remembers its verdict, so at a cap of 1 or more this
        # check decides nothing again.  The point marginal is the carrier.
        if dhj.strong_stationarity_check(law, 1).holds:
            line = dhj.marginals(law)[1]
            results["line_marginal"] = serialize.coupling_to_json(line, include_base=False)
        results["point_marginal"] = serialize.space_to_json(law.carrier)
    return results


def _cmd_rotation(args) -> int:
    doc = _load(args.rotation)
    rot = serialize.rotation_from_json(doc)
    member = in_partially_trivial_join(rot)
    results: dict[str, Any] = {"input_in_join": member}
    if args.extend:
        ext, fmap = rotation_extension(rot)
        results["extension"] = serialize.rotation_to_json(ext)
        results["extension_in_join"] = in_partially_trivial_join(ext)
        results["factor_map"] = list(fmap.point_map)
    return _emit(args, "rotation", doc, results, True, EXIT_OK)


def _cmd_validate(args) -> int:
    doc = _load(args.file)
    diags = serialize.validate_document(doc, args.schema)
    results = {"ok": not diags, "diagnostics": diags, "schema": args.schema}
    return _emit(args, "validate", doc, results, True, EXIT_OK if not diags else EXIT_INPUT)


# -- grammar --------------------------------------------------------------------

class _Arg(NamedTuple):
    """One argument of a command: an option, or a positional when ``flags``
    is empty.  ``type`` is ``bool`` for a flag that stores ``True``."""

    flags: tuple[str, ...]
    dest: str
    type: type = str
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None


class _Command(NamedTuple):
    func: Callable[[argparse.Namespace], int]
    help: str
    args: tuple[_Arg, ...]


_JSON = _Arg(("--json",), "json", help="write the report to a file")
_SYSTEM = _Arg(("--system",), "system", required=True)

_COMMANDS = {
    "avg": _Command(_cmd_avg, "nonconventional average", (
        _JSON,
        _SYSTEM,
        _Arg(("--functions",), "functions", required=True),
        _Arg(("-N",), "N", int, required=True),
    )),
    "fjoin": _Command(_cmd_fjoin, "Furstenberg self-joining", (
        _JSON,
        _SYSTEM,
        _Arg(("--directions",), "directions", help="comma-separated generator indices"),
    )),
    "recur": _Command(_cmd_recur, "recurrence certificate", (
        _JSON,
        _SYSTEM,
        _Arg(("--set",), "set", required=True, help="JSON array of point indices"),
    )),
    "vdc": _Command(_cmd_vdc, "van der Corput inequality", (
        _JSON,
        _Arg(("--seq",), "seq", required=True),
        _Arg(("-N",), "N", int, required=True),
        _Arg(("-H",), "H", int, required=True),
    )),
    "joint": _Command(_cmd_joint, "joint distribution predicate", (
        _JSON,
        _Arg(("--instance",), "instance", required=True),
    )),
    "removal": _Command(_cmd_removal, "removal instance tools", (
        _JSON,
        _Arg((), "action", choices=("check", "search")),
        _Arg(("--instance",), "instance", help="instance file for 'check'"),
        _Arg(("--sizes",), "sizes", default="2", help="comma-separated point counts"),
        _Arg(("-d",), "d", int, 3),
        _Arg(("--random",), "random", bool, False, help="sample instead of enumerating"),
        _Arg(("--samples",), "samples", int, 200),
        _Arg(("--seed",), "seed", int, 0, help="seed for 'search --random'"),
    )),
    "dhj": _Command(_cmd_dhj, "combinatorial space tools", (
        _JSON,
        _Arg((), "action", choices=("lines", "maxfree", "force", "correspond", "stationarity")),
        _Arg(("-k",), "k", int, 2),
        _Arg(("-N",), "N", int, 2),
        _Arg(("-L",), "L", int, 1),
        _Arg(("--set",), "set", help="JSON file with an array of words (correspond)"),
        _Arg(("--law",), "law", help="law truncation file (stationarity)"),
        _Arg(("--budget",), "budget", int, 5_000_000, help="search node budget (maxfree)"),
        _Arg(("--dim-cap",), "dim_cap", int, help="subspace dimension cap (stationarity)"),
    )),
    "rotation": _Command(_cmd_rotation, "group rotation membership and extension", (
        _JSON,
        _Arg(("--rotation",), "rotation", required=True),
        _Arg(("--extend",), "extend", bool, False),
    )),
    "validate": _Command(_cmd_validate, "validate a JSON document", (
        _JSON,
        _Arg(("--schema",), "schema", required=True),
        _Arg((), "file"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for the grammar of ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Exact checks for finite probability-preserving Z^d systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.args:
            if not arg.flags:
                p.add_argument(arg.dest, choices=arg.choices, help=arg.help)
            elif arg.type is bool:
                p.add_argument(*arg.flags, dest=arg.dest, action="store_true",
                               default=arg.default, help=arg.help)
            else:
                p.add_argument(*arg.flags, dest=arg.dest, type=arg.type, default=arg.default,
                               required=arg.required, choices=arg.choices, help=arg.help)
        p.set_defaults(func=command.func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first command line :func:`_read` declines
    and reused after it.

    Reuse is safe: ``parse_args`` reads the parser and fills a new
    namespace on every call, so no value of one call reaches the next.
    """
    return build_parser()


# Each command's tables for _read, built once: its options by flag, the
# namespace before any token is read (argparse's: the command, each
# argument's default, the handler), its positionals in order, and the dests
# every command line must set.
_READER = {
    name: (
        {flag: arg for arg in command.args for flag in arg.flags},
        {"command": name, **{arg.dest: arg.default for arg in command.args},
         "func": command.func},
        tuple(arg for arg in command.args if not arg.flags),
        frozenset(arg.dest for arg in command.args if arg.required or not arg.flags),
    )
    for name, command in _COMMANDS.items()
}


def _read(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` returns, read with one table
    lookup per token, or ``None`` where argparse must read ``argv``: a first
    token that is no command, any token not in the table (abbreviations,
    ``--opt=value``, ``-k2``, ``--``, ``-h``), a missing value or one that
    starts with ``-``, a failed ``type`` or ``choices`` check, a missing
    required argument and an extra positional.  So help and every usage
    error stay argparse's."""
    table = _READER.get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, positionals, needed = table
    values = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    free = iter(positionals)
    for token in tokens:
        arg = options.get(token)
        if arg is None:
            arg, value = next(free, None), token
            if arg is None:
                return None
        elif arg.type is bool:
            values[arg.dest] = True
            seen.add(arg.dest)
            continue
        else:
            value = next(tokens, None)
        if value is None or value[:1] == "-":
            return None
        try:
            value = arg.type(value)
        except ValueError:
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = value
        seen.add(arg.dest)
    if not needed <= seen:
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors, which this tool reserves for
            # non-exhaustive searches; remap to the input-error code.
            return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (ValueError, TypeError) as exc:  # ValidationError included
        print(canonical_dumps({"error": str(exc)}))
        return EXIT_INPUT
    except Exception as exc:
        # A bug, not a verdict: keep exit 1 for witnessed violations and
        # leave the traceback on stderr for the report.
        traceback.print_exc(file=sys.stderr)
        print(canonical_dumps({"error": f"internal error: {type(exc).__name__}: {exc}"}))
        return EXIT_INTERNAL
    finally:
        elapsed = time.perf_counter() - start
        print(f"# wall_time_s={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
