"""Command-line interface: classify, quotient tables, checks, orders, witnesses, suite.

Exit codes: 0 when every verdict matches its prediction, 1 when a verdict
deviates from the prediction, 2 when a degree guard or bounded search gives
out, 3 on input errors.  All output is deterministic for a fixed
configuration, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chains import ChainError, ChainStore, DEFAULT_DEGREE_GUARD, DegreeGuardError, quotient
from .checks import (
    CHECKS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    GUARD,
    CheckError,
    CheckReport,
    dependent_witness,
    exceptional_witness,
    run_check,
    run_suite,
)
from .datum import DatumError, NumericalDatum, classify
from .words import ExceedsCap, GuardExceeded, WordError, branch_to_text, order, order_cap, parse_word

EXIT_OK = 0
EXIT_DEVIATION = 1
EXIT_GUARD = 2
EXIT_INPUT = 3

# What a command returns: its stdout lines, its JSON report less the
# "command" and "seed" keys that `main` adds, and its exit code.
Output = tuple[list[str], dict, int]


def _load_datum(value: str) -> NumericalDatum:
    """Accept a path to a datum file or the datum text itself."""
    if os.path.exists(value):
        with open(value) as fh:
            value = fh.read()
    return NumericalDatum.from_text(value)


def _report_exit(report: CheckReport) -> int:
    if report.verdict == GUARD:
        return EXIT_GUARD
    if not report.as_predicted:
        return EXIT_DEVIATION
    return EXIT_OK


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_classify(args: argparse.Namespace) -> Output:
    datum = _load_datum(args.datum)
    cls = classify(datum)
    fields = {
        "datum": datum.canonical_line(),
        "generators": datum.total_generators,
        "joint_span_dimension": cls.dimV,
        "torsion": cls.torsion,
        "constant_class": cls.in_G_class,
        "symmetric_class": cls.in_S_class,
        "exceptional_class": cls.in_E_class,
        "branch_over_derived": cls.branch_over_derived,
        "branch_over_gamma3_only": cls.branch_over_gamma3_only,
        "not_branch": cls.not_branch,
        "csp": cls.csp,
    }
    lines = [
        f"{key.replace('_', '-')}: {_yes(value) if isinstance(value, bool) else value}"
        for key, value in fields.items()
    ]
    lines.append("reasons:")
    lines.extend(f"  - {reason}" for reason in cls.reasons)
    return lines, {**fields, "reasons": list(cls.reasons)}, EXIT_OK


def cmd_quotient(args: argparse.Namespace) -> Output:
    datum = _load_datum(args.datum)
    if args.level is None or args.level < 1:
        raise CheckError("quotient needs --level >= 1")
    store = ChainStore(args.cache_dir)
    q = quotient(datum, args.level, degree_guard=args.modulus_guard, store=store)
    dims = q.full().dims()
    total = sum(dims)
    p = datum.p
    lines = [
        f"datum: {datum.canonical_line()}",
        f"level: {args.level}",
        f"order: {p}^{total}",
        "layers:",
    ]
    rows = []
    prefix = 0
    for k in range(1, args.level + 1):
        layer = dims[k - 1]
        prefix += layer
        rows.append({"k": k, "quotient": prefix, "kernel": total - prefix, "layer": layer})
        lines.append(
            f"  k={k}: quotient {p}^{prefix}, kernel {p}^{total - prefix}, layer {p}^{layer}"
        )
    payload = {
        "datum": datum.canonical_line(),
        "level": args.level,
        "p": p,
        "order_exponent": total,
        "layers": rows,
    }
    return lines, payload, EXIT_OK


def cmd_check(args: argparse.Namespace) -> Output:
    datum = _load_datum(args.datum)
    store = ChainStore(args.cache_dir)
    report = run_check(
        args.check,
        datum,
        level=args.level,
        aux_level=args.aux_level,
        word=args.word,
        seed=args.seed,
        samples=args.samples,
        store=store,
        degree_guard=args.modulus_guard,
    )
    return [report.to_text()], {"report": report.to_json()}, _report_exit(report)


def cmd_order(args: argparse.Namespace) -> Output:
    datum = _load_datum(args.datum)
    word = parse_word(args.word, datum)
    cap = order_cap(datum, args.cap)
    lines = [f"datum: {datum.canonical_line()}", f"word: {args.word}"]
    payload = {"datum": datum.canonical_line(), "word": args.word, "cap": cap}
    try:
        value = order(word, datum, cap=cap)
        lines.append(f"order: {value}")
        payload["order"] = value
    except ExceedsCap:
        lines.append(f"order: exceeds cap {cap}")
        payload["order"] = None
        payload["exceeds_cap"] = True
    return lines, payload, EXIT_OK


# Witness kind: the check that certifies it, and the builder whose last value
# is the witness element at the check's level.
WITNESSES = {
    "no-csp": ("csp-witness-dependent", dependent_witness),
    "exceptional": ("csp-witness-exceptional", exceptional_witness),
}


def cmd_witness(args: argparse.Namespace) -> Output:
    datum = _load_datum(args.datum)
    check, build = WITNESSES[args.kind]
    report = run_check(
        check,
        datum,
        level=args.level,
        aux_level=args.aux_level,
        store=ChainStore(args.cache_dir),
        degree_guard=args.modulus_guard,
    )
    witness_text = branch_to_text(build(datum, report.level)[-1], datum)
    payload = {"kind": args.kind, "witness_element": witness_text, "report": report.to_json()}
    return [f"witness-element: {witness_text}", report.to_text()], payload, _report_exit(report)


def cmd_suite(args: argparse.Namespace) -> Output:
    store = ChainStore(args.cache_dir)
    rows = run_suite(store=store, degree_guard=args.modulus_guard, seed=args.seed)
    lines = [f"suite: {len(rows)} checks, seed {args.seed}"]
    worst = EXIT_OK
    predicted = 0
    for name, report in rows:
        status = "as predicted" if report.as_predicted else "UNEXPECTED"
        predicted += report.as_predicted
        aux = f" m={report.aux_level}" if report.aux_level is not None else ""
        lines.append(
            f"{name:16s} {report.check:24s} n={report.level}{aux} -> "
            f"{report.verdict} [{status}]"
        )
        code = _report_exit(report)
        if code == EXIT_DEVIATION or (code == EXIT_GUARD and worst != EXIT_DEVIATION):
            worst = code
    lines.append(f"summary: {predicted} of {len(rows)} checks as predicted")
    payload = {
        "rows": [{"name": name, "report": report.to_json()} for name, report in rows],
        "summary": {"total": len(rows), "as_predicted": predicted},
    }
    return lines, payload, worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megs",
        description=(
            "Groups acting on the p-adic rooted tree from a numerical datum: "
            "classification, congruence quotients, finite-level checks."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--datum",
        required=False,
        help="datum file path or inline text, e.g. 'p = 3; E1 = (1, 2)'",
    )
    common.add_argument("--level", type=int, default=None, help="tree depth n")
    common.add_argument(
        "--aux-level", type=int, default=None, help="second depth m where a check uses one"
    )
    common.add_argument(
        "--modulus-guard",
        type=int,
        default=DEFAULT_DEGREE_GUARD,
        help="largest permitted number of tree leaves (default %(default)s)",
    )
    common.add_argument("--cache-dir", default=None, help="directory for chain caching")
    common.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for sampled certificates"
    )
    common.add_argument(
        "--json-report", default=None, help="also write a JSON report to this path"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[common], help=summary)
        cmd.set_defaults(handler=handler)
        return cmd

    command("classify", cmd_classify, "print the datum's classification")
    command("quotient", cmd_quotient, "print quotient orders and kernel layers")
    p_check = command("check", cmd_check, "run one finite-level check")
    p_check.add_argument("check", choices=list(CHECKS), metavar="check")
    p_check.add_argument("--word", default=None, help="witness word for checks that take one")
    p_check.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, help="sample count for seeded certificates"
    )
    p_order = command("order", cmd_order, "order of a word's image")
    p_order.add_argument("word", help="word, e.g. 'a b[1,1]^2'")
    p_order.add_argument("--cap", type=int, default=None, help="give up above this order")
    p_witness = command("witness", cmd_witness, "build and certify a congruence-defect witness")
    p_witness.add_argument("kind", choices=list(WITNESSES), metavar="kind")
    command("suite", cmd_suite, "run the default check matrix")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        if args.command != "suite" and not args.datum:
            raise CheckError(f"{args.command} needs --datum")
        lines, payload, code = args.handler(args)
        print("\n".join(lines))
        if args.json_report is not None:
            with open(args.json_report, "w") as fh:
                json.dump({"command": args.command, "seed": args.seed, **payload}, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return code
    except (DegreeGuardError, GuardExceeded) as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (DatumError, WordError, CheckError, ChainError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
