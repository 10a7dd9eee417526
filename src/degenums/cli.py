"""Command-line front end.

Subcommands: ``numbers`` (family tables), ``matrix`` (trapezoidal table
runs), ``verify`` (identity suite, nonzero exit on any failure) and
``audit`` (printed-matrix comparison, always exit 0 since mismatches are
findings).  Output is a structured JSON record by default or a flat
tab-separated table with ``--format flat``; every polynomial uses the
canonical text rendering.  A rational substitution for L can be supplied
as ``--lambda p/q``; decimals are rejected to preserve exactness.

Exit statuses: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import numbers as num
from .algorithms import SequenceSpec, build_table
from .audit import audit_printed_matrices, run_identity_suite
from .exact import LambdaPoly, format_rat, parse_rat

__all__ = ["OutputRecord", "build_parser", "main", "console_main"]

VERIFY_NMAX_CEILING = 30
VERIFY_ORDER_CEILING = 30

_SEED_NAMES = {
    "bernoulli": SequenceSpec.bernoulli,
    "half": SequenceSpec.half_powers,
    "bell": SequenceSpec.bell,
}

_SEQUENCE_FAMILIES = {
    "bernoulli": lambda nmax: num.bernoulli_deg_sequence(nmax),
    "euler": lambda nmax: num.euler_deg_sequence(nmax),
    "bell": lambda nmax: num.bell_deg_sequence(nmax),
    "bernoulli_at_one": lambda nmax: num.bernoulli_deg_poly_sequence(nmax, 1),
    "euler_at_one": lambda nmax: num.euler_deg_poly_sequence(nmax, 1),
}

_TRIANGLE_FAMILIES = {
    "stirling1": num.stirling1_table,
    "stirling2": num.stirling2_table,
}


@dataclass(frozen=True)
class OutputRecord:
    kind: str  # number_table | matrix | identity_report | audit_report
    payload: dict


def _lambda_arg(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fmt(p: LambdaPoly, lam: Fraction | None) -> str:
    if lam is None:
        return p.render()
    return format_rat(p.eval_at(lam))


def _load_custom_seed(path: str) -> SequenceSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read custom seed file {path!r}: {exc}") from None
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values.append(LambdaPoly.parse(line))
        except ValueError as exc:
            raise ValueError(f"custom seed file {path!r}, line {lineno}: {exc}") from None
    if not values:
        raise ValueError(f"custom seed file {path!r} contains no seed entries")
    return SequenceSpec.custom(values)


# -- subcommand handlers -----------------------------------------------------


def _cmd_numbers(args: argparse.Namespace) -> OutputRecord:
    if args.nmax < 0:
        raise ValueError("--nmax must be nonnegative")
    lam = args.lam
    payload: dict = {
        "family": args.family,
        "nmax": args.nmax,
        "lambda": format_rat(lam) if lam is not None else None,
    }
    if args.family in _TRIANGLE_FAMILIES:
        table = _TRIANGLE_FAMILIES[args.family](args.nmax)
        payload["rows"] = [
            [_fmt(table.entry(n, k), lam) for k in range(n + 1)]
            for n in range(args.nmax + 1)
        ]
    else:
        values = _SEQUENCE_FAMILIES[args.family](args.nmax)
        payload["values"] = [_fmt(v, lam) for v in values]
    return OutputRecord("number_table", payload)


def _cmd_matrix(args: argparse.Namespace) -> OutputRecord:
    if args.rows < 0:
        raise ValueError("--rows must be nonnegative")
    if (args.seed == "custom") != (args.custom_file is not None):
        raise ValueError("--custom-file is required exactly when --seed custom is used")
    if args.seed == "custom":
        seed = _load_custom_seed(args.custom_file)
    else:
        seed = _SEED_NAMES[args.seed]()
    table = build_table(args.kind, seed, args.rows)
    lam = args.lam
    payload = {
        "algorithm": args.kind,
        "seed": args.seed,
        "rows": args.rows,
        "lambda": format_rat(lam) if lam is not None else None,
        "table": [[_fmt(v, lam) for v in row] for row in table.rows],
    }
    return OutputRecord("matrix", payload)


def _cmd_verify(args: argparse.Namespace) -> tuple[OutputRecord, list[str]]:
    if not 0 <= args.nmax <= VERIFY_NMAX_CEILING:
        raise ValueError(f"--nmax must be in 0..{VERIFY_NMAX_CEILING}")
    if not 0 <= args.order <= VERIFY_ORDER_CEILING:
        raise ValueError(f"--order must be in 0..{VERIFY_ORDER_CEILING}")
    results = run_identity_suite(args.nmax, args.order, inject_fault=args.inject_fault)
    failed = [r.name for r in results if not r.passed]
    payload = {
        "nmax": args.nmax,
        "order": args.order,
        "all_pass": not failed,
        "results": [
            {"name": r.name, "max_tested": r.max_tested, "pass": r.passed}
            for r in results
        ],
    }
    return OutputRecord("identity_report", payload), failed


def _cmd_audit(args: argparse.Namespace) -> OutputRecord:
    results = audit_printed_matrices()
    payload = {
        "entries": [
            {
                "matrix": r.entry.matrix_id,
                "row": r.entry.row,
                "col": r.entry.col,
                "printed": r.entry.printed.render(),
                "recomputed": r.recomputed.render(),
                "match": r.match,
            }
            for r in results
        ],
        "mismatch_count": sum(1 for r in results if not r.match),
    }
    return OutputRecord("audit_report", payload)


# -- rendering ---------------------------------------------------------------


def to_structured(record: OutputRecord) -> str:
    return json.dumps({"kind": record.kind, "payload": record.payload}, indent=2) + "\n"


def to_flat(record: OutputRecord) -> str:
    p = record.payload
    lines: list[str] = []
    if record.kind == "number_table":
        if "rows" in p:
            for n, row in enumerate(p["rows"]):
                for k, value in enumerate(row):
                    lines.append(f"{n}\t{k}\t{value}")
        else:
            for n, value in enumerate(p["values"]):
                lines.append(f"{n}\t{value}")
    elif record.kind == "matrix":
        for n, row in enumerate(p["table"]):
            for m, value in enumerate(row):
                lines.append(f"{n}\t{m}\t{value}")
    elif record.kind == "identity_report":
        for r in p["results"]:
            state = "true" if r["pass"] else "false"
            lines.append(f"{r['name']}\t{r['max_tested']}\t{state}")
    else:
        for r in p["entries"]:
            state = "true" if r["match"] else "false"
            lines.append(
                f"{r['matrix']}\t{r['row']}\t{r['col']}\t"
                f"{r['printed']}\t{r['recomputed']}\t{state}"
            )
    return "".join(line + "\n" for line in lines)


# -- entry points --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenums",
        description="Exact tables of degenerate special numbers and the "
        "seed-to-sequence algorithms that generate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("structured", "flat"),
            default="structured",
            help="structured JSON record (default) or flat tab-separated rows",
        )

    def add_lambda(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--lambda",
            dest="lam",
            type=_lambda_arg,
            default=None,
            metavar="P/Q",
            help="evaluate every entry at this exact rational (integer or p/q)",
        )

    p_num = sub.add_parser("numbers", help="tables of the number families")
    p_num.add_argument(
        "family",
        choices=sorted(_SEQUENCE_FAMILIES) + sorted(_TRIANGLE_FAMILIES),
    )
    p_num.add_argument("--nmax", type=int, default=8, help="largest index (default 8)")
    add_lambda(p_num)
    add_format(p_num)

    p_mat = sub.add_parser("matrix", help="trapezoidal algorithm table runs")
    p_mat.add_argument("kind", choices=("A", "B"))
    p_mat.add_argument(
        "--seed", choices=("bernoulli", "half", "bell", "custom"), default="bernoulli"
    )
    p_mat.add_argument("--rows", type=int, default=4, help="number of rows (default 4)")
    p_mat.add_argument(
        "--custom-file",
        dest="custom_file",
        default=None,
        metavar="PATH",
        help="custom seed: one canonical polynomial per line, line n = entry n",
    )
    add_lambda(p_mat)
    add_format(p_mat)

    p_ver = sub.add_parser("verify", help="run the identity suite")
    p_ver.add_argument("--nmax", type=int, default=12)
    p_ver.add_argument("--order", type=int, default=12)
    p_ver.add_argument("--inject-fault", dest="inject_fault", default=None,
                       help=argparse.SUPPRESS)
    add_format(p_ver)

    p_aud = sub.add_parser("audit", help="recompute the printed reference matrices")
    add_format(p_aud)

    return parser


def _join_lambda_value(argv: list[str]) -> list[str]:
    # argparse takes "-3/7" after "--lambda" (or an abbreviation such as
    # "--lam") for an option, not a value
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if len(prev) >= 3 and "--lambda".startswith(prev) and not token.startswith("--"):
            out[-1] = f"--lambda={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_lambda_value(sys.argv[1:] if argv is None else argv))
    status = 0
    failed: list[str] = []
    try:
        if args.command == "numbers":
            record = _cmd_numbers(args)
        elif args.command == "matrix":
            record = _cmd_matrix(args)
        elif args.command == "verify":
            record, failed = _cmd_verify(args)
        else:
            record = _cmd_audit(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = to_structured(record) if args.format == "structured" else to_flat(record)
    sys.stdout.write(rendered)
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        status = 1
    return status


def console_main() -> None:
    sys.exit(main())
