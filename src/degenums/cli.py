"""Command-line front end.

Subcommands: ``numbers`` (family tables), ``matrix`` (trapezoidal table
runs), ``verify`` (identity suite, nonzero exit on any failure) and
``audit`` (printed-matrix comparison, always exit 0 since mismatches are
findings).  Output is a structured JSON record by default or a flat
tab-separated table with ``--format flat``; every polynomial uses the
canonical text rendering.  An ``OutputRecord`` holds exact values, not their
text, and can be written again.  ``json`` writes it, but for a table's one
row field, whose values are rendered one row per write in either format, so
a table is never held as text.  A symbolic ``matrix`` table or
``numbers stirling1|stirling2`` triangle streams its rows, each built from
the one before as it is written and none kept; the symbolic ``numbers
bernoulli|euler|bell`` stream the second-kind triangle's rows the same way,
each row becoming one value (``numbers.row_sums``).  From ``--rows`` or
``--nmax`` 66 up such a stream forks one child before its recurrence: this
process runs the recurrence, ships two rows in three to the child as
integers through a memory file and renders the third, and the child renders
(or sums and renders) the rows it is shipped; the output is byte-identical
and still one row per write.  The ``*_at_one`` families and everything at a
rational L are built whole and render here, as does every row where nothing
forks: below 66, where the platform cannot fork or make a memory file, where
either fails or a pipe does, on one CPU, or beside other threads.  ``verify``
checks its identities on two processes under the same rule, through the same
helper (``audit._split_map``), and renders its small report here.  A
rational substitution for L can be supplied as ``--lambda p/q``; decimals
are rejected to preserve exactness.  With it, ``numbers`` and ``matrix`` run
their recurrences at that value directly.  Sizes are bounded: ``numbers
--nmax`` and ``matrix --rows`` in 0..200, ``verify --nmax`` and ``--order``
in 0..30, custom seed degrees in L to 200.

Exit statuses: 0 success, 1 verification failure, 2 usage or input error
or output that cannot be written (a closed stdout, a full device), with one
``error:`` line on stderr, and 141 when the reader closes stdout early
(128 + SIGPIPE), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial
from typing import TextIO

from . import numbers as num
from .algorithms import SequenceSpec, build_table, table_rows
from .audit import _split_map, audit_printed_matrices, run_identity_suite
from .exact import LAM, LambdaPoly, Value, format_rat, parse_rat

__all__ = ["OutputRecord", "build_parser", "main", "console_main"]

VERIFY_NMAX_CEILING = 30
VERIFY_ORDER_CEILING = 30
NUMBERS_NMAX_CEILING = 200
MATRIX_ROWS_CEILING = 200
_POWERS = re.compile(r"L\^0*(\d+)")

_SEED_NAMES = {
    "bernoulli": SequenceSpec.bernoulli,
    "half": SequenceSpec.half_powers,
    "bell": SequenceSpec.bell,
}

_SEQUENCE_FAMILIES = {
    "bernoulli": lambda nmax, lam: num.bernoulli_deg_sequence(nmax, lam),
    "euler": lambda nmax, lam: num.euler_deg_sequence(nmax, lam),
    "bell": lambda nmax, lam: num.bell_deg_sequence(nmax, lam=lam),
    "bernoulli_at_one": lambda nmax, lam: num.bernoulli_deg_poly_sequence(nmax, 1, lam),
    "euler_at_one": lambda nmax, lam: num.euler_deg_poly_sequence(nmax, 1, lam),
}

# one value per row of the symbolic second-kind triangle (numbers.row_sums)
_ROW_FAMILIES = ("bernoulli", "euler", "bell")

_TRIANGLE_FAMILIES = {
    "stirling1": num.stirling1_table,
    "stirling2": num.stirling2_table,
}


class OutputRecord(namedtuple("OutputRecord", "kind payload")):
    # kind: number_table | matrix | identity_report | audit_report
    # payload: a dict of exact values (LambdaPoly, Fraction), rendered only by the writers
    __slots__ = ()


def _lambda_arg(text: str) -> Fraction:
    try:
        q = parse_rat(text)
        if max(abs(q.numerator), q.denominator) >= 10**10:
            # with the size ceilings, bounds every integer a run builds and prints
            raise ValueError(f"P and Q must have at most 10 digits: {text!r}")
        return q
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fmt(value: Value) -> str:
    if isinstance(value, LambdaPoly):
        return value.render()
    return format_rat(value)


def _check_size(flag: str, value: int, ceiling: int) -> None:
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative")
    if value > ceiling:
        raise ValueError(f"{flag} must be in 0..{ceiling}")


def _load_custom_seed(path: str, count: int) -> SequenceSpec:
    """The first ``count`` entries of a custom seed file, read line by line;
    reading stops after the last of them, so the lines after it are not
    parsed."""
    values = []
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            # str.splitlines of each physical line numbers the lines as it
            # does on the whole text, form feeds and other breaks included
            lines = (line for physical in handle for line in physical.splitlines())
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    # the degree and digits are read off the text, before parse allocates them
                    degrees = _POWERS.findall(line)
                    if any(len(d) > 3 or int(d) > MATRIX_ROWS_CEILING for d in degrees):
                        raise ValueError(f"degree in L must be at most {MATRIX_ROWS_CEILING}")
                    if re.search(r"\d{11}", line):
                        raise ValueError("numerators and denominators must have at most 10 digits")
                    values.append(LambdaPoly.parse(line))
                except ValueError as exc:
                    raise ValueError(f"custom seed file {path!r}, line {lineno}: {exc}") from None
                if len(values) == count:
                    break
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read custom seed file {path!r}: {exc}") from None
    if not values:
        raise ValueError(f"custom seed file {path!r} contains no seed entries")
    return SequenceSpec.custom(values)


# -- subcommand handlers -----------------------------------------------------


def _cmd_numbers(args: argparse.Namespace) -> OutputRecord:
    _check_size("--nmax", args.nmax, NUMBERS_NMAX_CEILING)
    lam = args.lam
    payload: dict = {
        "family": args.family,
        "nmax": args.nmax,
        "lambda": lam,
    }
    n = args.nmax
    if args.family in _TRIANGLE_FAMILIES:
        if lam is None:
            payload["rows"] = _Stream(partial(num.triangle_rows, n, args.family == "stirling1"), n + 1)
        else:
            payload["rows"] = _TRIANGLE_FAMILIES[args.family](n, lam).entries
    elif lam is None and args.family in _ROW_FAMILIES:
        payload["values"] = _Stream(partial(num.triangle_rows, n), n + 1, num.row_sums(args.family, n))
    else:
        payload["values"] = _SEQUENCE_FAMILIES[args.family](n, LAM if lam is None else lam)
    return OutputRecord("number_table", payload)


def _cmd_matrix(args: argparse.Namespace) -> OutputRecord:
    _check_size("--rows", args.rows, MATRIX_ROWS_CEILING)
    if (args.seed == "custom") != (args.custom_file is not None):
        raise ValueError("--custom-file is required exactly when --seed custom is used")
    lam = args.lam
    if args.seed == "custom":
        seed = _load_custom_seed(args.custom_file, args.rows + 1)
    else:
        seed = _SEED_NAMES[args.seed]()
    if lam is None:  # row 0 here: a short custom seed raises before any output
        table = _Stream(partial(table_rows, args.kind, seed.values(args.rows + 1)), args.rows + 1)
    else:  # at most 20,301 cells at the 200 ceilings
        table = build_table(args.kind, seed, args.rows, lam).rows
    payload = {
        "algorithm": args.kind,
        "seed": args.seed,
        "rows": args.rows,
        "lambda": lam,
        "table": table,
    }
    return OutputRecord("matrix", payload)


def _cmd_verify(args: argparse.Namespace) -> tuple[OutputRecord, list[str]]:
    _check_size("--nmax", args.nmax, VERIFY_NMAX_CEILING)
    _check_size("--order", args.order, VERIFY_ORDER_CEILING)
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
                "printed": r.entry.printed,
                "recomputed": r.recomputed,
                "match": r.match,
            }
            for r in results
        ],
        "mismatch_count": sum(1 for r in results if not r.match),
    }
    return OutputRecord("audit_report", payload)


# -- rendering ---------------------------------------------------------------

# A stream whose last row is at least this (``--rows`` or ``--nmax`` of 66 or
# more) forks before its recurrence; a shorter one never does.  Measured on a
# 2-CPU host, flat output to /dev/null, fresh processes, medians of 11
# alternated runs, each forked against the same command on one CPU, where its
# rows stream through one process: below 66 a fork loses, `matrix B --seed
# bernoulli --rows 52|58|65` took 1.04/1.10/1.21 of the one-CPU time; at 66 it
# is about even, 0.96-1.06 (`--seed bernoulli|half`, `numbers stirling2`);
# from 80 rows it pays, `--seed bernoulli --rows 80` 0.67 and `--rows 100` 0.62.
_FORK_ROWS = 66

# The rows of a symbolic table or triangle, which ``_write_rows`` renders:
# ``rows()`` yields its ``count`` rows, each built only when it is asked for,
# afresh at each call, so a record can be written more than once.  With
# ``sums``, the stream is a list of values, value n being ``sums`` of row n.
# A stream is symbolic: ``_pack_row`` ships the parts of a LambdaPoly and has
# none for a Fraction, so a table at a rational L is a list and never forks.
_Stream = namedtuple("_Stream", "rows count sums", defaults=(None,))


def _json_row(n: int, row) -> str:
    """Row n of exact values as json.dumps writes it in a table's row field."""
    return '[\n        "' + '",\n        "'.join(map(_fmt, row)) + '"\n      ]' if row else "[]"


def _flat_row(n: int, row) -> str:
    return "".join(f"{n}\t{k}\t{_fmt(v)}\n" for k, v in enumerate(row))


def _pack_row(item) -> tuple:
    n, row = item
    return n, tuple(v.parts() for v in row)


def _unpack_row(data) -> tuple:
    n, row = data
    return n, tuple(LambdaPoly.from_parts(*cell) for cell in row)


def _write_rows(rows, row_text, out: TextIO, first: str = "", between: str = "") -> None:
    """Write ``row_text(n, row)`` of each row in one write, ``first`` before
    row 0 and ``between`` before each later row; a stream with ``sums``
    writes ``row_text(n, sums(row))``.  Every row of a ``_Stream`` is built
    as it is written, and a stream whose last row is ``_FORK_ROWS`` or later
    renders on two processes (see ``audit._split_map``): this process runs
    the recurrence and renders rows 0, 3, 6, ..., and a child forked before
    row 1 renders (or sums and renders) the others from the integers this
    process ships it.  A row the child does not send back in full is
    rendered here, so the output is the same bytes either way."""
    sums, theirs = None, ()
    if isinstance(rows, _Stream):
        theirs = {n for n in range(rows.count) if n % 3} if rows.count > _FORK_ROWS else ()
        rows, sums = rows.rows(), rows.sums

    def work(item):
        n, row = item
        return row_text(n, sums(row) if sums else row)

    texts = _split_map(work, enumerate(rows), theirs, _pack_row, _unpack_row)
    try:
        for n, text in enumerate(texts):
            out.write(between if n else first)
            out.write(text)
    finally:
        texts.close()  # a failed write reaps the child now, not when the traceback goes


def _row_field(record: OutputRecord) -> str | None:
    """The one payload field of a table that is written one row per write,
    its last key (``values``, ``rows`` or ``table``); a report has none."""
    return [*record.payload][-1] if record.kind in ("number_table", "matrix") else None


def to_structured(record: OutputRecord, out: TextIO) -> None:
    """Write json.dumps(record, indent=2) and a newline, an exact value as
    its quoted rendering (the canonical alphabet [0-9/*L^ +-] needs no JSON
    escape), a table's row field through ``_write_rows`` at json's indent."""
    field, p = _row_field(record), record.payload
    if field is None or not p[field]:
        out.write(json.dumps(record._asdict(), indent=2, default=_fmt) + "\n")
        return
    head = json.dumps({"kind": record.kind, "payload": {**p, field: []}}, indent=2, default=_fmt)
    out.write(head.removesuffix("[]\n  }\n}"))
    row_text = (lambda n, value: f'"{_fmt(value)}"') if field == "values" else _json_row
    _write_rows(p[field], row_text, out, "[\n      ", ",\n      ")
    out.write("\n    ]\n  }\n}\n")


def to_flat(record: OutputRecord, out: TextIO) -> None:
    field, p = _row_field(record), record.payload
    if field == "values":
        _write_rows(p[field], lambda n, value: f"{n}\t{_fmt(value)}\n", out)
    elif field:
        _write_rows(p[field], _flat_row, out)
    elif record.kind == "identity_report":
        for r in p["results"]:
            state = "true" if r["pass"] else "false"
            out.write(f"{r['name']}\t{r['max_tested']}\t{state}\n")
    else:
        for r in p["entries"]:
            state = "true" if r["match"] else "false"
            out.write(
                f"{r['matrix']}\t{r['row']}\t{r['col']}\t"
                f"{_fmt(r['printed'])}\t{_fmt(r['recomputed'])}\t{state}\n"
            )


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
    p_mat.add_argument("--seed", choices=(*_SEED_NAMES, "custom"), default="bernoulli")
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
        # the inputs bound every output: none stops part way at int-to-text's limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            (to_structured if args.format == "structured" else to_flat)(record, sys.stdout)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    except ValueError as exc:  # input errors, before any output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        status = 1
    return status


def console_main() -> None:
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        status = main()
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe is SIGPIPE's quiet status, any other failed write an
        # output error; what is still buffered goes to os.devnull
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141 if isinstance(exc, BrokenPipeError) else 2
        if status == 2 and sys.stderr is not None:
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
    sys.exit(status)
