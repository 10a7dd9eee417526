"""Byte-identity guard for the CLI.

Each command below has the sha256 of its exit status, stdout and stderr
pinned in ``tests/data/cli_digests.json``.  A change that alters any byte of
the output of one of them fails here and names the command.  When an output
change is intended, regenerate the file from the repository root with

    PYTHONPATH=src python3 tests/test_cli_digests.py > tests/data/cli_digests.json

The tables at a rational L have a second, larger guard above those 20-row
commands: 120 rows of every seed, a custom one included, and the 120-row
Stirling triangles, at four values of L from 0 to a ratio of two 10-digit
integers.  Each record is built once and written in both formats, and the
sha256 of each output is pinned in ``tests/data/rational_digests.json``;
regenerate it with

    PYTHONPATH=src python3 tests/test_cli_digests.py rational > tests/data/rational_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from degenums import cli
from degenums.cli import main
from degenums.exact import LambdaPoly

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
RATIONAL_DIGESTS = Path(__file__).parent / "data" / "rational_digests.json"

FAMILIES = (
    "bernoulli", "euler", "bell", "bernoulli_at_one", "euler_at_one", "stirling1", "stirling2",
)
LAMBDAS = ((), ("--lambda=1/2",), ("--lambda=-3/7",))
RATIONAL_LAMBDAS = ("-3/7", "2", "0", "9999999999/9999999998")
FORMATS = ((), ("--format", "flat"))
# the custom seed's file, named by this placeholder in the pinned commands
CUSTOM = "custom_seed.txt"


def commands() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for lam in LAMBDAS:
        out += [("numbers", f, "--nmax", "20", *lam) for f in FAMILIES]
        out += [
            ("matrix", kind, "--seed", seed, "--rows", "20", *lam)
            for kind in ("A", "B")
            for seed in ("bernoulli", "half", "bell")
        ]
    out += [("verify", "--nmax", "8", "--order", "8"), ("audit",)]
    return [argv + fmt for argv in out for fmt in FORMATS]


def rational_records() -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []
    for lam in RATIONAL_LAMBDAS:
        out += [
            ("matrix", kind, "--seed", seed, "--rows", "120", f"--lambda={lam}")
            for kind in ("A", "B")
            for seed in ("bernoulli", "half", "bell")
        ]
        out += [
            ("matrix", kind, "--seed", "custom", "--custom-file", CUSTOM, "--rows", "120",
             f"--lambda={lam}")
            for kind in ("A", "B")
        ]
        out += [("numbers", f, "--nmax", "120", f"--lambda={lam}") for f in ("stirling1", "stirling2")]
    return out


def write_custom_seed(path: Path) -> None:
    """121 entries of degree 0 to 2 in L, every one a different rational."""
    lines = [
        LambdaPoly((Fraction((-1) ** n * (n + 1), n + 2), 0, Fraction(n % 5, 3))).render()
        for n in range(121)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digest(argv: tuple[str, ...]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(list(argv))
    text = json.dumps([status, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def current() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in commands()}


class _Sha256(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


def current_rational(folder: Path) -> dict[str, str]:
    path = folder / CUSTOM
    write_custom_seed(path)
    out = {}
    for argv in rational_records():
        args = cli.build_parser().parse_args([str(path) if a == CUSTOM else a for a in argv])
        record = (cli._cmd_matrix if args.command == "matrix" else cli._cmd_numbers)(args)
        for fmt, write in zip(FORMATS, (cli.to_structured, cli.to_flat)):
            sink = _Sha256()
            write(record, sink)
            out[" ".join(argv + fmt)] = sink.sha.hexdigest()
    return out


def _changed(now: dict[str, str], pinned: dict[str, str]) -> list[str]:
    assert sorted(now) == sorted(pinned), "command matrix differs from the pinned file"
    return [cmd for cmd in now if now[cmd] != pinned[cmd]]


def test_cli_output_is_byte_identical_to_the_pinned_digests():
    changed = _changed(current(), json.loads(DIGESTS.read_text()))
    assert not changed, "output changed for: " + "; ".join(changed)


def test_rational_tables_are_byte_identical_to_the_pinned_digests(tmp_path):
    changed = _changed(current_rational(tmp_path), json.loads(RATIONAL_DIGESTS.read_text()))
    assert not changed, "output changed for: " + "; ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] == ["rational"]:
        with tempfile.TemporaryDirectory() as folder:
            print(json.dumps(current_rational(Path(folder)), indent=1))
    else:
        print(json.dumps(current(), indent=1))
