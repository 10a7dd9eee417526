"""Byte-identity guard for the CLI.

Each command below has the sha256 of its exit status, stdout and stderr
pinned in ``tests/data/cli_digests.json``.  A change that alters any byte of
the output of one of them fails here and names the command.  When an output
change is intended, regenerate the file from the repository root with

    PYTHONPATH=src python3 tests/test_cli_digests.py > tests/data/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from degenums.cli import main

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"

FAMILIES = (
    "bernoulli", "euler", "bell", "bernoulli_at_one", "euler_at_one", "stirling1", "stirling2",
)
LAMBDAS = ((), ("--lambda=1/2",), ("--lambda=-3/7",))


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
    return [argv + fmt for argv in out for fmt in ((), ("--format", "flat"))]


def digest(argv: tuple[str, ...]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(list(argv))
    text = json.dumps([status, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def current() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in commands()}


def test_cli_output_is_byte_identical_to_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    now = current()
    assert sorted(now) == sorted(pinned), "command matrix differs from the pinned file"
    changed = [cmd for cmd in now if now[cmd] != pinned[cmd]]
    assert not changed, "output changed for: " + "; ".join(changed)


if __name__ == "__main__":
    print(json.dumps(current(), indent=1))
