"""Content checks of CLI output against the oracles in ``oracles.py``.

A check parses one job's captured output and raises ``CheckFailed`` on the
first disagreement.  Symbolic cells are parsed with ``LambdaPoly.parse``,
must be the canonical rendering of what they parse to, and must agree with
the scalar oracle at a drawn rational L and with the classical value at
L = 0.  Cells printed at ``--lambda`` must read exactly as the canonical text
of the oracle value.  Output fields the check does not know are ignored, so
fields added to the output later are not failures.

Each check returns the cost drivers of the output: the largest degree in L
and the largest bit length of a coefficient's numerator or denominator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Job:
    name: str
    argv: list[str]
    check: Callable[[str, int], dict]  # (output text, exit status) -> cost drivers


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class _Drivers:
    def __init__(self) -> None:
        self.max_degree = 0
        self.max_coeff_bits = 0

    def add(self, degree: int, bits: int) -> None:
        self.max_degree = max(self.max_degree, degree)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def result(self) -> dict:
        return {"max_degree": self.max_degree, "max_coeff_bits": self.max_coeff_bits}


class CellChecker:
    """Checks rendered cells against expected values at ``lam`` and at 0.

    With ``evaluated`` the output was printed at ``--lambda=lam``: each cell
    is a rational and must read as the canonical text of ``at_lam``.
    """

    def __init__(self, lam: Fraction, evaluated: bool) -> None:
        from degenums.exact import LambdaPoly

        self.parse = LambdaPoly.parse
        self.lam = lam
        self.evaluated = evaluated
        self.drivers = _Drivers()

    def cell(self, text: str, at_lam: Fraction, at_zero: Fraction, where: str) -> None:
        if self.evaluated:
            _expect(text == oracles.render_rat(at_lam),
                    f"{where}: {text!r} != {oracles.render_rat(at_lam)!r}")
            self.drivers.add(0, _bits(at_lam))
            return
        try:
            coeffs = list(self.parse(text).coeffs)
        except ValueError as exc:
            raise CheckFailed(f"{where}: unparsable cell: {exc}") from None
        _expect(oracles.render_poly(coeffs) == text, f"{where}: non-canonical text {text[:60]!r}")
        _expect((coeffs[0] if coeffs else 0) == at_zero,
                f"{where}: value at L=0 is not {at_zero}")
        _expect(self._at(coeffs) == at_lam, f"{where}: value at L={self.lam} is not {at_lam}")
        self.drivers.add(len(coeffs) - 1, max(map(_bits, coeffs), default=0))

    def _at(self, coeffs: list[Fraction]) -> Fraction:
        # Horner over a common denominator, in integers: the same value as
        # oracles.poly_at at a fraction of the cost on wide coefficients.
        if not coeffs:
            return Fraction(0)
        p, q = self.lam.numerator, self.lam.denominator
        den = math.lcm(*(c.denominator for c in coeffs))
        d = len(coeffs) - 1
        acc, qpow = 0, 1
        for c in reversed(coeffs):
            acc = acc * p + c.numerator * (den // c.denominator) * qpow
            qpow *= q
        return Fraction(acc, den * q**d)


def _load(text: str, kind: str) -> dict:
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    _expect(record.get("kind") == kind, f"kind is {record.get('kind')!r}, not {kind!r}")
    return record["payload"]


def _lambda_field(lam: Fraction, evaluated: bool) -> str | None:
    return oracles.render_rat(lam) if evaluated else None


# -- job checks -------------------------------------------------------------------


def bernoulli_numbers(nmax: int, lam: Fraction, evaluated: bool) -> Callable:
    """``numbers bernoulli --nmax N``, structured output, checked at L = lam;
    with ``evaluated`` the job ran with ``--lambda=lam``."""
    expected = oracles.degenerate_bernoulli(nmax, lam)
    classical = oracles.classical_bernoulli(nmax)

    def check(text: str, status: int) -> dict:
        _expect(status == 0, f"exit status {status}")
        p = _load(text, "number_table")
        _expect(p.get("family") == "bernoulli" and p.get("nmax") == nmax, "wrong header")
        _expect(p.get("lambda") == _lambda_field(lam, evaluated),
                f"lambda field {p.get('lambda')!r}")
        values = p.get("values")
        _expect(isinstance(values, list) and len(values) == nmax + 1, "wrong number of values")
        cells = CellChecker(lam, evaluated)
        for n, text_n in enumerate(values):
            cells.cell(text_n, expected[n], classical[n], f"value {n}")
        return cells.drivers.result()

    return check


def table_run(kind: str, seed_name: str, seed_lam: Callable[[Fraction], list[Fraction]],
              rows: int, lam: Fraction, evaluated: bool, flat: bool = False) -> Callable:
    """``matrix KIND --seed SEED --rows R [--format flat]``, checked at L = lam;
    with ``evaluated`` the job ran with ``--lambda=lam``.

    ``seed_lam(x)`` gives the seed entries at L = x.
    """
    expected = oracles.table(kind, seed_lam(lam), rows, lam)
    at_zero = oracles.table(kind, seed_lam(Fraction(0)), rows, Fraction(0))

    def cells_of(text: str):
        if not flat:
            p = _load(text, "matrix")
            _expect((p.get("algorithm"), p.get("seed"), p.get("rows")) == (kind, seed_name, rows),
                    "wrong header")
            _expect(p.get("lambda") == _lambda_field(lam, evaluated),
                    f"lambda field {p.get('lambda')!r}")
            table = p.get("table")
            _expect(isinstance(table, list) and [len(r) for r in table]
                    == [rows + 1 - n for n in range(rows + 1)], "wrong table shape")
            for n, row in enumerate(table):
                for m, cell in enumerate(row):
                    yield n, m, cell
            return
        lines = text.splitlines()
        _expect(len(lines) == (rows + 1) * (rows + 2) // 2, "wrong number of flat rows")
        index = ((n, m) for n in range(rows + 1) for m in range(rows + 1 - n))
        for line, (n, m) in zip(lines, index):
            fields = line.split("\t")
            _expect(len(fields) == 3 and fields[:2] == [str(n), str(m)],
                    f"flat row {line[:40]!r} is not cell ({n}, {m})")
            yield n, m, fields[2]

    def check(text: str, status: int) -> dict:
        _expect(status == 0, f"exit status {status}")
        cells = CellChecker(lam, evaluated)
        for n, m, cell in cells_of(text):
            cells.cell(cell, expected[n][m], at_zero[n][m], f"cell ({n}, {m})")
        return cells.drivers.result()

    return check


# Identity name -> (CLI argument that bounds it, cap in the suite).
IDENTITY_CAPS = {
    "stirling2_three_way": ("nmax", 15),
    "classical_limits_at_lambda0": ("nmax", 20),
    "bernoulli_euler_series_match": ("nmax", 20),
    "bell_series_match": ("nmax", 12),
    "stirling1_inversions": ("nmax", 18),
    "final_vs_closed_form": ("nmax", 24),
    "named_family_identification": ("nmax", 24),
    "ogf_egf_transforms": ("order", 20),
    "stirling2_shift_identity": ("nmax", 15),
    "classical_table_degeneration": ("nmax", 12),
    "exp_log_compositional_inverse": ("order", 24),
    "derivation_operator_rows": ("order", 6),
}


def identity_suite(nmax: int, order: int) -> Callable:
    """``verify --nmax N --order K``: every identity present, passing, at its cap."""
    bound = {"nmax": nmax, "order": order}

    def check(text: str, status: int) -> dict:
        _expect(status == 0, f"exit status {status}")
        p = _load(text, "identity_report")
        _expect(p.get("all_pass") is True, "all_pass is not true")
        results = {r.get("name"): r for r in p.get("results", [])}
        for name, (arg, cap) in IDENTITY_CAPS.items():
            _expect(name in results, f"identity {name} missing")
            r = results[name]
            _expect(r.get("pass") is True, f"identity {name} failed")
            _expect(r.get("max_tested") == min(bound[arg], cap),
                    f"identity {name} tested to {r.get('max_tested')}")
        return {"max_degree": 0, "max_coeff_bits": 0}

    return check


AUDIT_ENTRIES = 41
AUDIT_MISMATCHES = 21
AUDIT_MATRICES = {"bernoulli_B": "bernoulli", "half_powers_B": "half", "bell_B": "bell"}


def printed_matrix_audit(check_lam: Fraction) -> Callable:
    """``audit``: 41 entries, 21 mismatches, the row-3 Bernoulli misprint among
    them, and every recomputed entry equal to the kind-B recurrence."""

    def check(text: str, status: int) -> dict:
        _expect(status == 0, f"exit status {status}")
        p = _load(text, "audit_report")
        entries = p.get("entries", [])
        _expect(len(entries) == AUDIT_ENTRIES, f"{len(entries)} entries")
        mismatches = [e for e in entries if e.get("match") is False]
        _expect(len(mismatches) == AUDIT_MISMATCHES == p.get("mismatch_count"),
                f"{len(mismatches)} mismatches, mismatch_count {p.get('mismatch_count')}")
        _expect(any((e["matrix"], e["row"], e["col"]) == ("bernoulli_B", 3, 0)
                    for e in mismatches), "row-3 Bernoulli misprint not reported")
        rows = max(e["row"] + e["col"] for e in entries)
        _expect(rows <= 16, "audit entry outside the printed corpus")
        expected = {
            mid: [oracles.table("B", oracles.SEEDS[seed](rows + 1, x), rows, x)
                  for x in (check_lam, Fraction(0))]
            for mid, seed in AUDIT_MATRICES.items()
        }
        cells = CellChecker(check_lam, evaluated=False)
        for e in entries:
            at_lam, at_zero = expected[e["matrix"]]
            where = f"{e['matrix']} ({e['row']}, {e['col']})"
            cells.cell(e["recomputed"], at_lam[e["row"]][e["col"]],
                       at_zero[e["row"]][e["col"]], where)
            _expect(e["match"] == (e["printed"] == e["recomputed"]), f"{where}: wrong match flag")
        return cells.drivers.result()

    return check
