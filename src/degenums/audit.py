"""Cross-verification: identity suite and printed-matrix audit.

Two jobs live here.  ``run_identity_suite`` evaluates every bundled identity
over configurable ranges, each by two or more independent computation paths,
and reports one pass/fail result per identity.  ``audit_printed_matrices``
recomputes a transcribed corpus of printed reference versions of three
example table runs (kind B with the three bundled seeds) and reports a
per-entry match flag; several printed interior entries disagree with the
recurrence, so mismatches are findings to report, never failures.

The oracles at the bottom (classical weight-free tables, basis-expansion
Stirling numbers) are deliberately separate code paths from the modules they
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import (
    SequenceSpec,
    build_table,
    closed_form_final_sequence,
    final_sequence,
    inverse_transform_check,
    transform_check,
)
from .exact import LAM, ONE, ZERO, LambdaPoly, classical_falling
from .numbers import (
    bell_deg_sequence,
    bernoulli_deg_poly_sequence,
    bernoulli_deg_sequence,
    classical_bell,
    classical_bernoulli,
    classical_euler,
    euler_deg_poly_sequence,
    euler_deg_sequence,
    stirling1_table,
    stirling2_table,
)
from .series import (
    StirlingTable,
    TruncatedSeries,
    apply_weighted_derivation,
    e_lambda_series,
    log_lambda_series,
    powers,
    stirling2_from_series,
)

__all__ = [
    "PrintedEntry",
    "MatrixAuditResult",
    "IdentityResult",
    "PRINTED_MATRIX_CORPUS",
    "IDENTITY_NAMES",
    "run_identity_suite",
    "audit_printed_matrices",
    "classical_algorithm_table",
    "stirling2_by_basis_expansion",
]


@dataclass(frozen=True)
class PrintedEntry:
    """One explicitly printed entry of a reference matrix (no ellipses)."""

    matrix_id: str
    row: int
    col: int
    printed: LambdaPoly


@dataclass(frozen=True)
class MatrixAuditResult:
    entry: PrintedEntry
    recomputed: LambdaPoly
    match: bool


@dataclass(frozen=True)
class IdentityResult:
    name: str
    max_tested: int
    passed: bool


# -- printed corpus ----------------------------------------------------------

def _corpus() -> tuple[PrintedEntry, ...]:
    P = LambdaPoly
    F = Fraction
    one_m = P((1, -1))   # 1 - L
    two_m = P((2, -1))   # 2 - L
    bernoulli = {
        (0, 0): ONE,
        (0, 1): one_m.scale(F(1, 2)),
        (0, 2): (two_m * one_m).scale(F(1, 6)),
        (1, 0): one_m.scale(F(-1, 2)),
        (1, 1): (one_m * P((-1, 2))).scale(F(1, 6)),
        (1, 2): (two_m * one_m * P((-1, 3))).scale(F(1, 24)),
        (2, 0): P((1, 0, -1)).scale(F(1, 6)),
        (2, 1): (LAM * one_m * one_m).scale(F(-1, 12)),
        (2, 2): (two_m * one_m * P((1, -6, 27))).scale(F(-1, 120)),
        (3, 0): (LAM * one_m * one_m * P((1, -2))).scale(F(1, 4)),
        (3, 1): (one_m * P((-2, 18, -11, 37))).scale(F(1, 60)),
    }
    half = {
        (0, 0): ONE,
        (0, 1): P.constant(F(1, 2)),
        (0, 2): P.constant(F(1, 4)),
        (0, 3): P.constant(F(1, 8)),
        (0, 4): P.constant(F(1, 16)),
        (1, 0): P.constant(F(-1, 2)),
        (1, 1): ZERO,
        (1, 2): P.constant(F(-1, 8)),
        (1, 3): P.constant(F(1, 8)),
        (2, 0): ZERO,
        (2, 1): P.constant(F(1, 4)),
        (2, 2): P((F(-5, 8), F(1, 8))),
        (3, 0): P.constant(F(1, 4)),
        (3, 1): P((F(2, 3), F(-3, 4))),
    }
    bell = {
        (0, 0): ZERO,
        (0, 1): P.constant(-1),
        (0, 2): ONE,
        (0, 3): P.constant(-1),
        (0, 4): ONE,
        (1, 0): ONE,
        (1, 1): P.constant(-2),
        (1, 2): P.constant(5),
        (1, 3): P.constant(-7),
        (1, 4): P.constant(9),
        (2, 0): two_m,
        (2, 1): P((-12, 2)),
        (2, 2): P((31, -5)),
        (2, 3): P((-57, 7)),
        (3, 0): P((6, -8, 2)),
        (3, 1): P((-74, 36, -4)),
    }
    entries = []
    for matrix_id, data in (
        ("bernoulli_B", bernoulli),
        ("half_powers_B", half),
        ("bell_B", bell),
    ):
        for (row, col) in sorted(data):
            entries.append(PrintedEntry(matrix_id, row, col, data[(row, col)]))
    return tuple(entries)


PRINTED_MATRIX_CORPUS: tuple[PrintedEntry, ...] = _corpus()

_MATRIX_SEEDS = {
    "bernoulli_B": SequenceSpec.bernoulli(),
    "half_powers_B": SequenceSpec.half_powers(),
    "bell_B": SequenceSpec.bell(),
}


def audit_printed_matrices() -> tuple[MatrixAuditResult, ...]:
    """Recompute every corpus entry from the recurrence and flag agreement.

    Mismatches are data, not errors; the operation always succeeds.
    """
    rows_needed = max(e.row + e.col for e in PRINTED_MATRIX_CORPUS)
    tables = {
        mid: build_table("B", seed, rows_needed)
        for mid, seed in _MATRIX_SEEDS.items()
    }
    results = []
    for entry in PRINTED_MATRIX_CORPUS:
        recomputed = tables[entry.matrix_id].entry(entry.row, entry.col)
        results.append(MatrixAuditResult(entry, recomputed, recomputed == entry.printed))
    return tuple(results)


# -- independent oracles ------------------------------------------------------

def classical_algorithm_table(
    kind: str, seed_values: list[Fraction], rows: int
) -> list[tuple[Fraction, ...]]:
    """The weight-free rational recurrences (limit of the tables at L = 0):

      B:  next(m) = m prev(m) - (m+1) prev(m+1)
      A:  next(m) = (m+1)(prev(m) - prev(m+1))
    """
    if kind not in ("B", "A"):
        raise ValueError(f"kind must be 'B' or 'A', got {kind!r}")
    if len(seed_values) < rows + 1:
        raise ValueError(f"need {rows + 1} seed values")
    table = [tuple(Fraction(v) for v in seed_values[: rows + 1])]
    for _ in range(rows):
        prev = table[-1]
        if kind == "B":
            nxt = tuple(
                m * prev[m] - (m + 1) * prev[m + 1] for m in range(len(prev) - 1)
            )
        else:
            nxt = tuple(
                (m + 1) * (prev[m] - prev[m + 1]) for m in range(len(prev) - 1)
            )
        table.append(nxt)
    return table


def _xpoly_eval_int(p: list[LambdaPoly], r: int) -> LambdaPoly:
    acc = ZERO
    for a in reversed(p):
        acc = acc.scale(r) + a
    return acc


def _xpoly_div_linear(p: list[LambdaPoly], r: int) -> list[LambdaPoly]:
    # exact synthetic division by (x - r); remainder must vanish
    n = len(p) - 1
    q = [ZERO] * n
    carry = ZERO
    for i in range(n, 0, -1):
        q[i - 1] = p[i] + carry
        carry = q[i - 1].scale(r)
    if not (p[0] + carry).is_zero:
        raise ValueError(f"polynomial is not divisible by (x - {r})")
    return q


def stirling2_by_basis_expansion(nmax: int) -> StirlingTable:
    """Second-kind degenerate Stirling numbers the long way round: expand the
    degenerate falling factorial of x in the classical falling-factorial
    basis by repeated synthetic division in x."""
    rows = []
    for n in range(nmax + 1):
        p: list[LambdaPoly] = [ONE]
        for j in range(n):
            # multiply by (x - jL)
            shifted = [ZERO] + p
            p = [
                shifted[i] + (p[i] * LAM.scale(-j) if i < len(p) else ZERO)
                for i in range(len(shifted))
            ]
        row = []
        q = list(p)
        for k in range(n + 1):
            c = _xpoly_eval_int(q, k)
            row.append(c)
            if k < n:
                q[0] = q[0] - c
                q = _xpoly_div_linear(q, k)
        rows.append(tuple(row))
    return StirlingTable(tuple(rows))


# -- identity suite -----------------------------------------------------------

Pair = tuple[LambdaPoly, LambdaPoly]


def _const_pair(a: Fraction | int, b: Fraction | int) -> Pair:
    return LambdaPoly.constant(a), LambdaPoly.constant(b)


def _series_pairs(a: TruncatedSeries, b: TruncatedSeries) -> list[Pair]:
    return list(zip(a.coeffs, b.coeffs))


def _all_seeds() -> list[SequenceSpec]:
    return [SequenceSpec.bernoulli(), SequenceSpec.half_powers(), SequenceSpec.bell()]


def _id_stirling2_three_way(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 15)
    rec = stirling2_table(cap)
    ser = stirling2_from_series(cap)
    bas = stirling2_by_basis_expansion(cap)
    pairs: list[Pair] = []
    for n in range(cap + 1):
        for k in range(n + 1):
            pairs.append((rec.entry(n, k), ser.entry(n, k)))
            pairs.append((rec.entry(n, k), bas.entry(n, k)))
    return cap, pairs


def _id_classical_limits(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 20)
    bern = bernoulli_deg_sequence(cap)
    euler = euler_deg_sequence(cap)
    bell = bell_deg_sequence(cap)
    cb = classical_bernoulli(cap)
    ce = classical_euler(cap)
    cl = classical_bell(cap)
    pairs: list[Pair] = []
    for n in range(cap + 1):
        pairs.append(_const_pair(bern[n].eval_at(0), cb[n]))
        pairs.append(_const_pair(euler[n].eval_at(0), ce[n]))
        pairs.append(_const_pair(bell[n].eval_at(0), cl[n]))
    return cap, pairs


def _id_bernoulli_euler_series(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 20)
    e_hi = e_lambda_series(cap + 1)
    one = TruncatedSeries.constant(ONE, cap + 1)
    bern_egf = (e_hi - one).shift_down(1).reciprocal()
    e = e_lambda_series(cap)
    euler_egf = ((e + TruncatedSeries.constant(ONE, cap)).scale(Fraction(1, 2))).reciprocal()
    bern = bernoulli_deg_sequence(cap)
    euler = euler_deg_sequence(cap)
    pairs: list[Pair] = []
    for n in range(cap + 1):
        fact = math.factorial(n)
        pairs.append((bern_egf.coeff(n).scale(fact), bern[n]))
        pairs.append((euler_egf.coeff(n).scale(fact), euler[n]))
    return cap, pairs


def _id_bell_series(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 12)
    e = e_lambda_series(cap)
    em1 = e - TruncatedSeries.constant(ONE, cap)
    exp_series = TruncatedSeries(
        Fraction(1, math.factorial(k)) for k in range(cap + 1)
    )
    pairs: list[Pair] = []
    for x in (1, 2, -1):
        egf = exp_series.compose(em1.scale(x))
        values = bell_deg_sequence(cap, x)
        for n in range(cap + 1):
            pairs.append((egf.coeff(n).scale(math.factorial(n)), values[n]))
    return cap, pairs


def _id_stirling1_inversions(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 18)
    s1 = stirling1_table(cap)
    bern = bernoulli_deg_sequence(cap)
    euler = euler_deg_sequence(cap)
    bern1 = bernoulli_deg_poly_sequence(cap, 1)
    euler1 = euler_deg_poly_sequence(cap, 1)
    w_bern, w_euler, w_bern1, w_euler1 = (
        s1.weighted_sums(values) for values in (bern, euler, bern1, euler1)
    )
    pairs: list[Pair] = []
    for n in range(cap + 1):
        fall_n = classical_falling(LambdaPoly((n, -1)), n)
        pairs.append((w_bern[n], fall_n.scale(Fraction((-1) ** n, n + 1))))
        pairs.append(
            (
                w_euler[n],
                LambdaPoly.constant(Fraction((-1) ** n * math.factorial(n), 2**n)),
            )
        )
    for n in range(1, cap + 1):
        fall_n1 = classical_falling(LambdaPoly((n - 1, -1)), n - 1)
        pairs.append(
            (
                w_bern1[n],
                ((LAM + ONE) * fall_n1).scale(Fraction((-1) ** (n - 1), n + 1)),
            )
        )
        pairs.append(
            (
                w_euler1[n],
                LambdaPoly.constant(Fraction((-1) ** (n - 1) * math.factorial(n), 2**n)),
            )
        )
    return cap, pairs


def _id_final_vs_closed_form(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 24)
    pairs: list[Pair] = []
    for kind in ("B", "A"):
        for seed in _all_seeds():
            finals = final_sequence(build_table(kind, seed, cap))
            closed = closed_form_final_sequence(kind, seed, cap)
            pairs.extend(zip(finals, closed))
    return cap, pairs


def _id_named_families(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 24)
    pairs: list[Pair] = []
    b_bern = final_sequence(build_table("B", SequenceSpec.bernoulli(), cap))
    pairs.extend(zip(b_bern, bernoulli_deg_sequence(cap)))
    b_half = final_sequence(build_table("B", SequenceSpec.half_powers(), cap))
    pairs.extend(zip(b_half, euler_deg_sequence(cap)))
    b_bell = final_sequence(build_table("B", SequenceSpec.bell(), cap))
    pairs.extend(zip(b_bell[1:], bell_deg_sequence(cap)[1:]))
    a_bern = final_sequence(build_table("A", SequenceSpec.bernoulli(), cap))
    pairs.extend(zip(a_bern, bernoulli_deg_poly_sequence(cap, 1)))
    a_half = final_sequence(build_table("A", SequenceSpec.half_powers(), cap))
    pairs.extend(zip(a_half, euler_deg_poly_sequence(cap, 1)))
    return cap, pairs


def _id_transforms(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(order, 20)
    pairs: list[Pair] = []
    for kind in ("B", "A"):
        for seed in _all_seeds():
            pairs.extend(_series_pairs(*transform_check(kind, seed, cap)))
            pairs.extend(_series_pairs(*inverse_transform_check(kind, seed, cap)))
    return cap, pairs


def _id_stirling2_shift(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 15)
    e = e_lambda_series(cap)
    em1 = e - TruncatedSeries.constant(ONE, cap)
    s2 = stirling2_table(cap + 1)
    pairs: list[Pair] = []
    for k, power in enumerate(powers(em1, cap)):
        lhs_series = e * power
        for n in range(k, cap + 1):
            lhs = lhs_series.coeff(n).scale(
                Fraction(math.factorial(n), math.factorial(k))
            )
            rhs = s2.entry(n + 1, k + 1) + s2.entry(n, k + 1) * LAM.scale(n)
            pairs.append((lhs, rhs))
    return cap, pairs


def _id_classical_degeneration(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(nmax, 12)
    pairs: list[Pair] = []
    for kind in ("B", "A"):
        for seed in _all_seeds():
            table = build_table(kind, seed, cap)
            seed0 = [v.eval_at(0) for v in seed.values(cap + 1)]
            classical = classical_algorithm_table(kind, seed0, cap)
            for n in range(cap + 1):
                for m in range(cap - n + 1):
                    pairs.append(
                        _const_pair(table.entry(n, m).eval_at(0), classical[n][m])
                    )
    return cap, pairs


def _id_exp_log_inverse(nmax: int, order: int) -> tuple[int, list[Pair]]:
    cap = min(order, 24)
    e = e_lambda_series(cap)
    one = TruncatedSeries.constant(ONE, cap)
    lg = log_lambda_series(cap)
    t = TruncatedSeries([ZERO, ONE] + [ZERO] * (cap - 1)) if cap >= 1 else TruncatedSeries([ZERO])
    pairs = _series_pairs(lg.compose(e - one), t)
    pairs += _series_pairs(e.compose(lg), one + t)
    return cap, pairs


def _id_derivation_rows(nmax: int, order: int) -> tuple[int, list[Pair]]:
    base = min(order, 12)
    cap = min(6, base)
    pairs: list[Pair] = []
    for seed in _all_seeds():
        f0 = TruncatedSeries(seed.values(base + 1))
        table = build_table("B", seed, base)
        for n in range(cap + 1):
            derived = apply_weighted_derivation(f0, n)
            pairs.extend(zip(derived.coeffs, table.rows[n]))
    return cap, pairs


_IDENTITY_REGISTRY: tuple[tuple[str, object], ...] = (
    ("stirling2_three_way", _id_stirling2_three_way),
    ("classical_limits_at_lambda0", _id_classical_limits),
    ("bernoulli_euler_series_match", _id_bernoulli_euler_series),
    ("bell_series_match", _id_bell_series),
    ("stirling1_inversions", _id_stirling1_inversions),
    ("final_vs_closed_form", _id_final_vs_closed_form),
    ("named_family_identification", _id_named_families),
    ("ogf_egf_transforms", _id_transforms),
    ("stirling2_shift_identity", _id_stirling2_shift),
    ("classical_table_degeneration", _id_classical_degeneration),
    ("exp_log_compositional_inverse", _id_exp_log_inverse),
    ("derivation_operator_rows", _id_derivation_rows),
)

IDENTITY_NAMES: tuple[str, ...] = tuple(name for name, _ in _IDENTITY_REGISTRY)


def run_identity_suite(
    nmax: int, order: int, inject_fault: str | None = None
) -> tuple[IdentityResult, ...]:
    """Evaluate every registered identity; each result records the range cap
    actually tested and whether every comparison held exactly.

    ``inject_fault`` is the test hook: naming an identity flips one
    coefficient of its first computed value, which must surface as a failed
    result.
    """
    if nmax < 0 or order < 0:
        raise ValueError("nmax and order must be nonnegative")
    if inject_fault is not None and inject_fault not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity for fault injection: {inject_fault!r}")
    results = []
    for name, func in _IDENTITY_REGISTRY:
        cap, pairs = func(nmax, order)
        if name == inject_fault and pairs:
            lhs, rhs = pairs[0]
            pairs[0] = (lhs + ONE, rhs)
        passed = all(lhs == rhs for lhs, rhs in pairs)
        results.append(IdentityResult(name, cap, passed))
    return tuple(results)
