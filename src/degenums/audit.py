"""Cross-verification: identity suite and printed-matrix audit.

Two jobs live here.  ``run_identity_suite`` evaluates every bundled identity
over configurable ranges, each by two or more independent computation paths,
and reports one pass/fail result per identity; on two CPUs one forked child
checks a fixed part of the registry (``_CHILD_IDENTITIES``) and sends back
its verdicts through ``_split_map``, the helper the CLI renders large tables
with, so each identity still runs once, in one of the two processes.
``audit_printed_matrices`` recomputes a transcribed corpus of printed
reference versions of three example table runs (kind B with the three
bundled seeds) and reports a per-entry match flag; several printed interior
entries disagree with the recurrence, so mismatches are findings to report,
never failures.

The oracles at the bottom (classical weight-free tables, basis-expansion
Stirling numbers) are deliberately separate code paths from the modules they
check.
"""

from __future__ import annotations

import marshal
import math
import os
from collections import namedtuple
from fractions import Fraction

from . import series
from .algorithms import (
    SequenceSpec,
    build_table,
    closed_form_final_sequence,
    final_sequence,
    inverse_transform_check,
    transform_check,
)
from .exact import LAM, ONE, ZERO, LambdaPoly, Value, classical_falling
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
    stirling1_from_series,
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


class PrintedEntry(namedtuple("PrintedEntry", "matrix_id row col printed")):
    """One explicitly printed entry of a reference matrix (no ellipses)."""

    __slots__ = ()


class MatrixAuditResult(namedtuple("MatrixAuditResult", "entry recomputed match")):
    __slots__ = ()


class IdentityResult(namedtuple("IdentityResult", "name max_tested passed")):
    __slots__ = ()


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
    if rows < 0:
        raise ValueError("rows must be nonnegative")
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


def stirling2_by_basis_expansion(nmax: int) -> StirlingTable:
    """Second-kind degenerate Stirling numbers the long way round: expand the
    degenerate falling factorial (x)_{n,L} in the classical falling-factorial
    basis by Newton's forward differences.  S2_L(n, k) is the k-th difference
    of (0)_{n,L}, ..., (n)_{n,L} at 0, divided by k!."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    rows = []
    values = [ONE] * (nmax + 1)  # (j)_{n,L} for j = 0..nmax
    for n in range(nmax + 1):
        if n:
            # (j)_{n,L} = (j)_{n-1,L} (j - (n-1)L)
            step = LAM.scale(n - 1)
            values = [v * (ONE.scale(j) - step) for j, v in enumerate(values)]
        row, diffs = [], values[: n + 1]
        for k in range(n + 1):
            row.append(diffs[0].scale(Fraction(1, math.factorial(k))))
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        rows.append(tuple(row))
    return StirlingTable(tuple(rows))


# -- identity suite -----------------------------------------------------------

Pair = tuple[Value, Value]


def _series_pairs(a: TruncatedSeries, b: TruncatedSeries) -> list[Pair]:
    return list(zip(a.coeffs, b.coeffs))


def _all_seeds() -> list[SequenceSpec]:
    return list(_MATRIX_SEEDS.values())


def _id_stirling2_three_way(cap: int) -> list[Pair]:
    rec = stirling2_table(cap)
    ser = stirling2_from_series(cap)
    bas = stirling2_by_basis_expansion(cap)
    pairs: list[Pair] = []
    for n in range(cap + 1):
        for k in range(n + 1):
            pairs.append((rec.entry(n, k), ser.entry(n, k)))
            pairs.append((rec.entry(n, k), bas.entry(n, k)))
    return pairs


def _id_classical_limits(cap: int) -> list[Pair]:
    bern = bernoulli_deg_sequence(cap)
    euler = euler_deg_sequence(cap)
    bell = bell_deg_sequence(cap)
    cb = classical_bernoulli(cap)
    ce = classical_euler(cap)
    cl = classical_bell(cap)
    pairs: list[Pair] = []
    for n in range(cap + 1):
        pairs.append((bern[n].eval_at(0), cb[n]))
        pairs.append((euler[n].eval_at(0), ce[n]))
        pairs.append((bell[n].eval_at(0), cl[n]))
    return pairs


def _id_bernoulli_euler_series(cap: int) -> list[Pair]:
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
    return pairs


def _id_bell_series(cap: int) -> list[Pair]:
    em1 = e_lambda_series(cap) - TruncatedSeries.constant(ONE, cap)
    pairs: list[Pair] = []
    for x in (1, 2, -1):
        # exp(x (e_L(t) - 1)) as exp(x t) at e_L(t) - 1, whose power table
        # the Stirling oracles read too
        exp_x = TruncatedSeries(Fraction(x**k, math.factorial(k)) for k in range(cap + 1))
        egf = exp_x.compose(em1)
        values = bell_deg_sequence(cap, x)
        for n in range(cap + 1):
            pairs.append((egf.coeff(n).scale(math.factorial(n)), values[n]))
    return pairs


def _id_stirling1_inversions(cap: int) -> list[Pair]:
    # The first kind's row recurrence against its series triangle and against
    # the second kind, sum_k S1(n,k) S2(k,m) = [n = m]; then the families'
    # weighted first-kind sums against closed falling factorials.
    s1 = stirling1_table(cap)
    ser = stirling1_from_series(cap)
    s2 = stirling2_table(cap)
    pairs: list[Pair] = []
    for n in range(cap + 1):
        pairs.extend(zip(s1.entries[n], ser.entries[n]))
    for m in range(cap + 1):
        column = s1.weighted_sums([s2.entry(k, m) for k in range(cap + 1)])
        pairs.extend((v, ONE if n == m else ZERO) for n, v in enumerate(column))
    bern = bernoulli_deg_sequence(cap)
    euler = euler_deg_sequence(cap)
    bern1 = bernoulli_deg_poly_sequence(cap, 1)
    euler1 = euler_deg_poly_sequence(cap, 1)
    w_bern, w_euler, w_bern1, w_euler1 = (
        s1.weighted_sums(values) for values in (bern, euler, bern1, euler1)
    )
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
    return pairs


def _id_final_vs_closed_form(cap: int) -> list[Pair]:
    pairs: list[Pair] = []
    for kind in ("B", "A"):
        for seed in _all_seeds():
            finals = final_sequence(build_table(kind, seed, cap))
            closed = closed_form_final_sequence(kind, seed, cap)
            pairs.extend(zip(finals, closed))
    return pairs


def _id_named_families(cap: int) -> list[Pair]:
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
    return pairs


def _id_transforms(cap: int) -> list[Pair]:
    pairs: list[Pair] = []
    for kind in ("B", "A"):
        for seed in _all_seeds():
            pairs.extend(_series_pairs(*transform_check(kind, seed, cap)))
            pairs.extend(_series_pairs(*inverse_transform_check(kind, seed, cap)))
    return pairs


def _id_stirling2_shift(cap: int) -> list[Pair]:
    e = e_lambda_series(cap)
    em1 = e - TruncatedSeries.constant(ONE, cap)
    s2 = stirling2_table(cap + 1)
    rows = powers(em1)
    pairs: list[Pair] = []
    for k in range(cap + 1):
        lhs_series = e * TruncatedSeries([ZERO] * k + [row[k] for row in rows[k:]])
        for n in range(k, cap + 1):
            lhs = lhs_series.coeff(n).scale(
                Fraction(math.factorial(n), math.factorial(k))
            )
            rhs = s2.entry(n + 1, k + 1) + s2.entry(n, k + 1) * LAM.scale(n)
            pairs.append((lhs, rhs))
    return pairs


def _id_classical_degeneration(cap: int) -> list[Pair]:
    pairs: list[Pair] = []
    for kind in ("B", "A"):
        for seed in _all_seeds():
            table = build_table(kind, seed, cap)
            seed0 = [v.eval_at(0) for v in seed.values(cap + 1)]
            classical = classical_algorithm_table(kind, seed0, cap)
            for n in range(cap + 1):
                for m in range(cap - n + 1):
                    pairs.append((table.entry(n, m).eval_at(0), classical[n][m]))
    return pairs


def _id_exp_log_inverse(cap: int) -> list[Pair]:
    e = e_lambda_series(cap)
    one = TruncatedSeries.constant(ONE, cap)
    lg = log_lambda_series(cap)
    t = TruncatedSeries([ZERO, ONE] + [ZERO] * (cap - 1)) if cap >= 1 else TruncatedSeries([ZERO])
    pairs = _series_pairs(lg.compose(e - one), t)
    pairs += _series_pairs(e.compose(lg), one + t)
    return pairs


def _id_derivation_rows(cap: int) -> list[Pair]:
    # rows 0..cap of the operator against a kind-B run of 2 * cap rows
    base = 2 * cap
    pairs: list[Pair] = []
    for seed in _all_seeds():
        f0 = TruncatedSeries(seed.values(base + 1))
        table = build_table("B", seed, base)
        for derived, row in zip(apply_weighted_derivation(f0, cap), table.rows):
            pairs.extend(zip(derived.coeffs, row))
    return pairs


def _lane_values(lam: Fraction | LambdaPoly, cap: int) -> list:
    # every value the recurrences give at one value of L, flattened
    values = [v for row in stirling2_table(cap, lam).entries for v in row]
    values += bernoulli_deg_sequence(cap, lam) + euler_deg_sequence(cap, lam)
    values += bell_deg_sequence(cap, lam=lam)
    values += bernoulli_deg_poly_sequence(cap, 1, lam) + euler_deg_poly_sequence(cap, 1, lam)
    for kind in ("B", "A"):
        for seed in _all_seeds():
            values += [v for row in build_table(kind, seed, cap, lam).rows for v in row]
    return values


def _id_scalar_lane(cap: int) -> list[Pair]:
    # symbolic then evaluated against the recurrences run at the rational L
    symbolic = _lane_values(LAM, cap)
    pairs: list[Pair] = []
    for lam in (Fraction(1, 2), Fraction(-3, 7), Fraction(2)):
        lane = _lane_values(lam, cap)
        pairs.extend((p.eval_at(lam), v) for p, v in zip(symbolic, lane))
    return pairs


# (name, the size it reads, its limit, check): each check runs at
# cap = min(size, limit) and returns the pairs that must be equal
_IDENTITY_REGISTRY: tuple[tuple[str, str, int, object], ...] = (
    ("stirling2_three_way", "nmax", 15, _id_stirling2_three_way),
    ("classical_limits_at_lambda0", "nmax", 20, _id_classical_limits),
    ("bernoulli_euler_series_match", "nmax", 20, _id_bernoulli_euler_series),
    ("bell_series_match", "nmax", 12, _id_bell_series),
    ("stirling1_inversions", "nmax", 18, _id_stirling1_inversions),
    ("final_vs_closed_form", "nmax", 24, _id_final_vs_closed_form),
    ("named_family_identification", "nmax", 24, _id_named_families),
    ("ogf_egf_transforms", "order", 20, _id_transforms),
    ("stirling2_shift_identity", "nmax", 15, _id_stirling2_shift),
    ("classical_table_degeneration", "nmax", 12, _id_classical_degeneration),
    ("exp_log_compositional_inverse", "order", 24, _id_exp_log_inverse),
    ("derivation_operator_rows", "order", 6, _id_derivation_rows),
    ("scalar_lane_matches_symbolic", "nmax", 12, _id_scalar_lane),
)

IDENTITY_NAMES: tuple[str, ...] = tuple(row[0] for row in _IDENTITY_REGISTRY)

# The identities one forked child checks while this process checks the rest,
# split by time and by the kept stores they read: the child builds the
# Stirling rows to 18 and the kind-A/B runs to 20 afresh, and only it reads
# the log_L(1+t) powers.  Measured on a 2-CPU host at 30/30, each half alone
# in a fresh process: these four 80-84 ms, the other nine 75-76 ms.  The whole
# of `verify --nmax 30 --order 30` in fresh processes, 11 runs alternated: a
# median of 86 ms with these four, 91 ms with bernoulli_euler_series_match
# sent here as well, against 137 ms in one process.
_CHILD_IDENTITIES = (
    "bell_series_match",
    "stirling1_inversions",
    "ogf_egf_transforms",
    "exp_log_compositional_inverse",
)


def _record(offset: int, size: int) -> bytes:
    return (offset << 64 | size).to_bytes(16, "big")


def _split_map(work, items, theirs, pack, unpack):
    """Yield ``work(item)``, a str, for every item in order.  On two CPUs one
    child, forked before the first item is taken, computes the items at the
    indices in ``theirs`` (any container): this process takes every item
    from ``items`` and ships each of the child's as the ``marshal`` bytes of
    ``pack(item)`` into one anonymous memory file, and the child writes the
    UTF-8 text of ``work(unpack(data))`` into a second.  Each pipe between
    the two carries only 16-byte (offset, length) records, one per item; a
    one-page pipe holds 256, more than any caller's child items, so no
    write waits for its reader.  This process takes all the items first,
    keeping its own (and any whose write to the child fails), then computes
    its own in order and reads each of the child's texts when its turn
    comes.  Any item the child did not send back in full (it raised, left
    early or was cut short) is computed here from the bytes shipped; one
    sent in full is used, whatever the child's exit status.  Everything is
    computed here where ``theirs`` is empty or nothing forks: where the
    platform cannot fork or make a memory file, where one of those or a pipe
    fails, on one CPU, or beside other threads, whose locks a forked child
    could inherit held.  The child leaves through os._exit on every path, so
    it never flushes the buffers it inherited.  It is reaped on every path,
    after this process closes its ends, so a child cut short stops at its
    next record instead of finishing its items."""
    pid, fds = None, []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if theirs and hasattr(os, "fork") and hasattr(os, "memfd_create") and (cpus or 1) >= 2:
        import threading  # only once the rest holds; the CLI's start-up does not load it

        try:
            if threading.active_count() == 1:
                fds.append(os.memfd_create("items"))
                fds.append(os.memfd_create("texts"))
                fds.extend(os.pipe())
                fds.extend(os.pipe())
                pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
    if pid is None:
        yield from map(work, items)
        return
    items_fd, texts_fd, ship_r, ship_w, back_r, back_w = fds
    if pid == 0:
        status = 1
        try:
            os.close(ship_w)
            os.close(back_r)
            end = 0
            while len(record := os.read(ship_r, 16)) == 16:
                offset, size = divmod(int.from_bytes(record, "big"), 1 << 64)
                text = work(unpack(marshal.loads(os.pread(items_fd, size, offset)))).encode()
                os.pwrite(texts_fd, text, end)
                os.write(back_w, _record(end, len(text)))
                end += len(text)
            status = 0
        finally:
            os._exit(status)
    os.close(ship_r)
    os.close(back_w)
    held, shipped, end = {}, {}, 0
    try:
        # closed once every item is taken, so the child leaves after its last
        with open(ship_w, "wb", buffering=0) as ship:
            for i, item in enumerate(items):
                if i in theirs:
                    try:
                        data = marshal.dumps(pack(item))
                        if os.pwrite(items_fd, data, end) == len(data):
                            ship.write(_record(end, len(data)))
                            shipped[i], end = (end, len(data)), end + len(data)
                            continue
                    except OSError:  # kept here, as is an item written short
                        pass
                held[i] = item
        for i in range(len(held) + len(shipped)):
            if i in held:
                yield work(held.pop(i))
                continue
            record = os.read(back_r, 16)
            if len(record) == 16:
                offset, size = divmod(int.from_bytes(record, "big"), 1 << 64)
                text = os.pread(texts_fd, size, offset)
                if len(text) == size:
                    yield text.decode()
                    continue
            offset, size = shipped[i]
            yield work(unpack(marshal.loads(os.pread(items_fd, size, offset))))
    finally:
        for fd in (back_r, items_fd, texts_fd):
            os.close(fd)
        os.waitpid(pid, 0)


def run_identity_suite(
    nmax: int, order: int, inject_fault: str | None = None
) -> tuple[IdentityResult, ...]:
    """Evaluate every registered identity; each result records the range cap
    actually tested and whether every comparison held exactly.

    The identities of ``_CHILD_IDENTITIES`` run last, through ``_split_map``:
    on two CPUs a forked child checks them while this process checks the
    rest, each verdict crossing the pipe as "1" or "0".  Each identity runs
    once, here unless the child sent its verdict in full, so an error in one
    surfaces here; the results come back in registry order.  Rows that
    identities share are kept, and built once, only while it runs.

    ``inject_fault`` is the test hook: naming an identity flips one
    coefficient of its first computed value, which must surface as a failed
    result.
    """
    if nmax < 0 or order < 0:
        raise ValueError("nmax and order must be nonnegative")
    if inject_fault is not None and inject_fault not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity for fault injection: {inject_fault!r}")
    sizes = {"nmax": nmax, "order": order}

    def checked(row) -> str:
        name, size, limit, check = row
        pairs = check(min(sizes[size], limit))
        if name == inject_fault and pairs:
            lhs, rhs = pairs[0]
            pairs[0] = (lhs + 1, rhs)
        return "1" if all(lhs == rhs for lhs, rhs in pairs) else "0"

    rows = sorted(_IDENTITY_REGISTRY, key=lambda row: row[0] in _CHILD_IDENTITIES)
    theirs = range(len(rows) - len(_CHILD_IDENTITIES), len(rows))
    by_name = {row[0]: row for row in rows}
    keeping, series._keeping = series._keeping, True
    try:
        verdicts = _split_map(checked, rows, theirs, lambda row: row[0], by_name.__getitem__)
        passed = {row[0]: verdict == "1" for row, verdict in zip(rows, verdicts)}
    finally:
        series._keeping = keeping
    return tuple(
        IdentityResult(name, min(sizes[size], limit), passed[name])
        for name, size, limit, _ in _IDENTITY_REGISTRY
    )
