import math
import os
from fractions import Fraction

import pytest

from degenums.audit import (
    IDENTITY_NAMES,
    PRINTED_MATRIX_CORPUS,
    audit_printed_matrices,
    classical_algorithm_table,
    run_identity_suite,
    stirling2_by_basis_expansion,
)
from degenums.exact import LAM, ONE, LambdaPoly
from degenums.numbers import bernoulli_deg_sequence, classical_bernoulli, stirling2_table
from degenums.series import StirlingTable, TruncatedSeries, e_lambda_series, log_lambda_series

F = Fraction
P = LambdaPoly.parse


def _failed_fork():
    raise OSError("fork failed")


@pytest.fixture
def in_one_process(monkeypatch):
    # a forked child keeps the state it builds to itself, so the tests that
    # count state run every identity here, as where os.fork fails
    monkeypatch.setattr(os, "fork", _failed_fork)


@pytest.fixture
def forks(monkeypatch):
    # on two CPUs the suite forks once per call; each fork is recorded
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fork, made = os.fork, []

    def counted_fork():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return made


def _result(results, matrix_id, row, col):
    for r in results:
        e = r.entry
        if (e.matrix_id, e.row, e.col) == (matrix_id, row, col):
            return r
    raise AssertionError(f"no corpus entry {matrix_id} ({row},{col})")


def test_corpus_shape():
    counts = {}
    for e in PRINTED_MATRIX_CORPUS:
        counts[e.matrix_id] = counts.get(e.matrix_id, 0) + 1
    assert counts == {"bernoulli_B": 11, "half_powers_B": 14, "bell_B": 16}


def test_required_mismatches_are_reported():
    report = audit_printed_matrices()
    r = _result(report, "bernoulli_B", 2, 1)
    assert not r.match
    assert r.entry.printed == (LAM * (ONE - LAM) * (ONE - LAM)).scale(F(-1, 12))
    assert r.recomputed == (LAM * (ONE - LAM) * (ONE + LAM)).scale(F(-1, 12))

    r = _result(report, "half_powers_B", 2, 0)
    assert not r.match
    assert r.entry.printed.render() == "0"
    assert r.recomputed.render() == "1/2*L"

    r = _result(report, "bell_B", 3, 0)
    assert not r.match
    assert r.entry.printed == P("6 + -8*L + 2*L^2")
    assert r.recomputed == P("5 + -6*L + 2*L^2")


def test_hand_verified_matches():
    report = audit_printed_matrices()
    assert _result(report, "bernoulli_B", 1, 1).match
    # column 0 of the reference run agrees for rows 0..2 only; row 3 as
    # printed does not satisfy its own recurrence (see the mismatch test).
    for row in range(3):
        assert _result(report, "bernoulli_B", row, 0).match


def test_printed_row3_bernoulli_is_inconsistent_with_recurrence():
    # The recomputed value is confirmed by the closed sum and the series.
    report = audit_printed_matrices()
    r = _result(report, "bernoulli_B", 3, 0)
    assert not r.match
    # the misprint stays in the corpus exactly as printed
    assert r.entry.printed == P("1/4*L + -1*L^2 + 5/4*L^3 + -1/2*L^4")
    assert r.recomputed == bernoulli_deg_sequence(3)[3]
    assert r.recomputed == P("-1/4*L + 1/4*L^3")


def test_row0_matches_seed_definitions():
    report = audit_printed_matrices()
    for col in range(3):
        assert _result(report, "bernoulli_B", 0, col).match
    for col in range(5):
        assert _result(report, "half_powers_B", 0, col).match
    # the printed bell row 0 deviates from the seed beyond column 1
    assert _result(report, "bell_B", 0, 0).match
    assert _result(report, "bell_B", 0, 1).match
    for col in (2, 3, 4):
        assert not _result(report, "bell_B", 0, col).match


def test_audit_is_deterministic():
    first = audit_printed_matrices()
    second = audit_printed_matrices()
    assert first == second


def test_audit_never_fails_on_mismatch():
    results = audit_printed_matrices()
    assert any(not r.match for r in results)
    assert len(results) == len(PRINTED_MATRIX_CORPUS)


# -- oracles -----------------------------------------------------------------


def test_basis_expansion_matches_recurrence():
    for nmax in (10, 40):
        bas = stirling2_by_basis_expansion(nmax)
        rec = stirling2_table(nmax)
        for n in range(nmax + 1):
            for k in range(n + 1):
                assert bas.entry(n, k) == rec.entry(n, k)


def test_basis_expansion_runs_none_of_the_routes_it_checks(monkeypatch):
    # stirling2_three_way checks the row recurrence and the series triangle
    # against this oracle, so it must reach neither of them nor their kernels
    from degenums import algorithms, audit, exact, numbers, series

    expected = stirling2_table(12)

    def boom(*args):
        raise AssertionError("the basis expansion reached a route it checks")

    for name in ("mul_linear_add", "sum_of_products"):
        monkeypatch.setattr(LambdaPoly, name, boom)
    for module, name in (
        (exact, "times_linear_add"),
        (numbers, "times_linear_add"),
        (exact, "linear_products"),
        (series, "linear_products"),
        (algorithms, "linear_products"),
        (series, "powers"),
        (audit, "powers"),
        (numbers, "stirling2_table"),
        (audit, "stirling2_table"),
    ):
        monkeypatch.setattr(module, name, boom)
    assert stirling2_by_basis_expansion(12) == expected


def test_classical_table_recovers_bernoulli():
    rows = 8
    seed = [F(1, m + 1) for m in range(rows + 1)]
    table = classical_algorithm_table("B", seed, rows)
    expected = classical_bernoulli(rows)
    assert [table[n][0] for n in range(rows + 1)] == expected


def test_classical_table_a_kind_shifts_bernoulli():
    # same seed under the A recurrence gives the values at 1: equal to the
    # numbers except at index 1 where the shift adds 1
    rows = 6
    seed = [F(1, m + 1) for m in range(rows + 1)]
    table = classical_algorithm_table("A", seed, rows)
    bern = classical_bernoulli(rows)
    finals = [table[n][0] for n in range(rows + 1)]
    assert finals[0] == bern[0]
    assert finals[1] == bern[1] + 1
    assert finals[2:] == bern[2:]


def test_classical_table_validation():
    with pytest.raises(ValueError):
        classical_algorithm_table("X", [F(1)], 0)
    with pytest.raises(ValueError):
        classical_algorithm_table("B", [F(1)], 3)
    # a negative size raises, as in build_table
    for kind in ("B", "A"):
        with pytest.raises(ValueError, match="rows must be nonnegative"):
            classical_algorithm_table(kind, [F(1)], -1)


def test_basis_expansion_rejects_a_negative_nmax():
    # as in stirling2_table
    with pytest.raises(ValueError, match="nmax must be nonnegative"):
        stirling2_by_basis_expansion(-1)


# -- identity suite -------------------------------------------------------------


def test_identity_suite_all_pass():
    results = run_identity_suite(6, 6)
    assert [r.name for r in results] == list(IDENTITY_NAMES)
    assert all(r.passed for r in results)


def test_identity_suite_caps():
    caps = {r.name: r.max_tested for r in run_identity_suite(30, 30)}
    assert caps["stirling2_three_way"] == 15
    assert caps["classical_limits_at_lambda0"] == 20
    assert caps["final_vs_closed_form"] == 24
    assert caps["ogf_egf_transforms"] == 20
    assert caps["derivation_operator_rows"] == 6
    # every identity's cap, and the size it reads: the limit at 30/30, and 0
    # where the size it reads is 0
    limits = {
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
        "scalar_lane_matches_symbolic": ("nmax", 12),
    }
    assert caps == {name: limit for name, (_, limit) in limits.items()}
    for nmax, order in ((30, 0), (0, 30)):
        sizes = {"nmax": nmax, "order": order}
        caps = {r.name: r.max_tested for r in run_identity_suite(nmax, order)}
        assert caps == {name: limit if sizes[size] else 0 for name, (size, limit) in limits.items()}


_SEED_IDENTITIES = (
    "stirling2_three_way",
    "classical_limits_at_lambda0",
    "bernoulli_euler_series_match",
    "bell_series_match",
    "stirling1_inversions",
    "final_vs_closed_form",
    "named_family_identification",
    "ogf_egf_transforms",
    "stirling2_shift_identity",
    "classical_table_degeneration",
    "exp_log_compositional_inverse",
    "derivation_operator_rows",
)


def test_scalar_lane_identity_is_appended():
    assert IDENTITY_NAMES == _SEED_IDENTITIES + ("scalar_lane_matches_symbolic",)
    for nmax, cap in ((30, 12), (7, 7), (0, 0)):
        result = run_identity_suite(nmax, 0)[-1]
        assert (result.name, result.max_tested, result.passed) == (
            "scalar_lane_matches_symbolic", cap, True
        )
    faulty = run_identity_suite(4, 4, inject_fault="scalar_lane_matches_symbolic")
    assert [r.name for r in faulty if not r.passed] == ["scalar_lane_matches_symbolic"]


def test_identity_suite_builds_each_stirling_row_once(monkeypatch, in_one_process):
    # each second-kind Stirling cell is one times_linear_add call, named by
    # (LAM, k, -n), or at L = p/q by (p, kq, -n), as its rows hold the integers
    # q^(n-k) S(n, k).  The first kind is not kept, and its cells (LAM, -n, k)
    # or (p, -nq, k) would meet the second kind's at row 0, so none is
    # recorded while audit.stirling1_table runs.
    from degenums import audit, numbers

    cells = []
    first_kind = []
    real_cell, real_stirling1 = numbers.times_linear_add, audit.stirling1_table

    def counting(x, a, b, y, c, lam):
        if not first_kind:
            cells.append((lam, a, b))
        return real_cell(x, a, b, y, c, lam)

    def stirling1_uncounted(*args):
        first_kind.append(True)
        try:
            return real_stirling1(*args)
        finally:
            first_kind.pop()

    monkeypatch.setattr(numbers, "_stirling2_rows", {})
    monkeypatch.setattr(numbers, "times_linear_add", counting)
    monkeypatch.setattr(audit, "stirling1_table", stirling1_uncounted)
    assert all(r.passed for r in run_identity_suite(30, 30))
    assert cells and len(cells) == len(set(cells))


def test_identity_suite_builds_each_power_table_once(monkeypatch, in_one_process):
    # every power triangle the suite reads, through both names series.powers
    # is called by, is cut from the kept triangles of e_L(t) - 1 and
    # log_L(1+t), each at order 24 with rows of lengths 1..25.  Each cell
    # below row 0 and right of column 0 is one sum_of_products while powers
    # runs: the suite computes 600, as many as the two triangles hold, so none
    # is computed twice.  Full columns g^0..g^24 would hold 1200 cells, half
    # of them above the diagonal, where every cell is zero.
    from degenums import audit, series

    requests, cells, inside = [], [], []
    real_powers, real_products = series.powers, LambdaPoly.sum_of_products

    def recording(g):
        requests.append(g)
        inside.append(True)
        try:
            return real_powers(g)
        finally:
            inside.pop()

    def counting(cls, pairs):
        if inside:
            cells.append(1)
        return real_products(pairs)

    monkeypatch.setattr(series, "_power_tables", [])
    monkeypatch.setattr(series, "powers", recording)
    monkeypatch.setattr(audit, "powers", recording)
    monkeypatch.setattr(LambdaPoly, "sum_of_products", classmethod(counting))
    assert all(r.passed for r in run_identity_suite(30, 30))
    em1 = e_lambda_series(24) - TruncatedSeries.constant(ONE, 24)
    bases = [TruncatedSeries(base) for base, _ in series._power_tables]
    assert bases == [em1, log_lambda_series(24)]
    assert [[len(row) for row in rows] for _, rows in series._power_tables] == [
        list(range(1, 26))
    ] * 2
    assert len(cells) == 2 * (24 * 25 // 2) == 600
    assert len(requests) > 2
    assert all(any(g == b.truncate(g.order) for b in bases) for g in requests)


def test_kept_power_table_with_a_wrong_cell_fails_every_reader(monkeypatch, forks):
    # the t^5 coefficient of (e_L(t) - 1)^2 in the kept triangle off by L: the
    # triangle is built once and kept, and every identity that reads it fails
    from degenums import series

    readers = [
        "stirling2_three_way",
        "bell_series_match",
        "ogf_egf_transforms",
        "stirling2_shift_identity",
        "exp_log_compositional_inverse",
    ]
    monkeypatch.setattr(series, "_power_tables", [])
    with monkeypatch.context() as here:
        # both triangles are built and kept in this process; the forked
        # child of the second call inherits the wrong cell
        here.setattr(os, "fork", _failed_fork)
        assert all(r.passed for r in run_identity_suite(8, 8))
    (base, rows), _ = series._power_tables
    assert TruncatedSeries(base) == e_lambda_series(8) - TruncatedSeries.constant(ONE, 8)
    row = rows[5]
    rows[5] = row[:2] + (row[2] + LAM,) + row[3:]
    assert [r.name for r in run_identity_suite(8, 8) if not r.passed] == readers
    assert forks == [1]


def test_bell_series_is_exp_at_x_times_e_minus_1():
    # exp(x t) at e_L(t) - 1 is exp(t) at x (e_L(t) - 1), the oracle as first
    # written, for each x the identity checks
    from degenums import audit

    pairs = audit._id_bell_series(12)
    cap = len(pairs) // 3 - 1  # one pair per n <= cap for each x
    em1 = e_lambda_series(cap) - TruncatedSeries.constant(ONE, cap)
    exp_series = TruncatedSeries(F(1, math.factorial(k)) for k in range(cap + 1))
    expected = []
    for x in (1, 2, -1):
        egf = exp_series.compose(em1.scale(x))
        expected += [egf.coeff(n).scale(math.factorial(n)) for n in range(cap + 1)]
    assert cap == 12 and [lhs for lhs, _ in pairs] == expected


def test_identity_suite_runs_each_kind_ab_run_once(monkeypatch, in_one_process):
    # symbolic recurrence cells: one 24-row run (300 cells) for each of the
    # six (kind, seed) pairs, which the 20- and 12-row readers then take
    # sub-trapezoids of; 2970 when the 15 twelve-row runs were built afresh
    from degenums import algorithms

    cells = []
    real = algorithms.times_linear_add

    def counting(x, a, b, y, c, lam):
        if lam is LAM:
            cells.append((a, b, c))
        return real(x, a, b, y, c, lam)

    monkeypatch.setattr(algorithms, "_kept_runs", {})
    monkeypatch.setattr(algorithms, "times_linear_add", counting)
    assert all(r.passed for r in run_identity_suite(30, 30))
    assert len(cells) == 1800


def test_identity_suite_builds_each_cell_once_above_32_rows(monkeypatch, in_one_process):
    # final_vs_closed_form's limit raised to 40: its six 40-row runs and its
    # 40-row second-kind triangle are kept like shorter ones, so the later
    # readers cut their runs and rows from them.  Each symbolic recurrence
    # cell is computed once, 820 per run, and so is each second-kind cell
    # (the first kind, not kept, is not recorded, as in the 30/30 test).
    from degenums import algorithms, audit, numbers

    registry = tuple(
        (name, size, 40 if name == "final_vs_closed_form" else limit, check)
        for name, size, limit, check in audit._IDENTITY_REGISTRY
    )
    run_cells, stirling_cells, first_kind = [], [], []
    real_run_cell, real_stirling_cell = algorithms.times_linear_add, numbers.times_linear_add
    real_stirling1 = audit.stirling1_table

    def counting_runs(x, a, b, y, c, lam):
        if lam is LAM:
            run_cells.append((a, b, c))
        return real_run_cell(x, a, b, y, c, lam)

    def counting_stirling(x, a, b, y, c, lam):
        if not first_kind:
            stirling_cells.append((lam, a, b))
        return real_stirling_cell(x, a, b, y, c, lam)

    def stirling1_uncounted(*args):
        first_kind.append(True)
        try:
            return real_stirling1(*args)
        finally:
            first_kind.pop()

    monkeypatch.setattr(audit, "_IDENTITY_REGISTRY", registry)
    monkeypatch.setattr(algorithms, "_kept_runs", {})
    monkeypatch.setattr(numbers, "_stirling2_rows", {})
    monkeypatch.setattr(algorithms, "times_linear_add", counting_runs)
    monkeypatch.setattr(numbers, "times_linear_add", counting_stirling)
    monkeypatch.setattr(audit, "stirling1_table", stirling1_uncounted)
    results = run_identity_suite(40, 30)
    assert all(r.passed for r in results)
    assert {r.name: r.max_tested for r in results}["final_vs_closed_form"] == 40
    assert len(run_cells) == 6 * (40 * 41 // 2) == 4920
    assert (LAM, 39, -39) in stirling_cells  # row 40 is built
    assert len(stirling_cells) == len(set(stirling_cells))


def test_kept_run_with_a_wrong_cell_fails_every_reader(monkeypatch):
    # cell (3, 0) of the symbolic kind-B runs off by L: each run is built
    # once and kept, and every identity that reads it fails.  The table
    # degeneration does not, as the fault vanishes at L = 0.
    from degenums import algorithms

    readers = [
        "final_vs_closed_form",
        "named_family_identification",
        "ogf_egf_transforms",
        "derivation_operator_rows",
        "scalar_lane_matches_symbolic",
    ]
    real = algorithms.times_linear_add

    def broken(x, a, b, y, c, lam):
        cell = real(x, a, b, y, c, lam)
        return cell + LAM if lam is LAM and (a, b, c) == (0, -2, -1) else cell

    monkeypatch.setattr(algorithms, "_kept_runs", {})
    assert all(r.passed for r in run_identity_suite(8, 8))
    monkeypatch.setattr(algorithms, "_kept_runs", {})
    monkeypatch.setattr(algorithms, "times_linear_add", broken)
    assert [r.name for r in run_identity_suite(8, 8) if not r.passed] == readers


def _with_wrong_cell(triangle):
    # the Stirling triangle builder with entry (5, 2) off by L
    def broken(nmax):
        rows = [list(row) for row in triangle(nmax).entries]
        rows[5][2] = rows[5][2] + LAM
        return StirlingTable(tuple(map(tuple, rows)))

    return broken


@pytest.mark.parametrize("route", ["stirling1_table", "stirling1_from_series"])
def test_stirling1_inversions_check_both_first_kind_routes(monkeypatch, route):
    # one wrong cell, in the row recurrence or in the series triangle, fails
    # the identity
    from degenums import audit

    assert {r.name: r.passed for r in run_identity_suite(8, 0)}["stirling1_inversions"]
    monkeypatch.setattr(audit, route, _with_wrong_cell(getattr(audit, route)))
    assert not {r.name: r.passed for r in run_identity_suite(8, 0)}["stirling1_inversions"]


@pytest.mark.parametrize("route", ["stirling2_by_basis_expansion", "stirling2_from_series"])
def test_stirling2_three_way_checks_both_oracle_routes(monkeypatch, route):
    # one wrong cell, in the carried basis expansion or in the series
    # triangle, fails the identity
    from degenums import audit

    assert {r.name: r.passed for r in run_identity_suite(8, 0)}["stirling2_three_way"]
    monkeypatch.setattr(audit, route, _with_wrong_cell(getattr(audit, route)))
    assert not {r.name: r.passed for r in run_identity_suite(8, 0)}["stirling2_three_way"]


def test_derivation_operator_rows_checks_every_carried_row(monkeypatch):
    # one wrong coefficient in carried row 4 fails the identity
    from degenums import audit

    real = audit.apply_weighted_derivation

    def broken(f, n):
        rows = list(real(f, n))
        cs = list(rows[4].coeffs)
        cs[1] = cs[1] + LAM
        rows[4] = TruncatedSeries(cs)
        return tuple(rows)

    assert {r.name: r.passed for r in run_identity_suite(0, 8)}["derivation_operator_rows"]
    monkeypatch.setattr(audit, "apply_weighted_derivation", broken)
    assert not {r.name: r.passed for r in run_identity_suite(0, 8)}["derivation_operator_rows"]


def test_identity_suite_differentiates_once_per_carried_row(monkeypatch, in_one_process):
    # derivation_operator_rows carries 6 rows for each of 3 seeds, and no
    # other identity differentiates a series
    from degenums import series

    calls = []
    real = series.TruncatedSeries.differentiate

    def counting(self):
        calls.append(self.order)
        return real(self)

    monkeypatch.setattr(series.TruncatedSeries, "differentiate", counting)
    assert all(r.passed for r in run_identity_suite(30, 30))
    assert len(calls) == 18


def _tuples(results):
    return [(r.name, r.max_tested, r.passed) for r in results]


@pytest.mark.parametrize("nmax, order", [(0, 0), (6, 6), (12, 12), (30, 30)])
def test_forked_suite_equals_the_suite_in_one_process(nmax, order, forks, monkeypatch):
    forked = _tuples(run_identity_suite(nmax, order))
    assert forks == [1]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert forked == _tuples(run_identity_suite(nmax, order))
    assert [name for name, _, _ in forked] == list(IDENTITY_NAMES)


def test_the_child_checks_a_fixed_part_of_the_registry():
    from degenums import audit

    child = audit._CHILD_IDENTITIES
    assert len(set(child)) == len(child) and set(child) < set(IDENTITY_NAMES) and child


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_an_injected_fault_fails_in_either_process(name, forks, monkeypatch):
    # one flipped coefficient in the child's half or in this process's half
    forked = _tuples(run_identity_suite(4, 4, inject_fault=name))
    assert forks == [1]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert forked == _tuples(run_identity_suite(4, 4, inject_fault=name))
    assert [n for n, _, passed in forked if not passed] == [name]


def _log_series_here(monkeypatch):
    # the orders log_L(1+t) is built at in this process; only
    # exp_log_compositional_inverse, one of the child's four, reads it
    from degenums import audit

    pid, real, here = os.getpid(), audit.log_lambda_series, []

    def log_series(order):
        if os.getpid() == pid:
            here.append(order)
        return real(order)

    monkeypatch.setattr(audit, "log_lambda_series", log_series)
    return here


def test_a_child_that_leaves_after_two_verdicts_has_the_rest_checked_here(monkeypatch, forks):
    # the child leaves as its third identity, ogf_egf_transforms, starts: its
    # first two verdicts are used, the third and fourth identities run here,
    # and the report is the same
    from degenums import audit

    expected = _tuples(run_identity_suite(12, 12))
    forks.clear()
    pid, here, ran_here = os.getpid(), _log_series_here(monkeypatch), []

    def watched(name, check):
        def checked(cap):
            if os.getpid() == pid:
                ran_here.append(name)
            elif name == "ogf_egf_transforms":
                os._exit(1)
            return check(cap)

        return checked

    registry = tuple(
        (name, size, limit, watched(name, check))
        for name, size, limit, check in audit._IDENTITY_REGISTRY
    )
    monkeypatch.setattr(audit, "_IDENTITY_REGISTRY", registry)
    assert _tuples(run_identity_suite(12, 12)) == expected
    assert forks == [1] and here == [12]
    assert [n for n in ran_here if n in audit._CHILD_IDENTITIES] == [
        "ogf_egf_transforms",
        "exp_log_compositional_inverse",
    ]


def test_a_child_that_exits_nonzero_after_all_its_verdicts_is_not_checked_again(monkeypatch, forks):
    # every verdict arrives in full, then the child's status is 3: each is
    # used, and none of the child's identities runs here
    pid, real_exit = os.getpid(), os._exit
    here = _log_series_here(monkeypatch)
    monkeypatch.setattr(os, "_exit", lambda status: real_exit(status if os.getpid() == pid else 3))
    assert all(r.passed for r in run_identity_suite(12, 12))
    assert forks == [1] and here == []


def test_identity_suite_degenerate_ranges():
    assert all(r.passed for r in run_identity_suite(0, 0))


def test_fault_injection_flips_named_identity():
    for name in ("stirling2_three_way", "ogf_egf_transforms"):
        results = run_identity_suite(5, 5, inject_fault=name)
        outcome = {r.name: r.passed for r in results}
        assert outcome[name] is False
        others = [ok for nm, ok in outcome.items() if nm != name]
        assert all(others)


def test_fault_injection_unknown_name():
    with pytest.raises(ValueError):
        run_identity_suite(5, 5, inject_fault="no_such_identity")


def test_suite_rejects_negative_ranges():
    with pytest.raises(ValueError):
        run_identity_suite(-1, 5)
