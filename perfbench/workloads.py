"""The benchmark's workloads: job lists drawn from a seed.

Every job is a ``degenums`` command line plus the check of its output.  The
seed draws only generated inputs (the custom seed file, the values of
``--lambda``) and the rational L at which symbolic output is checked; the
same seed gives the same jobs.  See ``WORKLOADS.md`` for why each workload
exists and what each one predicts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import oracles
from checks import Job


@dataclass(frozen=True)
class Sizes:
    verify_nmax: int
    verify_order: int
    nmax: int          # numbers bernoulli --nmax
    rows: int          # matrix B --rows
    custom_rows: int   # matrix A --seed custom --rows


FULL = Sizes(verify_nmax=30, verify_order=30, nmax=100, rows=100, custom_rows=80)
SMALL = Sizes(verify_nmax=8, verify_order=8, nmax=12, rows=12, custom_rows=10)


def draw_lambda(rng: random.Random, sign: int) -> Fraction:
    """A small rational p/q with 1 <= p <= 4 and 5 <= q <= 9, so that every
    draw grows the values at about the same rate."""
    while True:
        p, q = rng.randint(1, 4), rng.randint(5, 9)
        if math.gcd(p, q) == 1:
            return Fraction(sign * p, q)


def draw_custom_seed(rng: random.Random, count: int) -> list[list[Fraction]]:
    """``count`` polynomials of degree <= 3 with coefficients p/q, |p|, q <= 9."""
    polys = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(1, 4))]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        polys.append(coeffs)
    return polys


def _bernoulli_seed(count: int):
    return lambda x: oracles.bernoulli_seed(count, x)


def verify_suite(rng: random.Random, work: Path, size: Sizes) -> list[Job]:
    check_lam = draw_lambda(rng, 1)
    n, k = size.verify_nmax, size.verify_order
    return [
        Job("verify", ["verify", "--nmax", str(n), "--order", str(k)],
            checks.identity_suite(n, k)),
        Job("audit", ["audit"], checks.printed_matrix_audit(check_lam)),
    ]


def symbolic_tables(rng: random.Random, work: Path, size: Sizes) -> list[Job]:
    check_lam = draw_lambda(rng, rng.choice((1, -1)))
    custom = draw_custom_seed(rng, size.custom_rows + 1)
    custom_file = work / "custom_seed.txt"
    custom_file.write_text("".join(oracles.render_poly(c) + "\n" for c in custom),
                           encoding="utf-8")

    def custom_at(x: Fraction) -> list[Fraction]:
        return [oracles.poly_at(c, x) for c in custom]

    return [
        Job("numbers_bernoulli", ["numbers", "bernoulli", "--nmax", str(size.nmax)],
            checks.bernoulli_numbers(size.nmax, check_lam, evaluated=False)),
        Job("matrix_B_bernoulli",
            ["matrix", "B", "--seed", "bernoulli", "--rows", str(size.rows)],
            checks.table_run("B", "bernoulli", _bernoulli_seed(size.rows + 1),
                             size.rows, check_lam, evaluated=False)),
        Job("matrix_A_custom_flat",
            ["matrix", "A", "--seed", "custom", "--custom-file", str(custom_file),
             "--rows", str(size.custom_rows), "--format", "flat"],
            checks.table_run("A", "custom", custom_at, size.custom_rows, check_lam,
                             evaluated=False, flat=True)),
    ]


def lambda_eval(rng: random.Random, work: Path, size: Sizes) -> list[Job]:
    # One positive and one negative value per seed; the seed picks which job
    # gets which.  ``--lambda=P/Q`` keeps argparse from reading -P/Q as an option.
    lams = [draw_lambda(rng, 1), draw_lambda(rng, -1)]
    rng.shuffle(lams)
    lam_n, lam_m = lams
    return [
        Job("numbers_bernoulli_at_lambda",
            ["numbers", "bernoulli", "--nmax", str(size.nmax),
             f"--lambda={oracles.render_rat(lam_n)}"],
            checks.bernoulli_numbers(size.nmax, lam_n, evaluated=True)),
        Job("matrix_B_bernoulli_at_lambda",
            ["matrix", "B", "--seed", "bernoulli", "--rows", str(size.rows),
             f"--lambda={oracles.render_rat(lam_m)}"],
            checks.table_run("B", "bernoulli", _bernoulli_seed(size.rows + 1),
                             size.rows, lam_m, evaluated=True)),
    ]


WORKLOADS = {
    "verify_suite": verify_suite,
    "symbolic_tables": symbolic_tables,
    "lambda_eval": lambda_eval,
}


def make_jobs(name: str, seed: int, work: Path, size: Sizes = FULL) -> list[Job]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work, size)
