"""Exact degenerate special numbers and their table algorithms.

Everything is computed over polynomials in the degeneracy parameter L with
arbitrary-precision rational coefficients, so all identities can be checked
symbolically and the L -> 0 limit is plain evaluation at 0.
"""

from .exact import (
    LAM,
    ONE,
    ZERO,
    LambdaPoly,
    classical_falling,
    format_rat,
    parse_rat,
)
from .series import (
    StirlingTable,
    TruncatedSeries,
    apply_weighted_derivation,
    e_lambda_series,
    e_lambda_x_series,
    log_lambda_series,
    stirling1_from_series,
    stirling2_from_series,
)
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
from .algorithms import (
    AlgorithmTable,
    SequenceSpec,
    build_table,
    closed_form_final_sequence,
    final_sequence,
    inverse_transform_check,
    transform_check,
)
from .audit import (
    IdentityResult,
    MatrixAuditResult,
    PrintedEntry,
    PRINTED_MATRIX_CORPUS,
    IDENTITY_NAMES,
    audit_printed_matrices,
    run_identity_suite,
)

__version__ = "0.1.0"
