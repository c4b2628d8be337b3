"""mahlerzeta: exact Mahler measures for three families of lattice polynomials.

The package computes the (logarithmic) Mahler measure of three families of
polynomials in arbitrarily many variables as exact symbolic combinations of
odd zeta values, Dirichlet L-values of the nonprincipal character mod 4,
log 2, and a small set of length-two polylogarithm constants, and
cross-checks every closed form against independent numerical oracles.
"""

from __future__ import annotations

from .combinations import ConstantBasisElement, ZetaCombination
from .exact import (
    bernoulli,
    euler_number,
    log_moment_poly,
)
from .identities import monomial_from_log_moment_polys
from .formulas import (
    Family,
    FamilySpec,
    MahlerResult,
    coeff_a,
    coeff_b,
    family_one,
    family_three,
    family_two,
    mahler_measure,
)
from .oracle import (
    CheckResult,
    IntegralEstimate,
    base_measure_one,
    base_measure_three_imaginary,
    base_measure_three_real,
    base_measure_two,
    closed_form_measure,
    imaginary_measure_qmc,
    kernel_integral_check,
    reduced_integral,
    torus_qmc,
)
from .reduce import double_polylog_reduce
from .store import ConstantStore
from .tables import TableRow, errata_rows, reproduce_tables, table_rows
from .values import combination_value, multiple_polylog

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConstantBasisElement",
    "ConstantStore",
    "Family",
    "FamilySpec",
    "IntegralEstimate",
    "MahlerResult",
    "TableRow",
    "ZetaCombination",
    "__version__",
    "base_measure_one",
    "base_measure_three_imaginary",
    "base_measure_three_real",
    "base_measure_two",
    "bernoulli",
    "closed_form_measure",
    "coeff_a",
    "coeff_b",
    "combination_value",
    "double_polylog_reduce",
    "errata_rows",
    "euler_number",
    "family_one",
    "family_three",
    "family_two",
    "imaginary_measure_qmc",
    "kernel_integral_check",
    "log_moment_poly",
    "mahler_measure",
    "monomial_from_log_moment_polys",
    "multiple_polylog",
    "reduced_integral",
    "reproduce_tables",
    "table_rows",
    "torus_qmc",
]
