"""End-to-end acceptance checks for the package.

Each test is one acceptance criterion, so ``pytest -v`` prints one
pass/fail line per criterion:

1. exact reproduction of all eighteen tabulated closed forms,
2. exact combinatorial identity suites at full scale,
3. the log-kernel integral formula against adaptive quadrature,
4. the double-polylogarithm reduction against numerical evaluation,
5. the reduced one-dimensional integrals against the closed forms,
6. a quasi-Monte Carlo torus integral against its known value, and
7. the one-dimensional defining integrals behind the base measures.

Criteria 1-2 are exact (rational/polynomial equality, zero tolerance);
criteria 3-7 are numeric with the stated tolerances.  Wall-clock budgets
are asserted where the contract states one.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List, Tuple

import mpmath as mp
import numpy as np

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.formulas import Family, FamilySpec, mahler_measure
from mahlerzeta.check.identities import PolyQ, log_moment_poly
from mahlerzeta.check.identities import (
    check_bernoulli_euler_transfer,
    check_bernoulli_halving,
    check_bernoulli_recurrence,
    check_bernoulli_factorial_sum,
    check_bernoulli_transfer_first,
    check_bernoulli_transfer_second,
    check_bernoulli_transfer_third,
    check_euler_factorial_sum,
    check_euler_shifted_factorial_sum,
    check_log_moment_poly_properties,
    check_symmetric_transfer_first,
    check_symmetric_transfer_second,
    log_moment_poly_bernoulli_form,
    monomial_from_log_moment_polys,
    reduction_ab,
    reduction_ba,
    reduction_induction_ab,
    reduction_induction_ba,
)
from mahlerzeta.oracle import (
    arctangent_moment_check,
    closed_form_measure,
    kernel_integral_check,
    log1p_moment_check,
    log_square_moment_check,
    reduced_integral,
    torus_qmc,
)
from mahlerzeta.check.reduce import double_polylog_reduce, script_l_double_even_closed
from mahlerzeta.check.tables import errata_rows, reproduce_tables
from mahlerzeta.values import combination_value, multiple_polylog
from series_oracle import script_l_double


def test_criterion_1_tables_reproduced_exactly() -> None:
    """All 18 tabulated rows match the derived closed forms exactly."""
    start = time.perf_counter()
    rows = reproduce_tables()
    assert len(rows) == 18
    for result, matches in rows:
        assert matches, f"closed form disagrees with the table for {result.spec}"

    # Two rows pinned term by term as exact combinations.
    four = mahler_measure(FamilySpec(Family.ONE, 4)).combination
    assert four == (
        ZetaCombination.zeta(5, 0, 62) + ZetaCombination.zeta(3, 2, Fraction(14, 3))
    )
    eight = mahler_measure(FamilySpec(Family.ONE, 8)).combination
    assert eight == (
        ZetaCombination.zeta(9, 0, 2044)
        + ZetaCombination.zeta(7, 2, 508)
        + ZetaCombination.zeta(5, 4, Fraction(868, 15))
        + ZetaCombination.zeta(3, 6, Fraction(16, 5))
    )

    # Two rows circulate with typos: the derived forms match the corrected
    # variants exactly and disagree with the misprinted ones.
    errata = errata_rows()
    assert len(errata) == 2
    for row in errata:
        evaluated = mahler_measure(row.spec).combination
        assert evaluated == row.corrected
        assert evaluated != row.printed
    assert time.perf_counter() - start < 1.0


def test_criterion_2_identity_suites_exact() -> None:
    """Every combinatorial identity holds exactly for n, k <= 20 (polynomials to 40)."""
    start = time.perf_counter()
    for n in range(1, 21):
        for l in range(1, n + 1):
            assert check_symmetric_transfer_first(n, l)
            assert check_bernoulli_transfer_first(n, l)
            assert check_bernoulli_euler_transfer(n, l)
        assert check_bernoulli_transfer_second(n)
        assert check_bernoulli_factorial_sum(n)
        assert reduction_ab(n)
        assert reduction_induction_ab(n)
    for n in range(0, 21):
        for l in range(0, n + 1):
            assert check_symmetric_transfer_second(n, l)
            assert check_bernoulli_transfer_third(n, l)
        assert check_euler_factorial_sum(n)
        assert check_euler_shifted_factorial_sum(n)
        assert reduction_ba(n)
        assert reduction_induction_ba(n)
    for k in range(0, 41):
        assert check_log_moment_poly_properties(k)
        assert log_moment_poly(k) == log_moment_poly_bernoulli_form(k)
        assert check_bernoulli_halving(k)
    for k in range(1, 41):
        assert check_bernoulli_recurrence(k)
    for degree in range(1, 41):
        rebuilt = PolyQ.zero()
        for k, coefficient in monomial_from_log_moment_polys(degree):
            rebuilt = rebuilt + log_moment_poly(k) * coefficient
        assert rebuilt == PolyQ.monomial(degree)
    assert time.perf_counter() - start < 30.0


def test_criterion_3_kernel_integral_against_quadrature() -> None:
    """The log-kernel closed form matches quadrature within 1e-9 on 100 seeded cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        while abs(a - b) < 0.15:
            b = float(rng.uniform(0.1, 10.0))
        k = int(rng.integers(0, 7))
        result = kernel_integral_check(a, b, k)
        assert abs(result.quadrature - result.closed_form) <= 1e-9, (
            f"a={a!r} b={b!r} k={k}: quadrature {result.quadrature!r} "
            f"vs closed form {result.closed_form!r}"
        )
    assert time.perf_counter() - start < 60.0


def _convergent_double_polylog_cases() -> List[Tuple[int, int, int, int]]:
    cases = []
    for weight in (3, 5, 7, 9):
        for r in range(2, weight):
            s = weight - r
            for rho in (1, -1):
                for sigma in (1, -1):
                    if s == 1 and sigma == 1:
                        continue
                    cases.append((r, s, rho, sigma))
    return cases


def test_criterion_4_double_polylog_reduction_matches_series() -> None:
    """The zeta-value reduction of Li_{r,s}(+-1,+-1) matches numerical evaluation."""
    cases = _convergent_double_polylog_cases()
    assert len(cases) == 56
    for r, s, rho, sigma in cases:
        series = multiple_polylog(r, s, rho, sigma, digits=8)
        closed = combination_value(double_polylog_reduce(r, s, rho, sigma), digits=20)
        assert abs(float(mp.re(series)) - float(closed)) < 1e-6, (r, s, rho, sigma)

    # The weight-five signed combination has the exact closed form
    # (93/4) zeta(5) - (7/4) pi^2 zeta(3); the numeric value agrees within 1e-6.
    closed_combo = script_l_double_even_closed(1)
    assert closed_combo == (
        ZetaCombination.zeta(5, 0, Fraction(93, 4))
        + ZetaCombination.zeta(3, 2, Fraction(-7, 4))
    )
    series_value = script_l_double(3, 2, 1, 1, digits=10)
    closed_value = combination_value(closed_combo, digits=20)
    assert abs(float(mp.re(series_value)) - float(closed_value)) < 1e-6


def test_criterion_5_reduced_integrals_match_closed_forms() -> None:
    """One-dimensional reduced integrals reproduce every closed form, n <= 4."""
    start = time.perf_counter()
    for family, first_n in ((Family.ONE, 1), (Family.TWO, 0), (Family.THREE, 1)):
        for n_transforms in range(first_n, 5):
            spec = FamilySpec(family, n_transforms)
            estimate = reduced_integral(spec)
            closed = closed_form_measure(spec)
            assert abs(estimate.value - closed) < 1e-7, (
                f"{spec}: integral {estimate.value!r} vs closed {closed!r}"
            )
    assert time.perf_counter() - start < 300.0


def test_criterion_6_torus_qmc_within_three_sigma() -> None:
    """QMC over the 2-torus lands within 3 sigma of 2*Catalan/pi at 1e7 samples."""
    start = time.perf_counter()
    estimate = torus_qmc(FamilySpec(Family.ONE, 1), samples=10_000_000, seed=42)
    with mp.workdps(30):
        target = float(2 * mp.catalan / mp.pi)
    assert estimate.error_estimate < 1e-3
    assert abs(estimate.value - target) < 3 * estimate.error_estimate, (
        f"estimate {estimate.value!r} +- {estimate.error_estimate!r} "
        f"vs target {target!r}"
    )
    assert time.perf_counter() - start < 60.0


def test_criterion_7_defining_integrals_match_closed_forms() -> None:
    """The three one-dimensional defining integrals match their closed forms, h <= 3."""
    for h in range(1, 4):
        result = log1p_moment_check(h)
        assert abs(result.quadrature - result.closed_form) <= 1e-8, f"log1p moment h={h}: {result}"
    for h in range(0, 4):
        result = log_square_moment_check(h)
        assert abs(result.quadrature - result.closed_form) <= 1e-8, (
            f"log-square moment h={h}: {result}"
        )
        result = arctangent_moment_check(h)
        assert abs(result.quadrature - result.closed_form) <= 1e-8, (
            f"arctangent moment h={h}: {result}"
        )
