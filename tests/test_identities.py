"""Tests for the exact combinatorial identity suite."""

from __future__ import annotations

import argparse
from fractions import Fraction
from math import factorial
from typing import Set

import pytest

from mahlerzeta import exact, formulas
from mahlerzeta.check import identities, registry
from mahlerzeta.check.identities import log_moment_poly
from mahlerzeta.check.identities import (
    check_bernoulli_euler_transfer,
    check_bernoulli_halving,
    check_bernoulli_recurrence,
    check_bernoulli_factorial_sum,
    check_bernoulli_transfer_first,
    check_bernoulli_transfer_second,
    check_bernoulli_transfer_third,
    check_euler_factorial_sums,
    check_log_moment_poly_properties,
    check_monomial_decomposition,
    check_symmetric_transfer_first,
    check_symmetric_transfer_second,
    log_moment_poly_bernoulli_form,
    monomial_from_log_moment_polys,
)


def test_symmetric_transfer_all_small_cases() -> None:
    # each check takes one n and covers every l of it
    for n in range(1, 13):
        assert check_symmetric_transfer_first(n)
    for n in range(13):
        assert check_symmetric_transfer_second(n)


def test_symmetric_transfer_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        check_symmetric_transfer_first(0)
    with pytest.raises(ValueError):
        check_symmetric_transfer_second(-1)


def test_bernoulli_transfer_all_small_cases() -> None:
    for n in range(1, 13):
        assert check_bernoulli_transfer_first(n)
        assert check_bernoulli_transfer_second(n)
    for n in range(13):
        assert check_bernoulli_transfer_third(n)


def test_bernoulli_transfer_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        check_bernoulli_transfer_first(0)
    with pytest.raises(ValueError):
        check_bernoulli_transfer_second(0)
    with pytest.raises(ValueError):
        check_bernoulli_transfer_third(-1)


def test_bernoulli_euler_transfer_valid_range() -> None:
    for n in range(1, 13):
        assert check_bernoulli_euler_transfer(n)


def test_bernoulli_euler_transfer_rejects_l_zero() -> None:
    # The identity is outside its proof at l = 0, so the check leaves it out,
    # and n = 0, whose only l is 0, is rejected.
    with pytest.raises(ValueError):
        check_bernoulli_euler_transfer(0)


def test_weighted_factorial_sums() -> None:
    for n in range(13):
        assert check_euler_factorial_sums(n)
    for n in range(1, 13):
        assert check_bernoulli_factorial_sum(n)
    with pytest.raises(ValueError):
        check_bernoulli_factorial_sum(0)
    with pytest.raises(ValueError):
        check_euler_factorial_sums(-1)


def test_bernoulli_recurrence_and_halving() -> None:
    for k in range(1, 61):
        assert check_bernoulli_recurrence(k)
    for k in range(41):
        assert check_bernoulli_halving(k)
    with pytest.raises(ValueError):
        check_bernoulli_recurrence(0)
    with pytest.raises(ValueError):
        check_bernoulli_halving(-1)


def test_log_moment_poly_property_suite() -> None:
    for k in range(41):
        assert check_log_moment_poly_properties(k)


def test_monomial_expansion_coefficients() -> None:
    for degree in range(1, 26):
        assert check_monomial_decomposition(degree)
        # the same sum over P_k = R_k / (k+1)!, in rationals
        total = [Fraction(0)] * (degree + 1)
        for k, c in monomial_from_log_moment_polys(degree):
            for j, r in enumerate(log_moment_poly(k)):
                total[j] += Fraction(c * r, factorial(k + 1))
        assert total == [0] * degree + [1]
    assert monomial_from_log_moment_polys(1) == [(0, 1)]
    assert monomial_from_log_moment_polys(2) == [(1, 2)]
    with pytest.raises(ValueError):
        monomial_from_log_moment_polys(0)


def test_bernoulli_polynomial_form_matches() -> None:
    for k in range(21):
        assert log_moment_poly_bernoulli_form(k) == log_moment_poly(k)
    with pytest.raises(ValueError):
        log_moment_poly_bernoulli_form(-1)


def test_bernoulli_polynomial_form_small_literal() -> None:
    # R_1 = 2! P_1 = 2! x^2 / 2
    assert log_moment_poly_bernoulli_form(1) == (0, 0, 1)


def _failing_identity_checks() -> Set[str]:
    """Names of the ``identities/`` registry entries that fail or raise at ``max_n = 4``."""
    args = argparse.Namespace(max_n=4, seed=42)
    failing = set()
    for name, run in registry._checks():
        if not name.startswith("identities/"):
            continue
        try:
            passed = bool(run(args))
        except Exception:
            passed = False
        if not passed:
            failing.add(name)
    return failing


def _bump_s1(values):
    ladder = exact.symmetric_ladder(values)
    return ladder[:1] + (ladder[1] + 1,) + ladder[2:] if len(ladder) > 1 else ladder


def _shift_b4(n: int) -> Fraction:
    return exact.bernoulli(n) + (1 if n == 4 else 0)


def _perturb_r2(k: int) -> tuple:
    poly = log_moment_poly(k)  # the unpatched original, bound at this module's import
    return poly[:1] + (poly[1] + 6,) + poly[2:] if k == 2 else poly


def test_no_identity_check_is_vacuous(monkeypatch) -> None:
    """Each identity check fails when one input it rests on is slightly wrong."""
    names = {name for name, _ in registry._checks() if name.startswith("identities/")}
    assert len(names) == 16
    assert _failing_identity_checks() == set()
    perturbations = {
        "ladder s_1 + 1": [
            (identities, "symmetric_ladder", _bump_s1),
            (formulas, "symmetric_ladder", _bump_s1),
        ],
        "B_4 + 1": [(identities, "bernoulli", _shift_b4)],
        # P_2 + x, on R_2 = 3! P_2
        "R_2 + 3! x": [(identities, "log_moment_poly", _perturb_r2)],
    }
    caught = {}
    for label, patches in perturbations.items():
        with monkeypatch.context() as patch:
            for module, attribute, replacement in patches:
                patch.setattr(module, attribute, replacement)
            caught[label] = _failing_identity_checks()
    bernoulli_checks = {"identities/bernoulli-recurrence", "identities/bernoulli-halving"}
    assert bernoulli_checks <= caught["B_4 + 1"]
    polynomial_checks = {
        "identities/log-moment-poly-properties",
        "identities/monomial-decomposition",
    }
    assert polynomial_checks <= caught["R_2 + 3! x"]
    assert set().union(*caught.values()) == names
    assert _failing_identity_checks() == set()


@pytest.mark.parametrize("row", ["coeff_a_row", "coeff_b_row"])
def test_reduction_checks_catch_a_scaled_row(monkeypatch, row: str) -> None:
    """A row off by a factor ``2n + 1`` fails both reduction checks and nothing else.

    The reduced-integral oracle weighs its moments with these rows, and the
    factorial-cleared symmetric-sum form of each identity reads no row, so
    the row forms are the registry's only hold on them.
    """
    correct = getattr(identities, row)
    monkeypatch.setattr(
        identities, row, lambda n: tuple(weight / (2 * n + 1) for weight in correct(n))
    )
    assert _failing_identity_checks() == {"identities/reduction-ab", "identities/reduction-ba"}
