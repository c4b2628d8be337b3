"""Tests for the exact reduction layer."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.exact import bernoulli
from mahlerzeta.reduce import (
    alternating_double_zeta_difference,
    arctangent_moment_closed,
    double_polylog_reduce,
    li_one_leading_alternating,
    li_one_second_alternating,
    lchi4_log_moment_closed,
    log1p_moment_closed,
    log_square_moment_closed,
    script_l_double_even_closed,
    zeta_log_moment_closed,
)
from mahlerzeta.values import combination_value, multiple_polylog
from series_oracle import script_l_double


def _close(a, b, digits: int) -> bool:
    return abs(mp.mpc(a) - mp.mpc(b)) < mp.mpf(10) ** (-digits)


def test_double_polylog_reduce_matches_series() -> None:
    cases = [
        (2, 1, 1, -1),
        (2, 1, -1, -1),
        (3, 2, 1, 1),
        (3, 2, -1, 1),
        (2, 3, -1, -1),
        (4, 1, -1, -1),
        (5, 2, 1, -1),
        (4, 3, -1, 1),
    ]
    with mp.workdps(30):
        for r, s, rho, sigma in cases:
            exact = double_polylog_reduce(r, s, rho, sigma)
            series = multiple_polylog(r, s, rho, sigma, 18)
            assert _close(combination_value(exact, 20), series, 15)


def test_double_polylog_reduce_weight_homogeneous() -> None:
    for r, s, rho, sigma in [(2, 1, 1, -1), (3, 2, 1, 1), (4, 3, -1, -1), (2, 7, 1, -1)]:
        combo = double_polylog_reduce(r, s, rho, sigma)
        assert combo.homogeneous_weight() == r + s


def test_double_polylog_reduce_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        double_polylog_reduce(2, 1, 1, 1)  # divergent
    with pytest.raises(ValueError):
        double_polylog_reduce(1, 2, 1, 1)  # inner index 1 not covered
    with pytest.raises(ValueError):
        double_polylog_reduce(2, 2, 1, 1)  # even weight
    with pytest.raises(ValueError):
        double_polylog_reduce(3, 2, 2, 1)  # argument not +-1


def test_li_one_limits_match_series() -> None:
    # The inner index 1 makes the outer tail carry a log factor; the Hoelder
    # convolution does not care, so the closed forms are checked to 18 digits.
    with mp.workdps(30):
        for s in (2, 4, 6):
            assert _close(
                combination_value(li_one_leading_alternating(s), 20),
                multiple_polylog(1, s, -1, 1, 20),
                18,
            )
            assert _close(
                combination_value(li_one_second_alternating(s), 20),
                multiple_polylog(1, s, 1, -1, 20),
                18,
            )
    with pytest.raises(ValueError):
        li_one_leading_alternating(3)
    with pytest.raises(ValueError):
        li_one_second_alternating(0)


def test_li_one_limits_weight_two_literals() -> None:
    # Li_{1,2}(-1,1) = zeta(3) - (pi^2/4) log 2 and Li_{1,2}(1,-1) = zeta(3)/8.
    lead = li_one_leading_alternating(2)
    assert lead == ZetaCombination.zeta(3) + ZetaCombination.log2(
        pi_power=2, coeff=Fraction(-1, 4)
    )
    second = li_one_second_alternating(2)
    assert second == ZetaCombination.zeta(3, coeff=Fraction(1, 8))


def _alternating_difference_bernoulli_form(h: int) -> ZetaCombination:
    """D(h) transcribed with zeta(2k) pre-expanded, zeta(2k) = (-1)^{k+1}
    B_{2k} (2 pi)^{2k} / (2 (2k)!), and assembled term by term."""
    total = ZetaCombination.zeta(
        2 * h + 1, coeff=Fraction((2 * h - 1) * (2 ** (2 * h + 1) - 1), 2 ** (2 * h + 1))
    )
    log2_coeff = Fraction((-1) ** h, factorial(2 * h)) * bernoulli(2 * h) * (2 ** (2 * h) - 1)
    total = total + ZetaCombination.log2(pi_power=2 * h, coeff=log2_coeff)
    for k in range(1, h):
        c = (
            Fraction(
                (2 ** (2 * h + 1 - 2 * k) - 1) * (2 ** (2 * k - 1) - 1),
                2 ** (2 * h - 2 * k),
            )
            * Fraction((-1) ** k, factorial(2 * k))
            * bernoulli(2 * k)
        )
        total = total + ZetaCombination.zeta(2 * h + 1 - 2 * k, pi_power=2 * k, coeff=c)
    return total


def test_alternating_difference_forms_agree_exactly() -> None:
    for h in range(1, 11):
        assert alternating_double_zeta_difference(h) == (
            _alternating_difference_bernoulli_form(h)
        )
    with pytest.raises(ValueError):
        alternating_double_zeta_difference(0)


def test_alternating_difference_is_li_one_difference() -> None:
    for h in range(1, 9):
        direct = li_one_leading_alternating(2 * h) - li_one_second_alternating(2 * h)
        assert alternating_double_zeta_difference(h) == direct


FROZEN_DIFFERENCE = {
    1: "-0.65847232569963413649",
    2: "-0.12321245168983686133",
    3: "-0.030495913303619495945",
}


def test_alternating_difference_frozen_values() -> None:
    with mp.workdps(30):
        for h, expected in FROZEN_DIFFERENCE.items():
            got = combination_value(alternating_double_zeta_difference(h), 22)
            assert _close(got, mp.mpf(expected), 19)


def test_log1p_moment_scaling() -> None:
    for h in (1, 2, 3):
        assert log1p_moment_closed(h) == alternating_double_zeta_difference(h) * Fraction(
            -factorial(2 * h - 1), 2
        )


def test_script_l_double_even_closed_literals() -> None:
    assert script_l_double_even_closed(1) == ZetaCombination.zeta(
        5, coeff=Fraction(93, 4)
    ) + ZetaCombination.zeta(3, pi_power=2, coeff=Fraction(-7, 4))
    assert script_l_double_even_closed(2) == ZetaCombination.zeta(
        7, coeff=Fraction(1905, 32)
    ) + ZetaCombination.zeta(5, pi_power=2, coeff=Fraction(-93, 16))
    with pytest.raises(ValueError):
        script_l_double_even_closed(0)


def test_script_l_double_even_closed_matches_series() -> None:
    with mp.workdps(30):
        for h, frozen in ((1, "3.3468746289617415461"), (2, "0.5427800174520760483234"), (3, "0.1272500415401527997071")):
            exact = combination_value(script_l_double_even_closed(h), 22)
            assert _close(exact, mp.mpf(frozen), 18)
            series = script_l_double(3, 2 * h, 1, 1, 16)
            assert _close(exact, series, 14)


def test_log_square_moment_closed_small() -> None:
    # h = 0 reduces to pi log 2.
    assert log_square_moment_closed(0) == ZetaCombination.log2(pi_power=1)
    combo = log_square_moment_closed(1)
    assert combo.homogeneous_weight() == 4
    with mp.workdps(30):
        assert _close(combination_value(combo, 22), mp.mpf("11.9816313034382"), 11)
        assert _close(
            combination_value(log_square_moment_closed(0), 22),
            mp.pi * mp.log(2),
            18,
        )
    with pytest.raises(ValueError):
        log_square_moment_closed(-1)


def test_arctangent_moment_closed_small() -> None:
    # h = 0 reduces to (7/4) zeta(3).
    assert arctangent_moment_closed(0) == ZetaCombination.zeta(3, coeff=Fraction(7, 4))
    combo = arctangent_moment_closed(1)
    assert combo == ZetaCombination.zeta(5, coeff=Fraction(31, 4)) + ZetaCombination.zeta(
        3, pi_power=2, coeff=Fraction(7, 48)
    )
    with mp.workdps(30):
        assert _close(combination_value(combo, 22), mp.mpf("9.766331408871"), 10)
    with pytest.raises(ValueError):
        arctangent_moment_closed(-1)


def test_unit_log_moment_closed() -> None:
    # j = 1, x^2-1 kernel: integral = pi^2/12... via (+1) 1! (3/4) zeta(2).
    assert zeta_log_moment_closed(1) == ZetaCombination.pi_rational(
        Fraction(1, 8), 2
    )
    assert zeta_log_moment_closed(2) == ZetaCombination.zeta(
        3, coeff=Fraction(-7, 4)
    )
    assert lchi4_log_moment_closed(0) == ZetaCombination.pi_rational(
        Fraction(1, 4), 1
    )
    assert lchi4_log_moment_closed(1) == ZetaCombination.lchi4(2, coeff=-1)
    with pytest.raises(ValueError):
        zeta_log_moment_closed(0)
    with pytest.raises(ValueError):
        lchi4_log_moment_closed(-1)
