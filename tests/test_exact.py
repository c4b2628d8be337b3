"""Tests for the exact-arithmetic core."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import mpmath as mp
import pytest

from mahlerzeta.exact import (
    bernoulli,
    elementary_symmetric,
    euler_number,
    even_squares,
    odd_squares,
    symmetric_ladder,
)
from mahlerzeta.check.identities import PolyQ, log_moment_poly, log_moment_poly_at_i

# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

BERNOULLI_LITERALS = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}


def test_bernoulli_literals() -> None:
    for n, expected in BERNOULLI_LITERALS.items():
        assert bernoulli(n) == expected


def test_bernoulli_odd_vanish() -> None:
    for n in range(3, 61, 2):
        assert bernoulli(n) == 0


def test_bernoulli_series_division_oracle() -> None:
    # x/(e^x - 1) = 1 / sum_{j>=0} x^j/(j+1)!, so the coefficients b_m of the
    # reciprocal series satisfy b_0 = 1, b_m = -sum_{j<m} b_j / (m-j+1)!.
    n_max = 40
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += b[j] * Fraction(1, factorial(m - j + 1))
        b.append(-acc)
    for m in range(n_max + 1):
        assert bernoulli(m) == b[m] * factorial(m)


def test_bernoulli_rejects_negative_index() -> None:
    with pytest.raises(ValueError):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# Euler numbers
# ---------------------------------------------------------------------------

EULER_LITERALS = {
    0: 1,
    2: -1,
    4: 5,
    6: -61,
    8: 1385,
    10: -50521,
    12: 2702765,
}


def test_euler_literals() -> None:
    for n, expected in EULER_LITERALS.items():
        assert euler_number(n) == expected


def test_euler_odd_vanish() -> None:
    for n in range(1, 41, 2):
        assert euler_number(n) == 0


def test_euler_series_division_oracle() -> None:
    # sech(x) = 1/cosh(x); divide the power series with exact rationals and
    # compare E_m = m! * [x^m] sech(x).
    n_max = 30
    cosh = [Fraction(1, factorial(j)) if j % 2 == 0 else Fraction(0) for j in range(n_max + 1)]
    s = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += s[j] * cosh[m - j]
        s.append(-acc)
    for m in range(n_max + 1):
        assert euler_number(m) == s[m] * factorial(m)


def test_euler_rejects_negative_index() -> None:
    with pytest.raises(ValueError):
        euler_number(-1)


# ---------------------------------------------------------------------------
# Elementary symmetric polynomials and square ladders
# ---------------------------------------------------------------------------


def test_elementary_symmetric_examples() -> None:
    assert elementary_symmetric([4, 16, 36], 0) == 1
    assert elementary_symmetric([1, 2, 3], 2) == 11
    assert elementary_symmetric([1, 2], 3) == 0
    assert elementary_symmetric([], 0) == 1
    assert elementary_symmetric([Fraction(1, 2), Fraction(1, 3)], 2) == Fraction(1, 6)


def test_elementary_symmetric_brute_force_oracle() -> None:
    values = [3, -7, Fraction(2, 5), 11, -1]
    for l in range(len(values) + 2):
        brute = sum(
            (prod(Fraction(v) for v in subset) for subset in combinations(values, l)),
            Fraction(0),
        )
        if l == 0:
            brute = Fraction(1)
        assert elementary_symmetric(values, l) == brute


def test_elementary_symmetric_rejects_negative_index() -> None:
    with pytest.raises(ValueError):
        elementary_symmetric([1, 2], -1)


def test_square_ladders() -> None:
    assert even_squares(3) == [4, 16, 36]
    assert odd_squares(3) == [1, 9, 25]
    assert even_squares(0) == []
    assert odd_squares(0) == []
    with pytest.raises(ValueError):
        even_squares(-1)
    with pytest.raises(ValueError):
        odd_squares(-1)


def _random_vectors(rng: random.Random):
    """Seeded small vectors: all-int ones, then ones mixing in Fractions."""
    for k in range(8):
        yield [rng.randint(-30, 30) for _ in range(k)]
        yield [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.5
            else rng.randint(-30, 30)
            for _ in range(k)
        ]


def test_symmetric_ladder_matches_brute_force_sums() -> None:
    rng = random.Random(20261018)
    for _ in range(5):
        for values in _random_vectors(rng):
            ladder = symmetric_ladder(values)
            assert len(ladder) == len(values) + 1
            for l, entry in enumerate(ladder):
                brute = sum(
                    (prod(Fraction(v) for v in subset) for subset in combinations(values, l)),
                    Fraction(0),
                )
                assert entry == brute


def test_symmetric_ladder_is_the_product_polynomial() -> None:
    rng = random.Random(7)
    for values in _random_vectors(rng):
        product = PolyQ([1])
        for v in values:
            product = product * PolyQ([1, v])
        ladder = symmetric_ladder(values)
        assert [product.coefficient(j) for j in range(len(ladder))] == list(ladder)


def test_symmetric_ladder_keeps_integers() -> None:
    for values in (even_squares(12), odd_squares(12), [3, -7, 0, 11]):
        assert all(type(entry) is int for entry in symmetric_ladder(values))
    assert symmetric_ladder(odd_squares(3)) == (1, 35, 259, 225)


def test_symmetric_ladder_of_nothing_is_one() -> None:
    assert symmetric_ladder([]) == (1,)


def test_symmetric_ladders_grow_every_prefix() -> None:
    # the ladder of values[:i + 1] is that of values[:i] times (1 + values[i] t)
    rng = random.Random(11)
    for values in _random_vectors(rng):
        prefixes = [symmetric_ladder(values[:i]) for i in range(len(values) + 1)]
        for v, shorter, longer in zip(values, prefixes, prefixes[1:]):
            grown = [a + v * b for a, b in zip(shorter + (0,), (0,) + shorter)]
            assert list(longer) == grown
    assert [symmetric_ladder(even_squares(i)) for i in range(3)] == [(1,), (1, 4), (1, 20, 64)]


# ---------------------------------------------------------------------------
# Rational polynomials
# ---------------------------------------------------------------------------


def test_polyq_basic_structure() -> None:
    p = PolyQ([1, 0, Fraction(3, 2), 0])
    assert p.degree == 2
    assert p.coefficient(0) == 1
    assert p.coefficient(2) == Fraction(3, 2)
    assert p.coefficient(5) == 0
    assert p.monomial_degrees() == [0, 2]
    assert PolyQ.zero().degree == -1
    assert PolyQ.x() == PolyQ.monomial(1)
    with pytest.raises(ValueError):
        PolyQ.monomial(-1)


def test_polyq_arithmetic() -> None:
    p = PolyQ([1, 2, 3])
    q = PolyQ([0, -2, -3, 4])
    assert p + q == PolyQ([1, 0, 0, 4])
    assert p - p == PolyQ.zero()
    assert -p == PolyQ([-1, -2, -3])
    assert p * PolyQ([0, 1]) == PolyQ([0, 1, 2, 3])
    assert (p * q).degree == 5
    assert 2 * p == PolyQ([2, 4, 6])
    assert p * Fraction(1, 2) == PolyQ([Fraction(1, 2), 1, Fraction(3, 2)])
    assert (PolyQ.zero() * p) == PolyQ.zero()


def test_polyq_derivative_and_drop_constant() -> None:
    p = PolyQ([5, 1, 2, 3])
    assert p.derivative() == PolyQ([1, 4, 9])
    assert p.drop_constant() == PolyQ([0, 1, 2, 3])
    assert PolyQ.zero().derivative() == PolyQ.zero()
    assert PolyQ.zero().drop_constant() == PolyQ.zero()


def test_polyq_evaluation_type_dispatch() -> None:
    p = PolyQ([1, 0, Fraction(1, 2)])  # 1 + x^2/2
    assert p(Fraction(2)) == Fraction(3)
    assert p(2) == Fraction(3)
    assert p(0.5) == pytest.approx(1.125)
    assert p(1j) == pytest.approx(0.5)
    assert p.at_i() == (Fraction(1, 2), 0)
    with mp.workdps(30):
        val = p(mp.mpf(2))
        assert mp.almosteq(val, mp.mpf(3))
    assert PolyQ.zero()(Fraction(7)) == 0


def test_polyq_at_i_cycles_through_powers_of_i() -> None:
    powers = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for j in range(12):
        assert PolyQ.monomial(j).at_i() == powers[j % 4]
        assert PolyQ.monomial(j, Fraction(-2, 3)).at_i() == tuple(
            Fraction(-2, 3) * part for part in powers[j % 4]
        )
    assert PolyQ([1, 2, 3, 4, 5]).at_i() == (3, -2)
    assert PolyQ.zero().at_i() == (0, 0)
    re, im = PolyQ([Fraction(1, 3), 1]).at_i()
    assert isinstance(re, Fraction) and isinstance(im, Fraction)


def test_polyq_at_i_matches_gaussian_horner() -> None:
    # Horner's rule on exact (re, im) pairs, with multiplication by i as the
    # quarter turn (re, im) -> (-im, re).
    rng = random.Random(11)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 15))]
        re, im = Fraction(0), Fraction(0)
        for c in reversed(coeffs):
            re, im = -im + c, re
        assert PolyQ(coeffs).at_i() == (re, im)


# ---------------------------------------------------------------------------
# Log-moment kernel polynomials
# ---------------------------------------------------------------------------


def test_log_moment_poly_small_literals() -> None:
    x = PolyQ.x()
    assert log_moment_poly(0) == x
    assert log_moment_poly(1) == PolyQ([0, 0, Fraction(1, 2)])
    assert log_moment_poly(2) == PolyQ([0, Fraction(1, 3), 0, Fraction(1, 3)])
    assert log_moment_poly(3) == PolyQ([0, 0, Fraction(1, 2), 0, Fraction(1, 4)])
    assert log_moment_poly(4) == PolyQ(
        [0, Fraction(7, 15), 0, Fraction(2, 3), 0, Fraction(1, 5)]
    )
    assert log_moment_poly(5) == PolyQ(
        [0, 0, Fraction(7, 6), 0, Fraction(5, 6), 0, Fraction(1, 6)]
    )


def test_log_moment_poly_structural_properties() -> None:
    for k in range(41):
        p = log_moment_poly(k)
        assert p.degree == k + 1
        assert p.coefficient(0) == 0  # vanishes at the origin
        # Parity: even k gives odd polynomials, odd k gives even ones.
        want_parity = 1 if k % 2 == 0 else 0
        assert all(d % 2 == want_parity for d in p.monomial_degrees())
        assert p.coefficient(k + 1) == Fraction(1, k + 1)


def test_log_moment_poly_derivative_ladder() -> None:
    for l in range(1, 21):
        assert log_moment_poly(2 * l + 1).derivative() == (2 * l + 1) * log_moment_poly(2 * l)
        # The even derivative picks up a constant term that must be dropped.
        assert log_moment_poly(2 * l).derivative().drop_constant() == (
            2 * l
        ) * log_moment_poly(2 * l - 1)


def test_log_moment_poly_values_at_i() -> None:
    for l in range(1, 21):
        assert log_moment_poly(2 * l).at_i() == (0, 0)
        assert log_moment_poly(2 * l - 1).at_i() == (log_moment_poly_at_i(l), 0)
    assert log_moment_poly_at_i(1) == Fraction(-1, 2)
    assert log_moment_poly_at_i(2) == Fraction(-1, 4)
    assert log_moment_poly_at_i(3) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        log_moment_poly_at_i(0)


def test_monomials_expand_in_log_moment_basis() -> None:
    # x^{2h}   = sum_{k=0}^{h-1} (-1)^k C(2h, 2k+1)   P_{2h-2k-1}(x)
    # x^{2h+1} = sum_{k=0}^{h}   (-1)^k C(2h+1, 2k+1) P_{2h-2k}(x)
    for h in range(1, 13):
        even_sum = PolyQ.zero()
        for k in range(h):
            sign = -1 if k % 2 else 1
            even_sum = even_sum + sign * comb(2 * h, 2 * k + 1) * log_moment_poly(
                2 * h - 2 * k - 1
            )
        assert even_sum == PolyQ.monomial(2 * h)
    for h in range(13):
        odd_sum = PolyQ.zero()
        for k in range(h + 1):
            sign = -1 if k % 2 else 1
            odd_sum = odd_sum + sign * comb(2 * h + 1, 2 * k + 1) * log_moment_poly(
                2 * h - 2 * k
            )
        assert odd_sum == PolyQ.monomial(2 * h + 1)


def test_log_moment_poly_rejects_negative_index() -> None:
    with pytest.raises(ValueError):
        log_moment_poly(-1)
