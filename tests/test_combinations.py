"""Tests for the symbolic constant-combination algebra."""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
import pytest

from mahlerzeta.combinations import KINDS, ConstantBasisElement, ZetaCombination
from mahlerzeta.values import combination_value
from test_values import L3_II_MELLIN

# Per kind: the arguments in -3..12 that the normal form keeps, the
# intrinsic weight and the text symbol at the first of them, and a reference
# value K(kind, arg) that shares no code with the package.
EXPECTED_KINDS = {
    "one": ([0], 0, "", lambda arg: mp.mpf(1)),
    "log2": ([0], 1, "log(2)", lambda arg: mp.log(2)),
    "zeta": ([3, 5, 7, 9, 11], 3, "zeta(3)", mp.zeta),
    "lchi4": (
        [2, 4, 6, 8, 10, 12],
        2,
        "L(chi_-4,2)",
        lambda s: mp.dirichlet(s, [0, 1, 0, -1]),
    ),
    "l3_ii": ([1, 3, 5, 7, 9, 11], 4, "i*scriptL(3,1;i,i)", lambda b: mp.mpf(L3_II_MELLIN[b])),
}


def test_even_zeta_folds_to_pi_powers() -> None:
    assert ZetaCombination.zeta(2) == ZetaCombination.pi_rational(Fraction(1, 6), 2)
    assert ZetaCombination.zeta(4) == ZetaCombination.pi_rational(Fraction(1, 90), 4)
    assert ZetaCombination.zeta(6) == ZetaCombination.pi_rational(Fraction(1, 945), 6)
    assert ZetaCombination.zeta(8) == ZetaCombination.pi_rational(Fraction(1, 9450), 8)
    # Folding honours an incoming pi power and coefficient.
    assert ZetaCombination.zeta(2, pi_power=3, coeff=12) == ZetaCombination.pi_rational(
        2, 5
    )


def test_odd_lchi4_folds_to_pi_powers() -> None:
    assert ZetaCombination.lchi4(1) == ZetaCombination.pi_rational(Fraction(1, 4), 1)
    assert ZetaCombination.lchi4(3) == ZetaCombination.pi_rational(Fraction(1, 32), 3)
    assert ZetaCombination.lchi4(5) == ZetaCombination.pi_rational(Fraction(5, 1536), 5)


def test_surviving_basis_elements_are_kept() -> None:
    z3 = ZetaCombination.zeta(3)
    assert z3.terms() == [(ConstantBasisElement("zeta", 3, 0), Fraction(1))]
    l2 = ZetaCombination.lchi4(2, pi_power=2, coeff=Fraction(1, 3))
    assert l2.terms() == [(ConstantBasisElement("lchi4", 2, 2), Fraction(1, 3))]
    assert ZetaCombination.log2().terms() == [
        (ConstantBasisElement("log2", 0, 0), Fraction(1))
    ]
    assert ZetaCombination.l3_ii(3).terms() == [
        (ConstantBasisElement("l3_ii", 3, 0), Fraction(1))
    ]


def _kept_as_is(build, element: ConstantBasisElement) -> bool:
    """Whether ``build()`` returns exactly ``element`` (not folded, not rejected)."""
    try:
        return build().terms() == [(element, 1)]
    except ValueError:
        return False


def test_every_kind_follows_its_table_entry() -> None:
    assert list(KINDS) == list(EXPECTED_KINDS)
    named = {
        "zeta": ZetaCombination.zeta,
        "lchi4": ZetaCombination.lchi4,
        "l3_ii": ZetaCombination.l3_ii,
    }
    for kind, (kept, weight, symbol, reference) in EXPECTED_KINDS.items():
        for arg in range(-3, 13):
            element = ConstantBasisElement(kind, arg, 0)
            assert KINDS[kind].keeps(arg) == (arg in kept), (kind, arg)
            built = _kept_as_is(lambda: ZetaCombination.term(kind, arg), element)
            assert built == (arg in kept), (kind, arg)
            if kind in named:
                built = _kept_as_is(lambda: named[kind](arg), element)
                assert built == (arg in kept), (kind, arg)
        first = ConstantBasisElement(kind, kept[0], 0)
        assert first.format_text() == symbol
        assert first.weight() == weight
        assert first.shifted(2).weight() == weight + 2
        assert ConstantBasisElement(kind, kept[0], 1).format_text() == "*".join(
            part for part in ("pi", symbol) if part
        )
        with mp.workdps(40):
            for arg in kept[:3]:
                value = combination_value(ZetaCombination.term(kind, arg), 25)
                assert abs(value - reference(arg)) < mp.mpf(10) ** -24, (kind, arg)


def test_invalid_constructions_raise() -> None:
    with pytest.raises(ValueError):
        ZetaCombination.zeta(1)
    with pytest.raises(ValueError):
        ZetaCombination.lchi4(0)
    with pytest.raises(ValueError):
        ZetaCombination.l3_ii(2)
    with pytest.raises(ValueError):
        ZetaCombination({ConstantBasisElement("zeta", 4, 0): 1})
    with pytest.raises(ValueError):
        ZetaCombination({ConstantBasisElement("lchi4", 3, 0): 1})
    with pytest.raises(ValueError):
        ZetaCombination({ConstantBasisElement("log2", 1, 0): 1})
    with pytest.raises(ValueError):
        ZetaCombination({ConstantBasisElement("bogus", 0, 0): 1})


def test_addition_and_cancellation() -> None:
    a = ZetaCombination.zeta(3, coeff=7)
    b = ZetaCombination.zeta(3, coeff=-7)
    assert (a + b).is_zero()
    c = a + ZetaCombination.log2(pi_power=2, coeff=Fraction(1, 2))
    assert len(c.terms()) == 2
    assert c - a == ZetaCombination.log2(pi_power=2, coeff=Fraction(1, 2))
    assert (-a) + a == ZetaCombination.zero()


def test_scalar_and_pi_rational_multiplication() -> None:
    a = ZetaCombination.zeta(3) + ZetaCombination.log2(pi_power=2)
    assert (2 * a).coefficient(ConstantBasisElement("zeta", 3, 0)) == 2
    assert (a * Fraction(1, 2)).coefficient(ConstantBasisElement("log2", 0, 2)) == Fraction(1, 2)
    assert (0 * a).is_zero()
    pi2 = ZetaCombination.pi_rational(3, 2)
    prod = pi2 * a
    assert prod.coefficient(ConstantBasisElement("zeta", 3, 2)) == 3
    assert prod.coefficient(ConstantBasisElement("log2", 0, 4)) == 3
    assert prod == a * pi2
    assert a.scale_pi(2) == ZetaCombination.pi_rational(1, 2) * a
    assert a.scale_pi(2).scale_pi(-2) == a


def test_product_of_two_transcendental_parts_is_rejected() -> None:
    a = ZetaCombination.zeta(3)
    b = ZetaCombination.log2()
    with pytest.raises(ValueError):
        a * b


def test_homogeneous_weight() -> None:
    # zeta(3), pi^2 * L(chi_-4, 2)  ->  zeta weight 3 vs 2 + 2 = 4: mixed.
    mixed = ZetaCombination.zeta(3) + ZetaCombination.lchi4(2, pi_power=2)
    assert mixed.homogeneous_weight() is None
    # 24 L(chi_-4, 4) + pi^2 L(chi_-4, 2) is homogeneous of weight 4.
    row = ZetaCombination.lchi4(4, coeff=24) + ZetaCombination.lchi4(2, pi_power=2)
    assert row.homogeneous_weight() == 4
    # i scriptL(3,1) has weight 4; log2 terms count the log as weight 1.
    assert ZetaCombination.l3_ii(1).homogeneous_weight() == 4
    assert ZetaCombination.log2(pi_power=2).homogeneous_weight() == 3
    assert ZetaCombination.zero().homogeneous_weight() is None
    assert ZetaCombination.pi_rational(5, 3).homogeneous_weight() == 3


def test_records_round_trip_and_folding_on_input() -> None:
    combo = (
        ZetaCombination.zeta(5, coeff=62)
        + ZetaCombination.zeta(3, pi_power=2, coeff=Fraction(14, 3))
        + ZetaCombination.log2(pi_power=4, coeff=Fraction(1, 2))
        + ZetaCombination.l3_ii(3, coeff=8)
        + ZetaCombination.pi_rational(Fraction(-2, 7), 6)
    )
    assert ZetaCombination.from_records(combo.to_records()) == combo
    # Non-normal records fold on the way in.
    folded = ZetaCombination.from_records(
        [{"kind": "zeta", "arg": 2, "pi_power": 0, "coeff": "6"}]
    )
    assert folded == ZetaCombination.pi_rational(1, 2)
    with pytest.raises(ValueError):
        ZetaCombination.from_records([{"kind": "bogus", "arg": 0, "coeff": "1"}])


def test_format_text() -> None:
    combo = ZetaCombination.zeta(5, coeff=62) + ZetaCombination.zeta(
        3, pi_power=2, coeff=Fraction(14, 3)
    )
    assert combo.format_text() == "(14/3)*pi^2*zeta(3) + 62*zeta(5)"
    assert ZetaCombination.zero().format_text() == "0"
    assert ZetaCombination.pi_rational(1, 1).format_text() == "pi"
    assert ZetaCombination.pi_rational(-1, 0).format_text() == "-1"
    assert (
        ZetaCombination.zeta(3) - ZetaCombination.log2()
    ).format_text() == "-log(2) + zeta(3)"


def test_normal_form_equality_is_numeric_equality() -> None:
    # Build pi^4/90 two ways and check both symbolically and numerically.
    a = ZetaCombination.zeta(4)
    b = ZetaCombination.pi_rational(Fraction(1, 90), 4)
    assert a == b
    with mp.workdps(30):
        va = sum(
            mp.mpf(c.numerator) / c.denominator * mp.pi ** e.pi_power
            for e, c in a.terms()
        )
        assert mp.almosteq(va, mp.zeta(4))
