"""Tests for the arbitrary-precision constant evaluators."""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp
import pytest

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.store import ConstantStore
from mahlerzeta.values import (
    alternating_sum,
    combination_value,
    dirichlet_l_chi4,
    l3_ii_value,
    multiple_polylog,
    script_l_double,
    zeta,
)
from series_oracle import (
    li_single,
    li_single_series,
    multiple_polylog_series,
    script_l_single,
)

UNITS = (1, -1, 1j, -1j)


def _close(a, b, digits: int) -> bool:
    return abs(mp.mpc(a) - mp.mpc(b)) < mp.mpf(10) ** (-digits)


def test_alternating_sum_classics() -> None:
    with mp.workdps(40):
        log2 = alternating_sum(lambda j: mp.mpf(1) / (j + 1), 35)
        assert _close(log2, mp.log(2), 33)
        eta2 = alternating_sum(lambda j: mp.mpf(1) / (j + 1) ** 2, 35)
        assert _close(eta2, mp.pi**2 / 12, 33)
    with pytest.raises(ValueError):
        alternating_sum(lambda j: mp.mpf(1), 0)


def test_zeta_matches_mpmath() -> None:
    # Even arguments fold exactly in the combination, so they are checked
    # through combination_value; values.zeta takes only the odd ones.
    with mp.workdps(50):
        for s in (2, 3, 4, 5, 7, 9, 12, 21):
            if s % 2:
                assert _close(zeta(s, 40), mp.zeta(s), 38)
            folded = combination_value(ZetaCombination.zeta(s), 40)
            assert _close(folded, mp.zeta(s), 38)
    for s in (1, 2, 4, 12, -3):
        with pytest.raises(ValueError):
            zeta(s)
    with pytest.raises(ValueError):
        zeta(3, digits=0)


def test_dirichlet_l_chi4_matches_hurwitz_oracle() -> None:
    # L(chi_-4, s) = 4^{-s} (zeta(s, 1/4) - zeta(s, 3/4)); s = 1 would hit
    # the Hurwitz pole, so it is checked against its elementary value below.
    # Odd arguments fold exactly, so they are checked through
    # combination_value; dirichlet_l_chi4 takes only the even ones.
    with mp.workdps(50):
        for s in (2, 3, 4, 5, 8, 11):
            oracle = (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4)) / 4**s
            if s % 2 == 0:
                assert _close(dirichlet_l_chi4(s, 40), oracle, 38)
            folded = combination_value(ZetaCombination.lchi4(s), 40)
            assert _close(folded, oracle, 38)
        assert _close(dirichlet_l_chi4(2, 40), mp.catalan, 38)
        assert _close(combination_value(ZetaCombination.lchi4(1), 40), mp.pi / 4, 38)
    for s in (0, 1, 3, 11, -2):
        with pytest.raises(ValueError):
            dirichlet_l_chi4(s)


def test_li_single_matches_mpmath_polylog() -> None:
    with mp.workdps(40):
        for s in (1, 2, 3, 4, 6):
            for base in (-1, 1j, -1j):
                assert _close(li_single(s, base, 30), mp.polylog(s, mp.mpc(base)), 27)
        for s in (2, 3, 5):
            assert _close(li_single(s, 1, 30), mp.zeta(s), 27)
    with pytest.raises(ValueError):
        li_single(1, 1)
    with pytest.raises(ValueError):
        li_single(0, -1)
    with pytest.raises(ValueError):
        li_single(2, 2)


def test_li_single_series_cross_checks_assembled_route() -> None:
    with mp.workdps(35):
        for s in (1, 2, 3, 4, 5):
            for base in (-1, 1j, -1j):
                assert _close(
                    li_single_series(s, base, 25), li_single(s, base, 25), 23
                )
        for s in (2, 3, 4):
            assert _close(li_single_series(s, 1, 25), li_single(s, 1, 25), 23)
    with pytest.raises(ValueError):
        li_single_series(1, 1)


# Frozen cross-implementation values, originally computed with an independent
# integral-representation evaluator at 30 digits.
FROZEN_DOUBLE = {
    (3, 2, 1, 1): "0.711566197550572432",
    (2, 3, -1, 1): "-0.186157751738512485",
    (2, 2, -1, -1): "-0.202935606320838411",
}
FROZEN_DOUBLE_COMPLEX = {
    (3, 1): ("0.198751091038776557", "-0.324101792158434983"),
    (3, 3): ("0.0296970659663924891", "-0.109193287865715081"),
}


def test_multiple_polylog_frozen_values() -> None:
    with mp.workdps(30):
        for (r, s, x1, x2), expected in FROZEN_DOUBLE.items():
            assert _close(multiple_polylog(r, s, x1, x2, 18), mp.mpf(expected), 17)
        for (r, s), (re, im) in FROZEN_DOUBLE_COMPLEX.items():
            got = multiple_polylog(r, s, 1j, 1j, 18)
            assert _close(got, mp.mpc(mp.mpf(re), mp.mpf(im)), 17)


def test_multiple_polylog_stuffle_product() -> None:
    # Li_r(x) Li_s(y) = Li_{r,s}(x,y) + Li_{s,r}(y,x) + Li_{r+s}(xy)
    cases = [(2, 2, -1, -1), (2, 3, -1, 1), (3, 2, 1, -1), (2, 3, 1j, -1)]
    with mp.workdps(25):
        for r, s, x, y in cases:
            lhs = li_single(r, x, 16) * li_single(s, y, 16)
            rhs = (
                multiple_polylog(r, s, x, y, 16)
                + multiple_polylog(s, r, y, x, 16)
                + li_single(r + s, complex(x) * complex(y), 16)
            )
            assert _close(lhs, rhs, 14)


def test_multiple_polylog_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        multiple_polylog(2, 1, -1, 1)  # divergent outer series
    with pytest.raises(ValueError):
        multiple_polylog(0, 2, 1, 1)
    with pytest.raises(ValueError):
        multiple_polylog(2, 2, 0.5, 1)


def test_script_l_single() -> None:
    with mp.workdps(35):
        # scriptL_3(1) = (7/4) zeta(3)
        assert _close(script_l_single(3, 1, 25), mp.mpf(7) / 4 * mp.zeta(3), 23)
        # scriptL_2(i) = 2i L(chi_-4, 2) = 2i * Catalan
        assert _close(script_l_single(2, 1j, 25), mp.mpc(0, 2 * mp.catalan), 23)
        with pytest.raises(ValueError):
            script_l_single(1, 1, 25)


def test_script_l_double_weight_five_closed_form() -> None:
    with mp.workdps(30):
        got = script_l_double(3, 2, 1, 1, 18)
        expected = mp.mpf(93) / 4 * mp.zeta(5) - mp.mpf(7) / 4 * mp.pi**2 * mp.zeta(3)
        assert _close(got, expected, 16)
        assert _close(got, mp.mpf("3.3468746289617415461"), 16)


def test_l3_ii_values() -> None:
    with mp.workdps(30):
        assert _close(l3_ii_value(1, 16), mp.mpf("2.827116561355353848"), 15)
        assert _close(l3_ii_value(3, 16), mp.mpf("0.90544288754810078923"), 15)
    with pytest.raises(ValueError):
        l3_ii_value(2, 16)
    with pytest.raises(ValueError):
        l3_ii_value(-1, 16)


# The 60-digit values of data/l3_ii.json in the benchmark, computed there from
# a Mellin integral with mpmath.quad and mpmath.polylog at two precisions.
L3_II_MELLIN = {
    1: "2.82711656135535384798168130964810547987764443387222074341544",
    3: "0.905442887548100789233022600366710782820036628537122235046341",
    5: "0.243295478681513937718895235807243471708595746239792499805969",
}


def test_l3_ii_values_at_100_digits() -> None:
    with mp.workdps(130):
        for b, reference in L3_II_MELLIN.items():
            value = l3_ii_value(b, 100)
            assert _close(value, l3_ii_value(b, 120), 100)
            assert _close(value, mp.mpf(reference), 59)


def test_multiple_polylog_meets_its_term_count_bound() -> None:
    # The term count is set a priori from the digits asked for; 20 more
    # digits must not move the value beyond the first request.
    with mp.workdps(80):
        for r, s, x1, x2 in ((3, 1, 1j, 1j), (2, 3, -1j, -1)):
            for d in (15, 40):
                low = multiple_polylog(r, s, x1, x2, d)
                assert _close(low, multiple_polylog(r, s, x1, x2, d + 20), d)


def test_multiple_polylog_matches_direct_summation() -> None:
    # Every convergent Li_{r,s}(x1, x2) at fourth roots of unity with
    # r + s <= 6 against the summed double series.  With r = 1 and x1 = 1
    # the inner sum grows like log k, which the oracle's extrapolation in
    # 1/k does not model; it reaches 4 digits there.  The series has real
    # coefficients, so one oracle value serves a pair and its conjugate.
    conjugate = {1: 1, -1: -1, 1j: -1j, -1j: 1j}
    pairs = []
    for x1 in UNITS:
        for x2 in UNITS:
            if (conjugate[x1], conjugate[x2]) not in pairs:
                pairs.append((x1, x2))
    with mp.workdps(30):
        for weight in range(2, 7):
            for r in range(1, weight):
                s = weight - r
                for x1, x2 in pairs:
                    if s == 1 and x2 == 1:
                        continue
                    digits = 4 if (r == 1 and x1 == 1) else 12
                    reference = multiple_polylog_series(r, s, x1, x2, digits)
                    assert _close(
                        multiple_polylog(r, s, x1, x2, 20), reference, digits
                    ), (r, s, x1, x2)
                    y1, y2 = conjugate[x1], conjugate[x2]
                    assert _close(
                        multiple_polylog(r, s, y1, y2, 20), mp.conj(reference), digits
                    ), (r, s, y1, y2)


def test_combination_value_basic() -> None:
    combo = ZetaCombination.zeta(3, coeff=7)
    with mp.workdps(40):
        assert _close(combination_value(combo, 30), 7 * mp.zeta(3), 28)
        mixed = (
            ZetaCombination.zeta(5, coeff=62)
            + ZetaCombination.zeta(3, pi_power=2, coeff=Fraction(14, 3))
        )
        expected = 62 * mp.zeta(5) + mp.mpf(14) / 3 * mp.pi**2 * mp.zeta(3)
        assert _close(combination_value(mixed, 30), expected, 28)
        assert combination_value(ZetaCombination.zero(), 10) == 0
        assert _close(
            combination_value(ZetaCombination.pi_rational(Fraction(1, 2), 2), 30),
            mp.pi**2 / 2,
            28,
        )
        assert _close(
            combination_value(ZetaCombination.log2(pi_power=1), 30),
            mp.pi * mp.log(2),
            28,
        )


def test_combination_value_reaches_evaluators_through_module_attributes(monkeypatch) -> None:
    # Wrappers installed on the module's names (the benchmark's spans are
    # such wrappers) must see every evaluation of a base constant.
    import mahlerzeta.values as values

    calls = []
    for name in ("zeta", "dirichlet_l_chi4", "l3_ii_value"):
        def spy(arg, digits, _name=name, _original=getattr(values, name)):
            calls.append((_name, arg))
            return _original(arg, digits)

        monkeypatch.setattr(values, name, spy)
    combo = (
        ZetaCombination.zeta(3)
        + ZetaCombination.lchi4(2, pi_power=1)
        + ZetaCombination.l3_ii(1)
        + ZetaCombination.log2()
        + ZetaCombination.zeta(4)
    )
    with mp.workdps(30):
        value = combination_value(combo, 15)
        expected = (
            mp.zeta(3)
            + mp.pi * mp.catalan
            + mp.mpf(L3_II_MELLIN[1])
            + mp.log(2)
            + mp.pi**4 / 90
        )
        assert _close(value, expected, 14)
    assert calls == [("zeta", 3), ("dirichlet_l_chi4", 2), ("l3_ii_value", 1)]


def test_combination_value_uses_store(tmp_path) -> None:
    store = ConstantStore(tmp_path / "c.txt")
    combo = ZetaCombination.zeta(3, coeff=2) + ZetaCombination.lchi4(2)
    with mp.workdps(30):
        first = combination_value(combo, 20, store=store)
    assert store.get("zeta", 3, 20) is not None
    assert store.get("lchi4", 2, 20) is not None
    # A poisoned store entry proves the cache is actually consulted.
    store.put("zeta", 3, 99, "3.5")
    with mp.workdps(30):
        poisoned = combination_value(combo, 20, store=store)
        assert _close(poisoned, 2 * mp.mpf("3.5") + mp.catalan, 18)
        # Higher-precision requests than any stored entry recompute honestly.
        fresh = combination_value(combo, 20, store=ConstantStore(tmp_path / "d.txt"))
        assert _close(first, fresh, 18)
        assert _close(first, 2 * mp.zeta(3) + mp.catalan, 18)
