"""Property tests for the exact algebra, the wire format, the constant store and eval's numbers."""

from __future__ import annotations

import json
import tempfile
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.check.identities import PolyQ
from mahlerzeta.store import ConstantStore
from mahlerzeta.values import _base_constant, _nstr

_COEFFS = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
_PI_POWERS = st.integers(-4, 8)

# Every constructor, at normal and non-normal arguments alike (even zeta and
# odd L(chi_-4, s) fold into pi powers on the way in).
_PARTS = st.one_of(
    st.builds(ZetaCombination.pi_rational, _COEFFS, _PI_POWERS),
    st.builds(ZetaCombination.zeta, st.integers(2, 25), _PI_POWERS, _COEFFS),
    st.builds(ZetaCombination.lchi4, st.integers(1, 24), _PI_POWERS, _COEFFS),
    st.builds(ZetaCombination.log2, _PI_POWERS, _COEFFS),
    st.builds(
        ZetaCombination.l3_ii, st.integers(0, 8).map(lambda k: 2 * k + 1), _PI_POWERS, _COEFFS
    ),
)
_COMBINATIONS = st.lists(_PARTS, max_size=8).map(
    lambda parts: sum(parts, ZetaCombination.zero())
)
_SMALL_COEFFS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_POLYS = st.lists(_SMALL_COEFFS, max_size=6).map(PolyQ)


@given(_COMBINATIONS, _COMBINATIONS, _COMBINATIONS)
def test_combination_addition_is_commutative_and_associative(a, b, c) -> None:
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ZetaCombination.zero() == a


@given(_COMBINATIONS)
def test_combination_minus_itself_is_zero(a) -> None:
    difference = a - a
    assert difference.is_zero()
    assert difference == ZetaCombination.zero()
    assert a + (-a) == difference


@given(_COEFFS, _COEFFS, _COMBINATIONS, _COMBINATIONS)
def test_rational_scaling_distributes(q, r, a, b) -> None:
    assert q * (a + b) == q * a + q * b
    assert (q + r) * a == q * a + r * a
    assert q * (r * a) == (q * r) * a
    assert 1 * a == a


@given(_COMBINATIONS, _PI_POWERS, _PI_POWERS)
def test_scale_pi_composes(a, s, t) -> None:
    pi = ZetaCombination.pi_rational
    assert pi(1, t) * (pi(1, s) * a) == pi(1, s + t) * a
    assert pi(1, -s) * (pi(1, s) * a) == a
    assert pi(1, 0) * a == a
    assert pi(1, s) * a == a * pi(1, s)


@given(_POLYS, _POLYS, _POLYS)
def test_polynomial_ring_laws(p, q, r) -> None:
    zero, one = PolyQ.zero(), PolyQ([1])
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p + zero == p
    assert p * one == p
    assert p * zero == zero
    assert p + (-p) == zero
    assert p - q == p + (-q)


@given(_COMBINATIONS)
def test_records_round_trip(combo: ZetaCombination) -> None:
    records = combo.to_records()
    rebuilt = ZetaCombination.from_records(json.loads(json.dumps(records)))
    assert rebuilt == combo
    assert rebuilt.to_records() == records
    assert all(Fraction(rec["coeff"]) != 0 for rec in records)


_PUTS = st.lists(
    st.tuples(
        st.sampled_from(("zeta", "lchi4", "log2", "l3_ii")),
        st.integers(0, 12),
        st.integers(1, 120),
        st.builds("{}.{}".format, st.integers(-999, 999), st.integers(0, 10**30)),
    ),
    max_size=30,
)


@settings(deadline=None)
@given(_PUTS, st.integers(0, 30))
def test_store_keeps_most_precise_entry_through_save_and_reload(puts, split) -> None:
    expected = {}
    for kind, arg, digits, value in puts:
        if (kind, arg) not in expected or expected[(kind, arg)][0] < digits:
            expected[(kind, arg)] = (digits, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "constants.txt"
        # Two saves, the second from a reloaded store, so the merge is seen
        # through the file as well as in memory.
        first = ConstantStore(path)
        for put in puts[:split]:
            first.put(*put)
        first.save()
        second = ConstantStore(path)
        for put in puts[split:]:
            second.put(*put)
        second.save()
        reloaded = ConstantStore(path)
        assert reloaded.entries() == [
            (kind, arg, digits, value)
            for (kind, arg), (digits, value) in sorted(expected.items())
        ]
        for (kind, arg), (digits, value) in expected.items():
            assert reloaded.get(kind, arg, digits) == value
            assert reloaded.get(kind, arg, digits + 1) is None
        assert [p.name for p in Path(tmp).iterdir()] == ["constants.txt"]


def _working_bits(digits: int) -> int:
    """The bits to which ``libmpf.to_str`` converts at ``digits``; beyond them it truncates."""
    return int((digits + 3) * 3.3219280948873626) + 10


@st.composite
def _dyadics(draw):
    """``(m, e, digits)``: the number ``m * 2^e``, exact in binary and in decimal.

    Most are the nearest dyadic to a decimal drawn with ``digits``-digit ties,
    runs of 9s or exponents at the fixed/scientific boundaries in mind; some
    are exact ties ``u / 2^f``, whose last decimal digit is a 5.
    """
    digits = draw(st.integers(1, 120))
    bits = _working_bits(digits)
    if draw(st.integers(0, 3)) == 0:
        f = draw(st.integers(0, 200))
        u = draw(st.integers(0, 2 ** min(bits - 1, f + 60))) * 2 + 1
        m, e = u * 10 ** draw(st.integers(0, 3)), -f
        significant = len(str(m * 5**f).rstrip("0"))
        digits = max(1, min(significant - 1, 120))
    else:
        lead = draw(st.integers(1, 9))
        body = draw(
            st.one_of(
                st.text("0123456789", max_size=digits + 2),
                st.integers(0, digits + 2).map(lambda k: "9" * k),
                st.tuples(st.text("0123456789", max_size=digits), st.integers(0, 3)).map(
                    lambda parts: parts[0] + "5" + "0" * parts[1]
                ),
            )
        )
        edges = [min(-(digits // 3), -5), digits]
        exponent = draw(
            st.one_of(
                st.integers(-150, 150),
                st.sampled_from(edges).flatmap(lambda edge: st.integers(edge - 2, edge + 2)),
            )
        )
        target = Fraction(int(str(lead) + body)) * Fraction(10) ** (exponent - len(body))
        e = target.numerator.bit_length() - target.denominator.bit_length() - bits + 1
        m = round(target / Fraction(2) ** e)
        while m.bit_length() > bits:
            m, e = (m + 1) // 2, e + 1
    sign = draw(st.sampled_from((1, -1)))
    return sign * m, e, digits


@settings(deadline=None, max_examples=400)
@given(_dyadics())
@example((125, 0, 2))  # 125 -> 130.0: a tie rounds up
@example((1, -1, 1))  # 0.5 at one digit
@example((2**20 - 1, -20, 5))  # 0.99999904... -> 1.0: the carry moves the exponent
@example((999999, 0, 6))  # 999999.0: exponent 5, one below the scientific edge
@example((9999995, 0, 6))  # rounds to 1.0e+7
@example((1, -17, 10))  # 7.62939453125e-6: exponent -6, below the edge at -5
@example((1, -16, 10))  # 0.0000152587890625: exponent -5 is printed in scientific form
@example((3, -20, 60))  # exponent -6, above the edge at -20
@example((0, 0, 5))
def test_eval_formats_as_mpmath_nstr(case) -> None:
    m, e, digits = case
    assume(m.bit_length() <= _working_bits(digits))
    if e >= 0:
        exact = Decimal(m << e)
    else:
        exact = Decimal(m * 5**-e).scaleb(e, Context(prec=10**4))
    with mp.workprec(max(_working_bits(digits), m.bit_length()) + 10):
        assert _nstr(exact, digits) == mp.nstr(mp.mpf((m, e)), digits)


_BASE_CONSTANTS = st.one_of(
    st.tuples(st.just("zeta"), st.integers(1, 21).map(lambda k: 2 * k + 1)),
    st.tuples(st.just("lchi4"), st.integers(1, 21).map(lambda k: 2 * k)),
    st.just(("log2", 0)),
)


@settings(deadline=None, max_examples=150)
@given(_BASE_CONSTANTS, st.integers(1, 200))
@example(("lchi4", 42), 19)  # 1 - 3^-42 + ... prints as 1.0 up to 19 digits
@example(("zeta", 3), 1)
def test_stored_constants_are_correctly_rounded(constant, digits) -> None:
    # Against mpmath's own zeta, dirichlet and log at twice the digits: the
    # stored string is within half a unit of its last digit, plus 10^-3 units.
    kind, arg = constant
    text = _base_constant(kind, arg, digits)
    with mp.workdps(2 * digits + 10):
        truth = {
            "zeta": lambda: mp.zeta(arg),
            "lchi4": lambda: mp.dirichlet(arg, [0, 1, 0, -1]),
            "log2": lambda: mp.log(2),
        }[kind]()
        unit = mp.mpf(10) ** (mp.floor(mp.log10(truth)) - digits + 1)
        assert abs(mp.mpf(text) - truth) <= (mp.mpf(1) / 2 + mp.mpf(10) ** -3) * unit, text
