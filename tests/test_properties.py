"""Property tests for the exact algebra, the wire format and the constant store."""

from __future__ import annotations

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.exact import PolyQ
from mahlerzeta.store import ConstantStore

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
