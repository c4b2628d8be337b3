"""Symbolic rational-linear combinations of the closed-form constants.

Every Mahler measure produced by this package is an exact finite sum

    sum_j  c_j * pi^(p_j) * K_j,

where each ``c_j`` is rational and each ``K_j`` is one of a small set of
transcendental basis constants:

``one``
    The constant 1 (so the term is the pi-rational ``c * pi^p``).
``zeta``
    The Riemann zeta value ``zeta(s)`` at an odd integer ``s >= 3``.
``lchi4``
    The Dirichlet L-value ``L(chi_-4, s)`` at an even integer ``s >= 2``,
    where ``chi_-4`` is the nonprincipal character mod 4.
``log2``
    The constant ``log 2``.
``l3_ii``
    The real constant ``i * scriptL_{3,b}(i, i)`` for odd ``b >= 1``, where
    ``scriptL_{r,s}(a, c) = 2 sum_{e, f = +-1} e Li_{r,s}(e a, f c)`` and
    ``Li_{r,s}(x, y) = sum_{0<k<l} x^k y^l / (k^r l^s)``.

The table :data:`KINDS` is the one place that says what a kind is: the
arguments its normal form keeps, its intrinsic weight, its text symbol and,
for ``zeta`` and ``lchi4``, the exact fold of the other arguments.  The
combination type keeps itself in that *normal form*: zeta at even argument
and ``L(chi_-4, s)`` at odd argument are rational multiples of powers of pi
(via Bernoulli and Euler numbers) and are folded into ``one`` terms on
construction, so two combinations are equal as real numbers if and only if
their term dictionaries are equal.  (Equality of the surviving basis
constants themselves is the standard conjecture that odd zeta values, L-values
and friends are algebraically independent over ``Q(pi)``; within this package
the normal form is used only as a canonical *representation*, and every
closed form is additionally checked numerically.)  Every constructor and
operation sums its terms through one merge rule: equal elements add, and a
zero total is dropped.

Where a term is checked: the public constructors check each element against
its kind's entry (``__init__`` rejects what the normal form does not keep,
:meth:`ZetaCombination.term` and ``from_records`` fold it first where the kind
folds).  The closed forms of :mod:`mahlerzeta.formulas` arrive as integer terms
``(kind, arg, pi_power, numerator, denominator)`` through
:meth:`ZetaCombination._built`, which checks each one once, for normal form and
for the member's weight, as it makes the term's element and ``Fraction``.
Coefficients print and read back at any length: :func:`_text` and
:func:`_fraction` go through ``decimal`` where ``str`` and ``int`` refuse an
integer of more than 4,300 digits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple, Union,
)

from .exact import Rational, bernoulli, euler_number

__all__ = [
    "ConstantBasisElement",
    "ZetaCombination",
    "KINDS",
]


def _zeta_even(s: int) -> Fraction:
    """zeta(s) / pi^s for even s = 2k: (-1)^(k+1) B_{2k} 2^{2k} / (2 (2k)!).

    The pole at s = 1 is rejected.
    """
    if s < 2:
        raise ValueError(f"zeta argument must be >= 2 (got {s})")
    k = s // 2
    sign = 1 if k % 2 == 1 else -1
    return sign * bernoulli(2 * k) * Fraction(2 ** (2 * k), 2 * factorial(2 * k))


def _lchi4_odd(s: int) -> Fraction:
    """L(chi_-4, s) / pi^s for odd s = 2k+1: (-1)^k E_{2k} / (2^{2k+2} (2k)!)."""
    if s < 1:
        raise ValueError(f"L-function argument must be >= 1 (got {s})")
    k = (s - 1) // 2
    sign = 1 if k % 2 == 0 else -1
    return sign * Fraction(euler_number(2 * k), 2 ** (2 * k + 2) * factorial(2 * k))


class Kind(NamedTuple):
    """What the normal form knows about the basis constants ``K(kind, arg)``."""

    rule: str  # the arguments the normal form keeps, in words
    keeps: Callable[[int], bool]  # the same rule as a predicate
    weight: Callable[[int], int]  # intrinsic weight; pi carries 1 per power
    symbol: Callable[[int], str]  # text of the constant, empty for ``one``
    # K(kind, arg) / pi^arg at every argument that is not kept, if those fold
    fold: Optional[Callable[[int], Fraction]] = None


def _from(least: int) -> Callable[[int], bool]:
    """The rule "every argument >= least of the same parity as least"."""
    return lambda arg: arg >= least and arg % 2 == least % 2


# The one table of basis kinds; its order is the order of terms in every
# rendering and record list.
KINDS: Dict[str, Kind] = {
    "one": Kind("argument 0", lambda arg: arg == 0, lambda arg: 0, lambda arg: ""),
    "log2": Kind("argument 0", lambda arg: arg == 0, lambda arg: 1, lambda arg: "log(2)"),
    "zeta": Kind("odd s >= 3", _from(3), lambda s: s, "zeta({})".format, _zeta_even),
    "lchi4": Kind("even s >= 2", _from(2), lambda s: s, "L(chi_-4,{})".format, _lchi4_odd),
    "l3_ii": Kind("odd b >= 1", _from(1), lambda b: 3 + b, "i*scriptL(3,{};i,i)".format),
}

_KIND_ORDER = {kind: j for j, kind in enumerate(KINDS)}


class ConstantBasisElement(NamedTuple):
    """A single basis constant ``pi^pi_power * K(kind, arg)``, hashed as a tuple."""

    kind: str
    arg: int
    pi_power: int

    def weight(self) -> int:
        """Transcendence weight: pi power plus the intrinsic weight of K."""
        return self.pi_power + KINDS[self.kind].weight(self.arg)

    def shifted(self, pi_shift: int) -> "ConstantBasisElement":
        return ConstantBasisElement(self.kind, self.arg, self.pi_power + pi_shift)

    def sort_key(self) -> Tuple[int, int, int]:
        return (_KIND_ORDER[self.kind], self.arg, self.pi_power)

    def format_text(self) -> str:
        parts: List[str] = []
        if self.pi_power == 1:
            parts.append("pi")
        elif self.pi_power != 0:
            parts.append(f"pi^{self.pi_power}")
        symbol = KINDS[self.kind].symbol(self.arg)
        if symbol:
            parts.append(symbol)
        return "*".join(parts)


def _checked(elem: ConstantBasisElement) -> ConstantBasisElement:
    """``elem`` itself, if the normal form keeps its kind at its argument."""
    entry = KINDS.get(elem.kind)
    if entry is None:
        raise ValueError(f"unknown constant kind {elem.kind!r}")
    if not entry.keeps(elem.arg):
        raise ValueError(f"normal form keeps {elem.kind} only at {entry.rule} (got {elem.arg})")
    return elem


_Pair = Tuple[ConstantBasisElement, Fraction]


def _normal(kind: str, arg: int, pi_power: int, coeff: Fraction) -> _Pair:
    """The normal-form ``(element, coefficient)`` pair of :meth:`ZetaCombination.term`."""
    entry = KINDS.get(kind)
    if entry is not None and entry.fold is not None and not entry.keeps(arg):
        return ConstantBasisElement("one", 0, pi_power + arg), coeff * entry.fold(arg)
    return _checked(ConstantBasisElement(kind, arg, pi_power)), coeff


def _merge(pairs: Iterable[_Pair]) -> Dict[ConstantBasisElement, Fraction]:
    """The one merge rule: add the coefficients of equal elements, keep no zero."""
    merged: Dict[ConstantBasisElement, Fraction] = {}
    for elem, coeff in pairs:
        if elem in merged:
            coeff += merged.pop(elem)
        if coeff:
            merged[elem] = coeff
    return merged


# An integer term ``(kind, arg, pi_power, numerator, denominator)``.
_Term = Tuple[str, int, int, int, int]


def _checked_terms(terms: Iterable[_Term], weight: int) -> Iterator[_Pair]:
    """Each integer term as its ``(element, Fraction(numerator, denominator))`` pair.

    This is the one check of a built term: its element must be in normal form
    (the rule and error text of :func:`_checked`) and of total ``weight``.
    """
    for kind, arg, pi_power, num, den in terms:
        elem = ConstantBasisElement(kind, arg, pi_power)
        entry = KINDS.get(kind)
        if entry is None or not entry.keeps(arg):
            _checked(elem)  # raises, with the constructor's text
        elem_weight = pi_power + entry.weight(arg)
        if elem_weight != weight:
            raise ValueError(f"term {elem.format_text()} has weight {elem_weight}, not {weight}")
        yield elem, Fraction(num, den)


def _digits(value: int) -> str:
    """``str(value)`` at any length.

    ``str`` refuses an integer of more than 4,300 digits (the interpreter's
    guard on ``int``/``str`` conversions); ``decimal`` converts the integer
    exactly, with no such limit, and so does not lift it for anyone else.
    """
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def _text(coeff: Fraction) -> str:
    """``str(coeff)`` at any length."""
    if coeff.denominator == 1:
        return _digits(coeff.numerator)
    return f"{_digits(coeff.numerator)}/{_digits(coeff.denominator)}"


def _fraction(text: str) -> Fraction:
    """``Fraction(text)`` at any length: reads back what :func:`_text` writes.

    ``Fraction`` converts the numerator and denominator with ``int``, which
    refuses more than 4,300 digits; an integer or ratio of integers past
    that is read exactly through ``decimal``, which leaves the limit in force.
    """
    try:
        return Fraction(text)
    except ValueError:
        numerator, slash, denominator = text.strip().partition("/")
        digits = numerator[1:] if numerator[:1] in "+-" else numerator
        if not (digits.isdecimal() and (denominator.isdecimal() or not slash)):
            raise
        from decimal import Decimal

        return Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))


class ZetaCombination:
    """A finite rational-linear combination of basis constants in normal form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ConstantBasisElement, Rational] | Iterable | None = None):
        """Merge a mapping, or ``(element, coefficient)`` pairs whose equal elements add."""
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        self._terms = _merge(
            (_checked(elem), coeff if type(coeff) is Fraction else Fraction(coeff))
            for elem, coeff in pairs
        )

    @classmethod
    def _of(cls, terms: Dict[ConstantBasisElement, Fraction]) -> "ZetaCombination":
        """Wrap a term dict that is already in normal form."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def _built(cls, terms: Iterable[_Term], weight: int) -> "ZetaCombination":
        """The combination of integer ``terms``, each checked to be of ``weight``.

        Equal elements add, as in every constructor; one pass over ``terms``.
        """
        return cls._of(_merge(_checked_terms(terms, weight)))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zero() -> "ZetaCombination":
        return ZetaCombination()

    @staticmethod
    def term(
        kind: str, arg: int = 0, pi_power: int = 0, coeff: Rational = 1
    ) -> "ZetaCombination":
        """``coeff * pi^pi_power * K(kind, arg)``, through the kind table.

        An argument the kind does not keep is folded into a pi power where
        the kind has a fold, and rejected otherwise.
        """
        return ZetaCombination._of(_merge([_normal(kind, arg, pi_power, Fraction(coeff))]))

    @staticmethod
    def pi_rational(coeff: Rational, pi_power: int = 0) -> "ZetaCombination":
        """The pi-rational number ``coeff * pi^pi_power``."""
        return ZetaCombination.term("one", 0, pi_power, coeff)

    @staticmethod
    def zeta(s: int, pi_power: int = 0, coeff: Rational = 1) -> "ZetaCombination":
        """``coeff * pi^pi_power * zeta(s)``; even ``s`` folds into a pi power."""
        return ZetaCombination.term("zeta", s, pi_power, coeff)

    @staticmethod
    def lchi4(s: int, pi_power: int = 0, coeff: Rational = 1) -> "ZetaCombination":
        """``coeff * pi^pi_power * L(chi_-4, s)``; odd ``s`` folds into a pi power."""
        return ZetaCombination.term("lchi4", s, pi_power, coeff)

    @staticmethod
    def log2(pi_power: int = 0, coeff: Rational = 1) -> "ZetaCombination":
        return ZetaCombination.term("log2", 0, pi_power, coeff)

    @staticmethod
    def l3_ii(b: int, pi_power: int = 0, coeff: Rational = 1) -> "ZetaCombination":
        """``coeff * pi^pi_power * (i * scriptL_{3,b}(i, i))`` for odd ``b``."""
        return ZetaCombination.term("l3_ii", b, pi_power, coeff)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def terms(self) -> List[Tuple[ConstantBasisElement, Fraction]]:
        """Terms sorted deterministically by (kind, argument, pi power)."""
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def coefficient(self, elem: ConstantBasisElement) -> Fraction:
        return self._terms.get(elem, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_pi_rational(self) -> bool:
        return all(elem.kind == "one" for elem in self._terms)

    def homogeneous_weight(self) -> int | None:
        """The common weight of all terms, or ``None`` if mixed or zero."""
        weights = {elem.weight() for elem in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZetaCombination):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "ZetaCombination") -> "ZetaCombination":
        if not isinstance(other, ZetaCombination):
            return NotImplemented
        return ZetaCombination._of(_merge(chain(self._terms.items(), other._terms.items())))

    def __neg__(self) -> "ZetaCombination":
        return ZetaCombination._of({elem: -coeff for elem, coeff in self._terms.items()})

    def __sub__(self, other: "ZetaCombination") -> "ZetaCombination":
        if not isinstance(other, ZetaCombination):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "ZetaCombination":
        if isinstance(other, (int, Fraction)):
            return ZetaCombination._of(_merge((e, c * other) for e, c in self._terms.items()))
        if isinstance(other, ZetaCombination):
            if self.is_pi_rational():
                scalar, product = self, other
            elif other.is_pi_rational():
                scalar, product = other, self
            else:
                raise ValueError(
                    "cannot multiply two combinations that both contain "
                    "transcendental basis constants"
                )
            return ZetaCombination._of(_merge(
                (pelem.shifted(selem.pi_power), scoeff * pcoeff)
                for selem, scoeff in scalar._terms.items()
                for pelem, pcoeff in product._terms.items()
            ))
        return NotImplemented

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Serialization and formatting
    # ------------------------------------------------------------------

    def to_records(self) -> List[Dict[str, Union[str, int]]]:
        return [
            {
                "kind": elem.kind,
                "arg": elem.arg,
                "pi_power": elem.pi_power,
                "coeff": _text(coeff),
            }
            for elem, coeff in self.terms()
        ]

    @staticmethod
    def from_records(records: Iterable[Mapping[str, Union[str, int]]]) -> "ZetaCombination":
        """Rebuild a combination from :meth:`to_records` output.

        Each record is normalized like the arguments of :meth:`term`, so
        non-normal inputs (for example zeta at an even argument) are folded
        on the way in; all records merge in one pass.
        """
        return ZetaCombination._of(_merge(
            _normal(
                str(rec["kind"]),
                int(rec.get("arg", 0)),
                int(rec.get("pi_power", 0)),
                _fraction(str(rec["coeff"])),
            )
            for rec in records
        ))

    def format_text(self) -> str:
        """Deterministic human-readable rendering, e.g. ``7*zeta(3) + ...``."""
        if not self._terms:
            return "0"
        rendered: List[str] = []
        for elem, coeff in self.terms():
            symbol = elem.format_text()
            if not symbol:
                piece = _text(coeff)
            elif coeff == 1:
                piece = symbol
            elif coeff == -1:
                piece = f"-{symbol}"
            else:
                coeff_text = _text(coeff)
                if coeff.denominator != 1:
                    coeff_text = f"({coeff_text})"
                piece = f"{coeff_text}*{symbol}"
            rendered.append(piece)
        return " + ".join(rendered).replace(" + -", " - ")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZetaCombination({self.format_text()})"
