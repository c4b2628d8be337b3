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
    ``scriptL_{r,s}`` is the signed double-polylogarithm combination defined
    in :func:`mahlerzeta.values.script_l_double`.

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
closed form is additionally checked numerically.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

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


@dataclass(frozen=True)
class Kind:
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


@dataclass(frozen=True)
class ConstantBasisElement:
    """A single basis constant ``pi^pi_power * K(kind, arg)``."""

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


def _validate(kind: str, arg: int) -> None:
    entry = KINDS.get(kind)
    if entry is None:
        raise ValueError(f"unknown constant kind {kind!r}")
    if not entry.keeps(arg):
        raise ValueError(f"normal form keeps {kind} only at {entry.rule} (got {arg})")


class ZetaCombination:
    """A finite rational-linear combination of basis constants in normal form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ConstantBasisElement, Rational] | None = None):
        normalized: Dict[ConstantBasisElement, Fraction] = {}
        if terms:
            for elem, coeff in terms.items():
                _validate(elem.kind, elem.arg)
                c = Fraction(coeff)
                if c == 0:
                    continue
                prev = normalized.get(elem)
                total = c if prev is None else prev + c
                if total == 0:
                    normalized.pop(elem, None)
                else:
                    normalized[elem] = total
        self._terms = normalized

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
        entry = KINDS.get(kind)
        if entry is not None and entry.fold is not None and not entry.keeps(arg):
            return ZetaCombination.pi_rational(Fraction(coeff) * entry.fold(arg), pi_power + arg)
        return ZetaCombination({ConstantBasisElement(kind, arg, pi_power): Fraction(coeff)})

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
        merged = dict(self._terms)
        for elem, coeff in other._terms.items():
            total = merged.get(elem, Fraction(0)) + coeff
            if total == 0:
                merged.pop(elem, None)
            else:
                merged[elem] = total
        out = ZetaCombination.zero()
        out._terms = merged
        return out

    def __neg__(self) -> "ZetaCombination":
        out = ZetaCombination.zero()
        out._terms = {elem: -coeff for elem, coeff in self._terms.items()}
        return out

    def __sub__(self, other: "ZetaCombination") -> "ZetaCombination":
        if not isinstance(other, ZetaCombination):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "ZetaCombination":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ZetaCombination.zero()
            out = ZetaCombination.zero()
            out._terms = {elem: coeff * other for elem, coeff in self._terms.items()}
            return out
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
            acc: Dict[ConstantBasisElement, Fraction] = {}
            for selem, scoeff in scalar._terms.items():
                for pelem, pcoeff in product._terms.items():
                    target = pelem.shifted(selem.pi_power)
                    total = acc.get(target, Fraction(0)) + scoeff * pcoeff
                    if total == 0:
                        acc.pop(target, None)
                    else:
                        acc[target] = total
            out = ZetaCombination.zero()
            out._terms = acc
            return out
        return NotImplemented

    __rmul__ = __mul__

    def scale_pi(self, pi_shift: int) -> "ZetaCombination":
        """The combination multiplied by ``pi^pi_shift`` (negative shifts allowed)."""
        out = ZetaCombination.zero()
        out._terms = {
            elem.shifted(pi_shift): coeff for elem, coeff in self._terms.items()
        }
        return out

    # ------------------------------------------------------------------
    # Serialization and formatting
    # ------------------------------------------------------------------

    def to_records(self) -> List[Dict[str, Union[str, int]]]:
        return [
            {
                "kind": elem.kind,
                "arg": elem.arg,
                "pi_power": elem.pi_power,
                "coeff": str(coeff),
            }
            for elem, coeff in self.terms()
        ]

    @staticmethod
    def from_records(records: Iterable[Mapping[str, Union[str, int]]]) -> "ZetaCombination":
        """Rebuild a combination from :meth:`to_records` output.

        Records are routed through :meth:`term`, so non-normal inputs (for
        example zeta at an even argument) are folded on the way in.
        """
        total = ZetaCombination.zero()
        for rec in records:
            total = total + ZetaCombination.term(
                str(rec["kind"]),
                int(rec.get("arg", 0)),
                int(rec.get("pi_power", 0)),
                Fraction(str(rec["coeff"])),
            )
        return total

    def format_text(self) -> str:
        """Deterministic human-readable rendering, e.g. ``7*zeta(3) + ...``."""
        if not self._terms:
            return "0"
        rendered: List[str] = []
        for elem, coeff in self.terms():
            symbol = elem.format_text()
            if not symbol:
                piece = str(coeff)
            elif coeff == 1:
                piece = symbol
            elif coeff == -1:
                piece = f"-{symbol}"
            else:
                coeff_text = str(coeff) if coeff.denominator == 1 else f"({coeff})"
                piece = f"{coeff_text}*{symbol}"
            rendered.append(piece)
        text = rendered[0]
        for piece in rendered[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZetaCombination({self.format_text()})"
