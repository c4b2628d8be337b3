"""Exact closed forms for three families of n-variable Mahler measures.

The families are indexed by the number ``n`` of rational transforms
``T(x) = (1 - x)/(1 + x)`` appearing in the defining polynomial:

* family ``i``:   ``1 + T(x_1)...T(x_n) z``
* family ``ii``:  ``(1 + x) + T(x_1)...T(x_n) (1 + y) z``
* family ``iii``: ``1 + T(x_1)...T(x_n) x + (1 - T(x_1)...T(x_n)) y``

For each family, ``pi**pi_normalization * m(P)`` is an exact rational
combination of powers of pi with zeta values at odd integers, Dirichlet
L-values ``L(chi_-4, even)``, ``log 2``, and the real constants
``i * scriptL_{3,b}(i, i)``.  The evaluators return those combinations as
:class:`~mahlerzeta.combinations.ZetaCombination` objects; every result is
homogeneous of total weight ``pi_normalization + 1``.

The module also exposes the rational coefficient ladders ``coeff_a`` and
``coeff_b`` that convert the iterated arctangent-density integrals into
one-dimensional log moments.  Every coefficient indexes one integer
:func:`~mahlerzeta.exact.symmetric_ladder` of the even or odd squares, built
once per ``(parity, count)`` and cached.

Each quantity has one route here.  The identities that link the two ladders
(``reduction_ab``, ``reduction_ba``) and the Euler-weighted rewriting of family
``iii``'s third sum are checks, and live in :mod:`mahlerzeta.identities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Tuple

from .combinations import ZetaCombination
from .exact import Rational, bernoulli, even_squares, odd_squares, symmetric_ladder

__all__ = [
    "Family",
    "FamilySpec",
    "MahlerResult",
    "coeff_a",
    "coeff_b",
    "family_one",
    "family_two",
    "family_three",
    "mahler_measure",
]


class Family(Enum):
    """Label for the three transform families.

    Values are the lowercase CLI labels ``"i"``, ``"ii"``, ``"iii"``.
    """

    ONE = "i"
    TWO = "ii"
    THREE = "iii"

    @classmethod
    def from_label(cls, label: str) -> "Family":
        """Return the family whose label matches ``label`` (case-insensitive).

        Parameters
        ----------
        label : str
            One of ``"i"``, ``"ii"``, ``"iii"`` in any letter case.

        Raises
        ------
        ValueError
            If the label names no family.
        """
        text = label.strip().lower()
        for member in cls:
            if member.value == text:
                return member
        raise ValueError("unknown family label %r; expected i, ii or iii" % (label,))


@dataclass(frozen=True)
class FamilySpec:
    """A family together with its number of rational transforms.

    Attributes
    ----------
    family : Family
        Which of the three polynomial families.
    n_transforms : int
        Number of ``(1 - x_i)/(1 + x_i)`` factors.  Must be at least 1 for
        families ``i`` and ``iii``; family ``ii`` also admits 0 (the bare
        three-variable base case).
    """

    family: Family
    n_transforms: int

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise ValueError("family must be a Family member")
        if not isinstance(self.n_transforms, int) or isinstance(self.n_transforms, bool):
            raise ValueError("n_transforms must be an integer")
        minimum = 0 if self.family is Family.TWO else 1
        if self.n_transforms < minimum:
            raise ValueError(
                "family %s requires at least %d transform(s), got %d"
                % (self.family.value, minimum, self.n_transforms)
            )

    @property
    def parity(self) -> int:
        """``n_transforms mod 2`` (selects the even/odd closed form)."""
        return self.n_transforms % 2

    @property
    def pi_normalization(self) -> int:
        """Power of pi multiplying the Mahler measure on the left side."""
        if self.family is Family.ONE:
            return self.n_transforms
        if self.family is Family.TWO:
            return self.n_transforms + 2
        return self.n_transforms + 1

    @property
    def torus_dimension(self) -> int:
        """Number of torus variables in the defining polynomial."""
        if self.family is Family.ONE:
            return self.n_transforms + 1
        if self.family is Family.TWO:
            return self.n_transforms + 3
        return self.n_transforms + 2


@dataclass(frozen=True)
class MahlerResult:
    """Exact value of ``pi**pi_normalization * m(P)`` for a family member.

    Attributes
    ----------
    spec : FamilySpec
        The evaluated family member; it fixes ``pi_normalization``, the
        power of pi multiplying the measure on the left side.
    combination : ZetaCombination
        The exact right side.  It is validated to be homogeneous of total
        weight ``pi_normalization + 1`` (the measure itself carries weight 1).
    """

    spec: FamilySpec
    combination: ZetaCombination

    @property
    def pi_normalization(self) -> int:
        """Power of pi multiplying the measure: ``spec.pi_normalization``."""
        return self.spec.pi_normalization

    def __post_init__(self) -> None:
        weight = self.combination.homogeneous_weight()
        if weight != self.pi_normalization + 1:
            raise ValueError(
                "combination weight %r does not equal pi_normalization + 1 = %d"
                % (weight, self.pi_normalization + 1)
            )


@lru_cache(maxsize=4)
def _square_ladder(parity: int, count: int) -> Tuple[int, ...]:
    """``symmetric_ladder`` of the first ``count`` even (0) or odd (1) squares."""
    return symmetric_ladder(odd_squares(count) if parity else even_squares(count))


def _bernoulli_ladder_sum(n: int, h: int, weight: Callable[[int], Rational]) -> Fraction:
    """``sum_{l=0}^{n-h} s_{n-h-l} C(2(l+h), 2h) weight(l) B_{2l} / (l+h)``.

    ``s_j`` is the even-square ladder of ``coeff_a(n, .)``; the Bernoulli-
    weighted sums of ``family_two`` and ``family_three`` differ only in
    ``weight``.
    """
    evens = _square_ladder(0, n - 1)
    return sum(
        (
            Fraction(evens[n - h - l] * comb(2 * (l + h), 2 * h) * weight(l), l + h)
            * bernoulli(2 * l)
            for l in range(n - h + 1)
        ),
        Fraction(0),
    )


def coeff_a(n: int, h: int) -> Fraction:
    """Rational weight ``a(n, h)`` for the even-count reduction.

    ``a(n, h)`` is the elementary symmetric polynomial of degree ``n - 1 - h``
    in the even squares ``2^2, 4^2, ..., (2n - 2)^2`` divided by ``(2n - 1)!``.

    Parameters
    ----------
    n : int
        Half the (even) number of transforms; at least 1.
    h : int
        Log-moment index, ``0 <= h <= n - 1``.

    Returns
    -------
    Fraction
        The exact coefficient.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= h <= n - 1:
        raise ValueError("h must lie in [0, n-1]")
    return Fraction(_square_ladder(0, n - 1)[n - 1 - h], factorial(2 * n - 1))


def coeff_b(n: int, h: int) -> Fraction:
    """Rational weight ``b(n, h)`` for the odd-count reduction.

    ``b(n, h)`` is the elementary symmetric polynomial of degree ``n - h`` in
    the odd squares ``1^2, 3^2, ..., (2n - 1)^2`` divided by ``(2n)!``.

    Parameters
    ----------
    n : int
        ``(transforms - 1) / 2`` for an odd transform count; at least 0.
    h : int
        Log-moment index, ``0 <= h <= n``.

    Returns
    -------
    Fraction
        The exact coefficient.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= h <= n:
        raise ValueError("h must lie in [0, n]")
    return Fraction(_square_ladder(1, n)[n - h], factorial(2 * n))


def _require_family(spec: FamilySpec, family: Family) -> None:
    if spec.family is not family:
        raise ValueError(
            "spec is for family %s, expected family %s" % (spec.family.value, family.value)
        )


def family_one(spec: FamilySpec) -> MahlerResult:
    """Closed form for ``pi**n * m(1 + T(x_1)...T(x_n) z)``.

    Even counts ``n = 2k`` produce rational combinations of
    ``pi^(2k-2h) zeta(2h+1)``; odd counts ``n = 2k+1`` produce
    ``pi^(2k-2h) L(chi_-4, 2h+2)``.

    Parameters
    ----------
    spec : FamilySpec
        Must have ``family == Family.ONE`` (so ``n_transforms >= 1``).

    Returns
    -------
    MahlerResult
        ``pi**n_transforms * m`` as an exact combination.
    """
    _require_family(spec, Family.ONE)
    transforms = spec.n_transforms
    combo = ZetaCombination.zero()
    if transforms % 2 == 0:
        n = transforms // 2
        for h in range(1, n + 1):
            coeff = coeff_a(n, h - 1) * Fraction(factorial(2 * h) * (2 ** (2 * h + 1) - 1), 2)
            combo = combo + ZetaCombination.zeta(2 * h + 1, 2 * n - 2 * h, coeff)
    else:
        n = (transforms - 1) // 2
        for h in range(n + 1):
            coeff = coeff_b(n, h) * factorial(2 * h + 1) * 2 ** (2 * h + 1)
            combo = combo + ZetaCombination.lchi4(2 * h + 2, 2 * n - 2 * h, coeff)
    return MahlerResult(spec, combo)


def family_two(spec: FamilySpec) -> MahlerResult:
    """Closed form for ``pi**(n+2) * m((1 + x) + T(x_1)...T(x_n)(1 + y) z)``.

    The transform-free case ``n = 0`` is the three-variable base case with
    value ``(7/2) zeta(3)``.  Even counts ``n = 2k >= 2`` produce
    Bernoulli-weighted combinations of ``pi^(2k-2h) zeta(2h+3)``.  Odd counts
    ``n = 2k+1`` mix ``pi^(2k-2h) i*scriptL_{3,2h+1}(i,i)`` with
    ``pi^(2k-2h+2) L(chi_-4, 2h+2)``; the purely imaginary double
    polylogarithm is folded into the real basis constant
    ``i * scriptL_{3,b}(i, i)`` so all stored coefficients are rational.

    Parameters
    ----------
    spec : FamilySpec
        Must have ``family == Family.TWO`` (``n_transforms >= 0``).

    Returns
    -------
    MahlerResult
        ``pi**(n_transforms + 2) * m`` as an exact combination.
    """
    _require_family(spec, Family.TWO)
    transforms = spec.n_transforms
    if transforms == 0:
        combo = ZetaCombination.zeta(3, 0, Fraction(7, 2))
        return MahlerResult(spec, combo)
    combo = ZetaCombination.zero()
    if transforms % 2 == 0:
        n = transforms // 2
        for h in range(1, n + 1):
            inner = _bernoulli_ladder_sum(n, h, lambda l: (-4) ** l)
            coeff = (
                Fraction(factorial(2 * h + 2) * (2 ** (2 * h + 3) - 1), 8)
                * inner
                / factorial(2 * n - 1)
            )
            combo = combo + ZetaCombination.zeta(2 * h + 3, 2 * n - 2 * h, coeff)
    else:
        n = (transforms - 1) // 2
        for h in range(n + 1):
            base = coeff_b(n, h) * 2 ** (2 * h + 1)
            combo = combo + ZetaCombination.l3_ii(
                2 * h + 1, 2 * n - 2 * h, base * factorial(2 * h)
            )
            combo = combo + ZetaCombination.lchi4(
                2 * h + 2, 2 * n - 2 * h + 2, base * factorial(2 * h + 1)
            )
    return MahlerResult(spec, combo)


def _family_three_tail(n: int, pi_shift: int) -> ZetaCombination:
    """Third sum of both family-three closed forms, weighted by Bernoulli numbers.

    ``pi_shift`` is 1 for even transform counts and 2 for odd ones.  The
    Euler-weighted rewriting of the same sum lives in
    :func:`mahlerzeta.identities.family_three_rewriting`, which checks it
    against this one.
    """
    combo = ZetaCombination.zero()
    for h in range(1, n + 1):
        # weight (-1)^(l+1) 2^(2l) (2^(2l-1) - 1), a half-integer only at l = 0
        inner = _bernoulli_ladder_sum(
            n, h, lambda l: Fraction((-1) ** (l + 1) * (16**l - 2 * 4**l), 2)
        )
        coeff = (
            Fraction(factorial(2 * h) * (2 ** (2 * h + 1) - 1), 4)
            * inner
            / factorial(2 * n - 1)
        )
        combo = combo + ZetaCombination.zeta(2 * h + 1, 2 * n - 2 * h + pi_shift, coeff)
    return combo


def family_three(spec: FamilySpec) -> MahlerResult:
    """Closed form for ``pi**(n+1) * m(1 + T(...) x + (1 - T(...)) y)``.

    Every result carries the universal term ``(1/2) pi**(n+1) log 2`` plus two
    rational sums over ``zeta(odd)``; the third sum is weighted by Bernoulli
    numbers.

    Parameters
    ----------
    spec : FamilySpec
        Must have ``family == Family.THREE`` (``n_transforms >= 1``).

    Returns
    -------
    MahlerResult
        ``pi**(n_transforms + 1) * m`` as an exact combination.
    """
    _require_family(spec, Family.THREE)
    transforms = spec.n_transforms
    pi_norm = spec.pi_normalization
    combo = ZetaCombination.log2(pi_norm, Fraction(1, 2))
    if transforms % 2 == 0:
        n = transforms // 2
        for h in range(1, n + 1):
            coeff = coeff_a(n, h - 1) * Fraction(factorial(2 * h) * (2 ** (2 * h + 1) - 1), 4)
            combo = combo + ZetaCombination.zeta(2 * h + 1, 2 * n - 2 * h + 1, coeff)
        combo = combo + _family_three_tail(n, 1)
    else:
        n = (transforms - 1) // 2
        evens = _square_ladder(0, n)
        for h in range(n + 1):
            coeff = (
                evens[n - h]
                * Fraction(factorial(2 * h + 2) * (2 ** (2 * h + 3) - 1), 4)
                / factorial(2 * n + 1)
            )
            combo = combo + ZetaCombination.zeta(2 * h + 3, 2 * n - 2 * h, coeff)
        combo = combo + _family_three_tail(n, 2)
    return MahlerResult(spec, combo)


def mahler_measure(spec: FamilySpec) -> MahlerResult:
    """Evaluate the closed form for any family member.

    Parameters
    ----------
    spec : FamilySpec
        The family member to evaluate.

    Returns
    -------
    MahlerResult
        ``pi**pi_normalization * m`` as an exact combination.
    """
    if spec.family is Family.ONE:
        return family_one(spec)
    if spec.family is Family.TWO:
        return family_two(spec)
    return family_three(spec)
