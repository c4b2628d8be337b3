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
one-dimensional log moments.  Family ``i``'s terms index one cached integer
:func:`~mahlerzeta.exact.symmetric_ladder` of the even or odd squares, and
the other families are stated through them: family ``iii``'s first two sums
are ``(1/2) pi`` times family ``i`` for even ``n`` and half of family ``i``
at ``n + 1`` for odd ``n``; family ``ii`` at odd ``n`` is ``pi^2`` times
family ``i`` plus ``l3_ii(2h+1)`` terms whose coefficients are family
``i``'s ``L(chi_-4, 2h+2)`` coefficients over ``2h+1``.  One builder makes
every zeta sum, of terms ``zeta(2j+1) pi^(top-2j) (2j)! (2^(2j+1) - 1) w_j /
scale``; the Bernoulli-weighted ``w_j`` come from one integer correlation
over a common denominator for every ``h`` at once.

Each quantity has one route here.  The identities that link the two ladders
(``reduction_ab``, ``reduction_ba``) and the Euler-weighted rewriting of family
``iii``'s third sum are checks, and live in :mod:`mahlerzeta.identities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import Callable, Iterable, List, Tuple

from .combinations import ConstantBasisElement, ZetaCombination
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
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise ValueError("unknown family label %r; expected i, ii or iii" % (label,)) from None


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
        """Number of torus variables in the defining polynomial: ``pi_normalization + 1``."""
        return self.pi_normalization + 1


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


def _two_weight(l: int) -> int:
    """Family ``ii``'s Bernoulli weight ``(-4)^l``."""
    return (-4) ** l


def _three_weight(l: int) -> Fraction:
    """Family ``iii``'s weight ``(-1)^(l+1) 2^(2l) (2^(2l-1) - 1)``, half-integral only at 0."""
    return Fraction((-1) ** (l + 1) * (16**l - 2 * 4**l), 2)


def _bernoulli_correlation(n: int, weight: Callable[[int], Rational]) -> List[Fraction]:
    """``inner(h) = sum_{l=0}^{n-h} s_{n-h-l} C(2(l+h), 2h) weight(l) B_{2l} / (l+h)``.

    Entry ``h - 1`` is ``inner(h)``, for ``h = 1..n``; ``s_j`` is the
    even-square ladder of ``coeff_a(n, .)``.  With ``m = l + h``,
    ``C(2m, 2h) / m = 2 (2m-1)! / ((2h)! (2l)!)``; with ``c_l / D = weight(l)
    B_{2l} / (2l)!`` over one common denominator ``D``, ``inner(h) = 2 / ((2h)!
    D) * sum_{m=h}^{n} s_{n-m} (2m-1)! c_{m-h}``: one integer correlation
    serves every ``h``.
    """
    if n == 0:
        return []
    evens = _square_ladder(0, n - 1)
    scaled = [weight(l) * bernoulli(2 * l) / factorial(2 * l) for l in range(n)]
    common = lcm(*(c.denominator for c in scaled))
    numerators = [c.numerator * (common // c.denominator) for c in scaled]
    ladder = [evens[n - m] * factorial(2 * m - 1) for m in range(1, n + 1)]
    return [
        Fraction(2 * sum(map(mul, ladder[h - 1 :], numerators)), factorial(2 * h) * common)
        for h in range(1, n + 1)
    ]


# A term ``(kind, arg, pi_power, numerator, denominator)``: every factor of
# its coefficient lands in the one ``Fraction`` that ``_combination`` builds.
_Term = Tuple[str, int, int, int, int]


def _combination(terms: Iterable[_Term]) -> ZetaCombination:
    """The combination of ``terms``; terms with one key add."""
    return ZetaCombination(
        (ConstantBasisElement(k, a, p), Fraction(num, den)) for k, a, p, num, den in terms
    )


def _zeta_sum(top: int, scale: int, weights: Iterable[Tuple[int, Rational]]) -> List[_Term]:
    """``sum_j zeta(2j+1) pi^(top-2j) (2j)! (2^(2j+1) - 1) w_j / scale`` over ``(j, w_j)``."""
    return [
        ("zeta", 2 * j + 1, top - 2 * j,
         factorial(2 * j) * (2 ** (2 * j + 1) - 1) * w.numerator, scale * w.denominator)
        for j, w in weights
    ]


def _family_one_terms(transforms: int) -> List[_Term]:
    """Family ``i``'s terms, which families ``ii`` and ``iii`` are built from."""
    n = transforms // 2
    if transforms % 2 == 0:
        evens, scale = _square_ladder(0, n - 1), 2 * factorial(2 * n - 1)
        return _zeta_sum(2 * n, scale, ((h, evens[n - h]) for h in range(1, n + 1)))
    odds, scale = _square_ladder(1, n), factorial(2 * n)
    return [
        ("lchi4", 2 * h + 2, 2 * n - 2 * h,
         odds[n - h] * factorial(2 * h + 1) * 2 ** (2 * h + 1), scale)
        for h in range(n + 1)
    ]


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
    return MahlerResult(spec, _combination(_family_one_terms(spec.n_transforms)))


def family_two(spec: FamilySpec) -> MahlerResult:
    """Closed form for ``pi**(n+2) * m((1 + x) + T(x_1)...T(x_n)(1 + y) z)``.

    The transform-free case ``n = 0`` is the three-variable base case with
    value ``(7/2) zeta(3)``.  Even counts ``n = 2k >= 2`` produce
    Bernoulli-weighted combinations of ``pi^(2k-2h) zeta(2h+3)``.  Odd counts
    ``n = 2k+1`` mix ``pi^(2k-2h) i*scriptL_{3,2h+1}(i,i)`` with
    ``pi^(2k-2h+2) L(chi_-4, 2h+2)``; the purely imaginary double
    polylogarithm is folded into the real basis constant
    ``i * scriptL_{3,b}(i, i)`` so all stored coefficients are rational.
    The odd form is ``pi^2`` times family ``i`` at ``n`` plus, on each
    ``l3_ii(2h+1)``, family ``i``'s ``L(chi_-4, 2h+2)`` coefficient over ``2h+1``.

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
        return MahlerResult(spec, ZetaCombination.zeta(3, 0, Fraction(7, 2)))
    if transforms % 2 == 0:
        n = transforms // 2
        inners = _bernoulli_correlation(n, _two_weight)  # inner(h) weighs zeta(2h+3): j = h + 1
        terms = _zeta_sum(2 * n + 2, 8 * factorial(2 * n - 1), enumerate(inners, 2))
    else:
        family_i = _family_one_terms(transforms)
        terms = [("lchi4", arg, p + 2, num, den) for _, arg, p, num, den in family_i]
        terms += (("l3_ii", arg - 1, p, num, den * (arg - 1)) for _, arg, p, num, den in family_i)
    return MahlerResult(spec, _combination(terms))


def _family_three_tail(n: int, pi_shift: int) -> List[_Term]:
    """Third sum of both family-three closed forms, weighted by Bernoulli numbers.

    ``pi_shift`` is 1 for even transform counts and 2 for odd ones.  The
    Euler-weighted rewriting of the same sum lives in
    :func:`mahlerzeta.identities.family_three_rewriting`, which checks it
    against this one.
    """
    inners = _bernoulli_correlation(n, _three_weight)  # empty at one transform (n = 0)
    scale = 4 * factorial(2 * n - 1) if inners else 1
    return _zeta_sum(2 * n + pi_shift, scale, enumerate(inners, 1))


def family_three(spec: FamilySpec) -> MahlerResult:
    """Closed form for ``pi**(n+1) * m(1 + T(...) x + (1 - T(...)) y)``.

    Every result carries the universal term ``(1/2) pi**(n+1) log 2`` plus two
    rational sums over ``zeta(odd)``; the third sum is weighted by Bernoulli
    numbers.  The first two sums are ``(1/2) pi`` times family ``i`` at ``n``
    for even ``n``, and half of family ``i`` at ``n + 1`` for odd ``n``.

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
    transforms, parity = spec.n_transforms, spec.parity
    terms = [("log2", 0, spec.pi_normalization, 1, 2)]
    terms += (
        (kind, arg, pi_power + 1 - parity, num, 2 * den)
        for kind, arg, pi_power, num, den in _family_one_terms(transforms + parity)
    )
    terms += _family_three_tail(transforms // 2, 1 + parity)
    return MahlerResult(spec, _combination(terms))


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
