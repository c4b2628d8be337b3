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

Family ``i``'s terms index one integer :func:`~mahlerzeta.exact.symmetric_ladder`
of the even or odd squares; with ``F(k) = pi^k m_i(k)``, the other families
are built from those terms alone:

* A (family ``ii``, ``n >= 1``): ``c pi^p L_n(s)`` in ``F(n)`` gives
  ``(2s(s+1)/n) c pi^p L_n(s+2)``; ``L_n`` is ``L(chi_-4, .)`` at odd ``n`` and
  ``(1 - 2^-s) zeta(s)`` at even ``n``.  Closing both measures' Fourier
  integrals over the poles ``s = -i(2k+1)`` (``S`` sums ``n`` i.i.d.
  ``log|tan(t/2)|``) puts the two coefficients on ``[u^(-1-j)] csch^n u`` and
  ``[u^(-2-j)] csch^n u coth u``, and ``d/du csch^n u = -n csch^n u coth u``
  makes the second ``(j+1)/n`` times the first.
* B (family ``iii``, ``p = n mod 2``): ``pi^(n+1) m_iii(n) = (1/2) pi^(n+1)
  log 2 + (1/2) pi^(1-p) F(n+p) + sum_{k even <= n} pi^(n+1-k) F(k)/(2k)``.
  At even ``n``, ``m_iii = m_i + (1/2) E[log(1 + e^-|S|)] = (1/2) (log 2 +
  m_i + E[log cosh(S/2)])`` (``E|S| = 2 m_i``), and by Parseval ``E[log
  cosh(S/2)] = (1/2) int_0^inf (sech w - sech^(n+1) w)/(w sinh w) dw``
  telescopes through ``d/dw sech^k w = -k sech^k w tanh w`` into ``sum_{k
  even <= n} m_i(k)/k``.  At odd ``n`` the paper's third sum is ``pi`` times
  its value at ``n - 1``, since it sees ``n`` only via ``n // 2`` and a power of pi.

Each evaluator builds its closed form in one pass over integer terms
``(kind, arg, pi_power, numerator, denominator)``, with every factor of a
coefficient folded into its numerator and denominator.
:meth:`~mahlerzeta.combinations.ZetaCombination._built` checks each term once,
as it makes the term's element and its one ``Fraction``: the normal form of
:data:`~mahlerzeta.combinations.KINDS`, and the weight ``pi_normalization + 1``.
So the evaluators skip the second walk over the terms that
:class:`MahlerResult`'s constructor makes for any other caller.

The paper's Bernoulli forms, the rows of the coefficient ladders
(``coeff_a_row``, ``coeff_b_row``) and the links between them
(``reduction_ab``, ``reduction_ba``) live in the check layer,
:mod:`mahlerzeta.check.identities`.
"""

from __future__ import annotations

from enum import Enum
from math import factorial
from typing import Iterable, List, NamedTuple

from .combinations import ZetaCombination, _Term
from .exact import even_squares, odd_squares, symmetric_ladder

__all__ = [
    "Family",
    "FamilySpec",
    "MahlerResult",
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


# FamilySpec and MahlerResult are named tuples, validated in ``__new__`` (which
# ``_make`` and ``_replace`` go through), not dataclasses: importing
# ``dataclasses`` pulls ``inspect`` into every ``eval`` process.  Like
# ``ConstantBasisElement`` they equal and hash as the tuple of their fields.
class _FamilySpecFields(NamedTuple):
    family: Family
    n_transforms: int


class FamilySpec(_FamilySpecFields):
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

    __slots__ = ()

    def __new__(cls, family: Family, n_transforms: int) -> "FamilySpec":
        if not isinstance(family, Family):
            raise ValueError("family must be a Family member")
        if not isinstance(n_transforms, int) or isinstance(n_transforms, bool):
            raise ValueError("n_transforms must be an integer")
        minimum = 0 if family is Family.TWO else 1
        if n_transforms < minimum:
            raise ValueError(
                "family %s requires at least %d transform(s), got %d"
                % (family.value, minimum, n_transforms)
            )
        return super().__new__(cls, family, n_transforms)

    @classmethod
    def _make(cls, iterable: Iterable) -> "FamilySpec":
        return cls(*iterable)

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


class _MahlerResultFields(NamedTuple):
    spec: FamilySpec
    combination: ZetaCombination


class MahlerResult(_MahlerResultFields):
    """Exact value of ``pi**pi_normalization * m(P)`` for a family member.

    Attributes
    ----------
    spec : FamilySpec
        The evaluated family member; it fixes ``pi_normalization``, the
        power of pi multiplying the measure on the left side.
    combination : ZetaCombination
        The exact right side, homogeneous of total weight ``pi_normalization
        + 1`` (the measure itself carries weight 1).  The constructor checks
        that weight term by term; the evaluators check each term as they build
        it and do not walk the terms again.
    """

    __slots__ = ()

    def __new__(cls, spec: FamilySpec, combination: ZetaCombination) -> "MahlerResult":
        weight = combination.homogeneous_weight()
        if weight != spec.pi_normalization + 1:
            raise ValueError(
                "combination weight %r does not equal pi_normalization + 1 = %d"
                % (weight, spec.pi_normalization + 1)
            )
        return super().__new__(cls, spec, combination)

    @classmethod
    def _make(cls, iterable: Iterable) -> "MahlerResult":
        return cls(*iterable)

    @property
    def pi_normalization(self) -> int:
        """Power of pi multiplying the measure: ``spec.pi_normalization``."""
        return self.spec.pi_normalization


def _result(spec: FamilySpec, terms: Iterable[_Term]) -> MahlerResult:
    """``spec``'s result from its integer terms, in one checked pass.

    :meth:`ZetaCombination._built` checks every term against ``pi_normalization
    + 1`` as it makes it, so the result skips :class:`MahlerResult`'s second
    walk over the terms; an empty combination still goes through it, and fails.
    """
    combination = ZetaCombination._built(terms, spec.pi_normalization + 1)
    if combination.is_zero():
        return MahlerResult(spec, combination)
    return _MahlerResultFields.__new__(MahlerResult, spec, combination)


def _zeta_sum(top: int, scale: int, weights: Iterable[int]) -> List[_Term]:
    """``sum_{j>=1} zeta(2j+1) pi^(top-2j) (2j)! (2^(2j+1) - 1) w_j / scale``, integer ``w_j``."""
    terms: List[_Term] = []
    factor, power = 1, 2  # (2j)! and 2^(2j+1) at j = 0
    for j, w in enumerate(weights, 1):
        factor *= (2 * j - 1) * 2 * j
        power <<= 2
        terms.append(("zeta", 2 * j + 1, top - 2 * j, factor * (power - 1) * w, scale))
    return terms


def _family_one_terms(transforms: int) -> List[_Term]:
    """Family ``i``'s terms, which families ``ii`` and ``iii`` are built from."""
    n = transforms // 2
    if transforms % 2 == 0:
        evens = symmetric_ladder(even_squares(n - 1))
        return _zeta_sum(2 * n, 2 * factorial(2 * n - 1), reversed(evens))
    odds, scale = symmetric_ladder(odd_squares(n)), factorial(2 * n)
    terms: List[_Term] = []
    factor = 2  # (2h+1)! 2^(2h+1) at h = 0
    for h in range(n + 1):
        terms.append(("lchi4", 2 * h + 2, 2 * n - 2 * h, odds[n - h] * factor, scale))
        factor *= 4 * (2 * h + 2) * (2 * h + 3)
    return terms


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
    return _result(spec, _family_one_terms(spec.n_transforms))


def family_two(spec: FamilySpec) -> MahlerResult:
    """Closed form for ``pi**(n+2) * m((1 + x) + T(x_1)...T(x_n)(1 + y) z)``.

    The transform-free case ``n = 0`` is the three-variable base case with
    value ``(7/2) zeta(3)``.  Otherwise identity A (module docstring, from
    ``d/du csch^n u = -n csch^n u coth u``) maps family ``i``'s term ``c pi^p
    L_n(s)`` to ``(2s(s+1)/n) c pi^p L_n(s+2)``; at even ``n``, ``c pi^p zeta(s)``
    to ``c (2s(s+1)/n) (2^(s+2) - 1)/(4 (2^s - 1)) pi^p zeta(s+2)``.  At odd
    ``n`` the paper's ``i*scriptL_{3,2h+1}(i,i)``, folded into the real basis
    constant ``l3_ii(2h+1)`` so all coefficients are rational, stays: ``pi^2``
    times family ``i`` plus, on each ``l3_ii(2h+1)``, family ``i``'s
    ``L(chi_-4, 2h+2)`` coefficient over ``2h+1``.

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
    n = spec.n_transforms
    if n == 0:
        return _result(spec, [("zeta", 3, 0, 7, 2)])
    family_i = _family_one_terms(n)
    if n % 2 == 0:
        terms: Iterable[_Term] = (
            ("zeta", s + 2, p, num * s * (s + 1) * (2 ** (s + 2) - 1), den * 2 * n * (2**s - 1))
            for _, s, p, num, den in family_i
        )
    else:
        terms = (
            term
            for _, arg, p, num, den in family_i
            for term in (
                ("lchi4", arg, p + 2, num, den),
                ("l3_ii", arg - 1, p, num, den * (arg - 1)),
            )
        )
    return _result(spec, terms)


def family_three(spec: FamilySpec) -> MahlerResult:
    """Closed form for ``pi**(n+1) * m(1 + T(...) x + (1 - T(...)) y)``.

    Every result carries ``(1/2) pi**(n+1) log 2``; by identity B (module docstring)
    the rest is ``(1/2) pi F(n)`` at even ``n`` or ``(1/2) F(n+1)`` at odd ``n``, plus
    ``T(n) = sum_{k even <= n} pi^(n+1-k) F(k)/(2k)``.  At odd ``n``, ``T(n) = pi
    T(n-1)``: the paper's Bernoulli form of ``T`` sees ``n`` only via ``n // 2`` and pi.
    Both are one sum over ``F(2m)``, ``m <= N = ceil(n/2)``: ``F(2m)`` carries ``1/(4m)``
    as in ``T`` and ``F(2N)`` ``n + 1`` times that, ``(n+1)/(2n)`` at even ``n`` and
    ``1/2`` at odd ``n``.  Over ``4 (2N)!``, ``F(2m)/(4m)`` puts ``(2h)! (2^(2h+1) - 1)
    s_{m-h}(2^2, ..., (2m-2)^2) share_m`` on ``zeta(2h+1)``, with ``share_m = (2N)!/(2m)!``
    for ``m < N`` and ``share_N = n + 1``.  Since ``s_{m-h}`` of those squares is the
    coefficient of ``x^(h-1)`` in ``prod_{k<m} (x + (2k)^2)``, the integer weights of
    ``zeta(2h+1)`` are the coefficients of ``P(x) = sum_m share_m prod_{k<m} (x +
    (2k)^2)``, built by Horner's rule from ``P = share_N`` down: ``P <- (x + (2m)^2) P +
    share_m``.  Every product is a big integer times a small one.

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
    half = (transforms + 1) // 2
    weights, share = [transforms + 1], 1
    for m in range(half - 1, 0, -1):
        share *= (2 * m + 2) * (2 * m + 1)  # (2N)!/(2m)!
        square = (2 * m) ** 2
        weights = [square * w + lower for w, lower in zip(weights + [0], [0] + weights)]
        weights[0] += share
    terms = [("log2", 0, spec.pi_normalization, 1, 2)]
    terms += _zeta_sum(transforms + 1, 4 * factorial(2 * half), weights)
    return _result(spec, terms)


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
