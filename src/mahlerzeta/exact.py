"""Exact rational arithmetic: Bernoulli/Euler numbers, elementary symmetric
polynomials, dense rational polynomials, and the family of log-moment kernel
polynomials.

Everything in this module is computed over arbitrary-precision rationals
(``fractions.Fraction``, or plain ``int`` where every input is an integer);
no floating point is ever involved, so equality checks are exact.  A
polynomial's value at ``i`` comes as its exact real and imaginary parts
(:meth:`PolyQ.at_i`).

Elementary symmetric polynomials come as whole ladders: ``symmetric_ladder``
returns every ``s_0, ..., s_k`` of its arguments from one DP over the
coefficients of ``prod(1 + a_i t)``.  Integer arguments (the square ladders
``even_squares`` and ``odd_squares``) keep the whole DP in ``int``, with no
gcd per operation; callers build a ladder once and index it.  Family ``iii``
needs no ladder: :func:`~mahlerzeta.formulas.family_three` takes its weights
as the coefficients of one polynomial built by Horner's rule.

The log-moment kernel polynomials ``P_k`` are the rational polynomials that
express the moment integrals

    integral_0^inf x * log^k(x) / ((x^2 + a^2) (x^2 + b^2)) dx
        = (pi/2)^(k+1) * (P_k(2 log(a)/pi) - P_k(2 log(b)/pi)) / (a^2 - b^2)

in closed form.  They are the combinatorial backbone of the closed-form Mahler
measure formulas in :mod:`mahlerzeta.formulas`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import Iterable, List, Sequence, Tuple, Union

__all__ = [
    "Rational",
    "bernoulli",
    "euler_number",
    "symmetric_ladder",
    "elementary_symmetric",
    "even_squares",
    "odd_squares",
    "PolyQ",
    "log_moment_poly",
    "log_moment_poly_at_i",
]

Rational = Union[int, Fraction]

# Caches are grow-only and guarded by a single lock so concurrent readers are
# safe once a prefix has been initialized.
_CACHE_LOCK = threading.Lock()
_BERNOULLI: List[Fraction] = [Fraction(1)]
_EULER_EVEN: List[int] = [1]  # E_0, E_2, E_4, ...
_LOG_MOMENT: List["PolyQ"] = []


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n for the generating function x/(e^x - 1).

    Computed by the defining recurrence sum_{s=0}^{k} C(k+1, s) B_s = 0,
    which pins B_k from B_0, ..., B_{k-1}.  With this convention B_1 = -1/2
    and B_{2j+1} = 0 for j >= 1.
    """
    if n < 0:
        raise ValueError("bernoulli index must be nonnegative")
    if n >= len(_BERNOULLI):
        with _CACHE_LOCK:
            while len(_BERNOULLI) <= n:
                m = len(_BERNOULLI)
                acc = Fraction(0)
                for j in range(m):
                    acc += comb(m + 1, j) * _BERNOULLI[j]
                _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def euler_number(n: int) -> int:
    """Euler number E_n for the generating function 2 e^x / (e^{2x} + 1).

    Odd-index values vanish; even-index values are integers satisfying
    sum_{j=0}^{m} C(2m, 2j) E_{2j} = 0 for m >= 1.
    """
    if n < 0:
        raise ValueError("euler_number index must be nonnegative")
    if n % 2 == 1:
        return 0
    half = n // 2
    if half >= len(_EULER_EVEN):
        with _CACHE_LOCK:
            while len(_EULER_EVEN) <= half:
                m = len(_EULER_EVEN)
                acc = 0
                for j in range(m):
                    acc += comb(2 * m, 2 * j) * _EULER_EVEN[j]
                _EULER_EVEN.append(-acc)
    return _EULER_EVEN[half]


def symmetric_ladder(values: Sequence[Rational]) -> Tuple[Rational, ...]:
    """Every elementary symmetric polynomial ``(s_0, ..., s_k)`` of ``values``.

    Each step multiplies the coefficients of ``prod(1 + a_j t)`` by the next
    ``(1 + a t)``: one O(k^2) pass.  Integer arguments give ``int`` entries;
    any other argument is taken as an exact ``Fraction``.
    """
    e: List[Rational] = [1]
    for v in values:
        v = v if isinstance(v, int) else Fraction(v)
        e.append(0)
        for j in range(len(e) - 1, 0, -1):
            e[j] += v * e[j - 1]
    return tuple(e)


def elementary_symmetric(values: Sequence[Rational], l: int) -> Fraction:
    """Elementary symmetric polynomial s_l(a_1, ..., a_k).

    Follows the three-case convention: s_0 = 1, s_l = 0 when l exceeds the
    number of arguments, and otherwise the sum of all products of l distinct
    arguments.  To use several ``s_l`` of the same arguments, index one
    :func:`symmetric_ladder` instead.
    """
    if l < 0:
        raise ValueError("symmetric-polynomial index must be nonnegative")
    if l > len(values):
        return Fraction(0)
    return Fraction(symmetric_ladder(values)[l])


def even_squares(count: int) -> List[int]:
    """The first ``count`` even squares [2^2, 4^2, ..., (2*count)^2]."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [(2 * j) ** 2 for j in range(1, count + 1)]


def odd_squares(count: int) -> List[int]:
    """The first ``count`` odd squares [1^2, 3^2, ..., (2*count-1)^2]."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [(2 * j - 1) ** 2 for j in range(1, count + 1)]


class PolyQ:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are indexed by degree; trailing zeros are trimmed so the
    degree always equals the index of the last nonzero coefficient (the zero
    polynomial has degree -1 by convention).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @staticmethod
    def zero() -> "PolyQ":
        return PolyQ()

    @staticmethod
    def monomial(degree: int, coeff: Rational = 1) -> "PolyQ":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return PolyQ([0] * degree + [coeff])

    @staticmethod
    def x() -> "PolyQ":
        return PolyQ.monomial(1)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, degree: int) -> Fraction:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyQ):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.coeffs))

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(
            [self.coefficient(j) + other.coefficient(j) for j in range(n)]
        )

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ(
            [self.coefficient(j) - other.coefficient(j) for j in range(n)]
        )

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs])

    def __mul__(self, other: object) -> "PolyQ":
        if isinstance(other, PolyQ):
            if not self.coeffs or not other.coeffs:
                return PolyQ()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PolyQ(out)
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "PolyQ":
        return PolyQ([j * c for j, c in enumerate(self.coeffs)][1:])

    def drop_constant(self) -> "PolyQ":
        """The polynomial with its degree-0 coefficient removed (reduction mod x)."""
        if not self.coeffs:
            return PolyQ()
        return PolyQ([Fraction(0)] + self.coeffs[1:])

    def monomial_degrees(self) -> List[int]:
        return [j for j, c in enumerate(self.coeffs) if c != 0]

    def __call__(self, x):
        """Evaluate by Horner's rule.

        Works for exact arguments (``int``, ``Fraction``) as well as floats
        and mpmath numbers; the accumulator takes the type of ``x``.
        """
        acc = 0 * x
        exact = isinstance(acc, (int, Fraction))
        for c in reversed(self.coeffs):
            acc = acc * x + (c if exact else _lift(c, x))
        return acc

    def at_i(self) -> Tuple[Fraction, Fraction]:
        """The exact value at ``x = i`` as ``(real part, imaginary part)``.

        The coefficient of ``x^j`` lands on ``i^j``, which cycles through
        ``1, i, -1, -i`` with ``j mod 4``.
        """
        parts = [sum(self.coeffs[r::4], Fraction(0)) for r in range(4)]
        return parts[0] - parts[2], parts[1] - parts[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.coeffs:
            return "PolyQ(0)"
        parts = [f"{c}*x^{j}" for j, c in enumerate(self.coeffs) if c != 0]
        return "PolyQ(" + " + ".join(parts) + ")"


def _lift(c: Fraction, like):
    """Convert an exact coefficient to the numeric type of ``like``."""
    if isinstance(like, complex):
        return complex(c)
    if isinstance(like, float):
        return float(c)
    # mpmath types divide integers exactly at working precision
    return (0 * like + c.numerator) / c.denominator


def log_moment_poly(k: int) -> PolyQ:
    """The k-th log-moment kernel polynomial, built by its recursion.

    P_0(x) = x and, for k >= 1,

        P_k(x) = x^{k+1}/(k+1)
                 + (1/(k+1)) * sum_{j odd, 3 <= j <= k+1}
                       (-1)^{(j+1)/2} C(k+1, j) P_{k+1-j}(x).

    Results are memoized; the cache only grows.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k >= len(_LOG_MOMENT):
        with _CACHE_LOCK:
            if not _LOG_MOMENT:
                _LOG_MOMENT.append(PolyQ.x())
            while len(_LOG_MOMENT) <= k:
                m = len(_LOG_MOMENT)
                acc = PolyQ.monomial(m + 1, Fraction(1, m + 1))
                for j in range(3, m + 2, 2):
                    sign = -1 if ((j + 1) // 2) % 2 else 1
                    term = _LOG_MOMENT[m + 1 - j] * Fraction(sign * comb(m + 1, j), m + 1)
                    acc = acc + term
                _LOG_MOMENT.append(acc)
    return _LOG_MOMENT[k]


def log_moment_poly_at_i(l: int) -> Fraction:
    """Exact value of P_{2l-1} at x = i, which is real:

        P_{2l-1}(i) = (-1)^l (2^{2l} - 1) B_{2l} / l.

    (The even-index family vanishes there instead: P_{2l}(i) = 0 for l >= 1.)
    """
    if l < 1:
        raise ValueError("index must be positive")
    sign = -1 if l % 2 else 1
    return sign * Fraction((2 ** (2 * l) - 1), l) * bernoulli(2 * l)
