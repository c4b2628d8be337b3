"""Exact rational arithmetic: Bernoulli/Euler numbers and elementary symmetric
polynomials.

Everything in this module is computed over arbitrary-precision rationals
(``fractions.Fraction``, or plain ``int`` where every input is an integer);
no floating point is ever involved, so equality checks are exact.

Elementary symmetric polynomials come as whole ladders: ``symmetric_ladder``
returns every ``s_0, ..., s_k`` of its arguments from one DP over the
coefficients of ``prod(1 + a_i t)``.  Integer arguments (the square ladders
``even_squares`` and ``odd_squares``) keep the whole DP in ``int``, with no
gcd per operation; callers build a ladder once and index it.  Family ``iii``
needs no ladder: :func:`~mahlerzeta.formulas.family_three` takes its weights
as the coefficients of one polynomial built by Horner's rule.

The log-moment kernel polynomials, which only the checks use, live in
:mod:`mahlerzeta.check.identities`.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple, Union

__all__ = [
    "Rational",
    "bernoulli",
    "euler_number",
    "symmetric_ladder",
    "elementary_symmetric",
    "even_squares",
    "odd_squares",
]

Rational = Union[int, Fraction]

# Caches are grow-only and guarded by a single lock so concurrent readers are
# safe once a prefix has been initialized.
_CACHE_LOCK = threading.Lock()
_BERNOULLI: List[Fraction] = [Fraction(1)]
_EULER_EVEN: List[int] = [1]  # E_0, E_2, E_4, ...


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
