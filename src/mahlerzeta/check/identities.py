"""Exact combinatorial identities used by the closed-form derivations.

Every function here evaluates both sides of an identity over exact rationals
and reports whether they agree.  These identities move coefficients between
the two elementary-symmetric ladders built on odd squares ``(1^2, 3^2, ...)``
and even squares ``(2^2, 4^2, ...)``, with Bernoulli and Euler numbers acting
as the transfer kernels; they are what make the dimension-reduction recursion
in :mod:`mahlerzeta.formulas` telescope into finite closed forms.  Each
identity has its own function, named after it, with its formula in the
docstring and its range check in the body; the ``identities`` suite of the
``verify`` registry (:mod:`mahlerzeta.check.registry`) runs them all.

The module also holds the routes that only cross-check production: the
rational coefficient ladders, whose rows :func:`coeff_a_row` and
:func:`coeff_b_row` (one ladder each) turn the iterated arctangent-density
integrals into one-dimensional log moments (the reduced-integral oracle
converts each row to floats once per process, one table for the three
families); the ladder identities ``reduction_ab``/``reduction_ba`` between
them, which cleared of factorials are the paper's symmetric-sum statements;
and the paper's Bernoulli- and Euler-weighted forms of family ``ii`` at even
``n`` (:func:`family_two_bernoulli_form`) and of family ``iii``'s third sum
(:func:`family_three_rewritings`).  :mod:`mahlerzeta.formulas` builds both
families from family ``i``'s terms instead, so these are the identities
among Bernoulli numbers and symmetric functions that the closed forms rest
on.

The module also builds the log-moment kernel polynomials ``P_k``, which
express the moment integrals

    integral_0^inf x * log^k(x) / ((x^2 + a^2) (x^2 + b^2)) dx
        = (pi/2)^(k+1) * (P_k(2 log(a)/pi) - P_k(2 log(b)/pi)) / (a^2 - b^2)

in closed form.  A polynomial is the tuple of its coefficients, that of
``x^j`` at index ``j``, and ``P_k`` comes cleared of its denominators as
``R_k = (k+1)! P_k`` (:func:`log_moment_poly`), whose coefficients are
integers.  The polynomial identities (the reductions, the monomial
decomposition, the Bernoulli form) multiply through by a factorial and
compare integer coefficient lists, each side summed in one pass; the
value at ``i`` comes as its exact real and imaginary parts
(:func:`value_at_i`).

Each check builds the ladders it needs once per ``n``, with
:func:`~mahlerzeta.exact.symmetric_ladder`, and indexes them: ``evens[j]`` is
``s_j`` of the even squares and ``odds[j]`` that of the odd squares.  A
transfer check takes one ``n`` and checks every ``l`` from that pair of
ladders.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Iterable, List, Sequence, Tuple

from ..combinations import ZetaCombination
from ..exact import Rational, bernoulli, euler_number, even_squares, odd_squares, symmetric_ladder
from ..formulas import Family, FamilySpec, MahlerResult, family_one

__all__ = [
    "log_moment_poly",
    "log_moment_poly_at_i",
    "value_at_i",
    "coeff_a_row",
    "coeff_b_row",
    "reduction_ab",
    "reduction_ba",
    "family_two_bernoulli_form",
    "family_three_rewritings",
    "check_symmetric_transfer_first",
    "check_symmetric_transfer_second",
    "check_bernoulli_transfer_first",
    "check_bernoulli_transfer_second",
    "check_bernoulli_transfer_third",
    "check_bernoulli_euler_transfer",
    "check_euler_factorial_sums",
    "check_bernoulli_factorial_sum",
    "check_bernoulli_recurrence",
    "check_bernoulli_halving",
    "check_log_moment_poly_properties",
    "monomial_from_log_moment_polys",
    "check_monomial_decomposition",
    "log_moment_poly_bernoulli_form",
]


# The log-moment cache is grow-only and guarded by a lock, so concurrent
# readers are safe once a prefix has been initialized.
_LOG_MOMENT_LOCK = threading.Lock()
_LOG_MOMENT: List[Tuple[int, ...]] = []


def log_moment_poly(k: int) -> Tuple[int, ...]:
    """The integer coefficients of ``R_k = (k+1)! P_k``, ``P_k`` the k-th log-moment polynomial.

    ``P_k`` is defined by P_0(x) = x and, for k >= 1,

        P_k(x) = x^{k+1}/(k+1)
                 + (1/(k+1)) * sum_{j odd, 3 <= j <= k+1}
                       (-1)^{(j+1)/2} C(k+1, j) P_{k+1-j}(x),

    which stays integral for ``R_k``: R_0(x) = x and

        R_k(x) = k! x^{k+1} + sum_{j odd, 3 <= j <= k+1}
                     (-1)^{(j+1)/2} C(k+1, j) (k!/(k+2-j)!) R_{k+1-j}(x).

    The coefficient of ``x^j`` is entry ``j`` of the ``k + 2`` entries.
    Results are memoized; the cache only grows.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k >= len(_LOG_MOMENT):
        with _LOG_MOMENT_LOCK:
            if not _LOG_MOMENT:
                _LOG_MOMENT.append((0, 1))
            while len(_LOG_MOMENT) <= k:
                m = len(_LOG_MOMENT)
                acc = [0] * (m + 1) + [factorial(m)]
                for j in range(3, m + 2, 2):
                    sign = -1 if ((j + 1) // 2) % 2 else 1
                    weight = sign * comb(m + 1, j) * (factorial(m) // factorial(m + 2 - j))
                    for d, c in enumerate(_LOG_MOMENT[m + 1 - j]):
                        acc[d] += weight * c
                _LOG_MOMENT.append(tuple(acc))
    return _LOG_MOMENT[k]


def value_at_i(coeffs: Sequence[Rational]) -> Tuple[Rational, Rational]:
    """The exact value of ``sum coeffs[j] x^j`` at ``x = i`` as ``(real part, imaginary part)``.

    The coefficient of ``x^j`` lands on ``i^j``, which cycles through
    ``1, i, -1, -i`` with ``j mod 4``.
    """
    return sum(coeffs[0::4]) - sum(coeffs[2::4]), sum(coeffs[1::4]) - sum(coeffs[3::4])


def _log_moment_sum(terms: Iterable[Tuple[int, int]], length: int) -> List[int]:
    """The ``length`` coefficients of ``sum weight * R_k`` over the pairs ``(k, weight)``."""
    total = [0] * length
    for k, weight in terms:
        for j, c in enumerate(log_moment_poly(k)):
            total[j] += weight * c
    return total


def log_moment_poly_at_i(l: int) -> Fraction:
    """Exact value of P_{2l-1} at x = i, which is real:

        P_{2l-1}(i) = (-1)^l (2^{2l} - 1) B_{2l} / l.

    (The even-index family vanishes there instead: P_{2l}(i) = 0 for l >= 1.)
    """
    if l < 1:
        raise ValueError("index must be positive")
    sign = -1 if l % 2 else 1
    return sign * Fraction((2 ** (2 * l) - 1), l) * bernoulli(2 * l)


def coeff_a_row(n: int) -> Tuple[Fraction, ...]:
    """The rational weights ``(a(n, 0), ..., a(n, n - 1))`` of the even-count reduction.

    ``a(n, h)`` is the elementary symmetric polynomial of degree ``n - 1 - h``
    in the even squares ``2^2, 4^2, ..., (2n - 2)^2`` divided by ``(2n - 1)!``;
    ``n`` is half the (even) number of transforms, at least 1.  The whole row
    comes from one ladder.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    evens, scale = symmetric_ladder(even_squares(n - 1)), factorial(2 * n - 1)
    return tuple(Fraction(evens[n - 1 - h], scale) for h in range(n))


def coeff_b_row(n: int) -> Tuple[Fraction, ...]:
    """The rational weights ``(b(n, 0), ..., b(n, n))`` of the odd-count reduction.

    ``b(n, h)`` is the elementary symmetric polynomial of degree ``n - h`` in
    the odd squares ``1^2, 3^2, ..., (2n - 1)^2`` divided by ``(2n)!``; ``n``
    is ``(transforms - 1) / 2`` for an odd transform count, at least 0.  The
    whole row comes from one ladder.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    odds, scale = symmetric_ladder(odd_squares(n)), factorial(2 * n)
    return tuple(Fraction(odds[n - h], scale) for h in range(n + 1))


def _cleared(*rows: Sequence[Fraction]) -> List[List[int]]:
    """Each row times the least common denominator of all their weights, in integers."""
    scale = lcm(*(weight.denominator for row in rows for weight in row))
    return [[weight.numerator * (scale // weight.denominator) for weight in row] for row in rows]


def reduction_ab(n: int) -> bool:
    """Check a polynomial identity linking the coefficient ladders, for ``n >= 1``::

        sum_h b(n, h) x^(2h) == sum_h a(n, h-1) (P_(2h-1)(x) - P_(2h-1)(i))

    where ``a``, ``b`` are the rows :func:`coeff_a_row` and
    :func:`coeff_b_row` and ``P_k`` the log-moment polynomials.  The sides
    are compared as integer polynomials, times the rows' least common
    denominator and ``(2n)!``, with ``P_(2h-1) = R_(2h-1) / (2h)!``; the
    right side's shift is the value at ``i`` of its whole sum.  So the rows
    that the reduced-integral oracle weighs its moments with are held
    exactly.  Times ``(2n)!`` it is the same identity in symmetric sums::

        sum_h s_(n-h)(1^2,...,(2n-1)^2) x^(2h)
            == 2n sum_h s_(n-h)(2^2,...,(2n-2)^2) (P_(2h-1)(x) - P_(2h-1)(i))
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    a_row, b_row = _cleared(coeff_a_row(n), coeff_b_row(n))
    top = factorial(2 * n)
    lhs = [0] * (2 * n + 1)
    lhs[::2] = [weight * top for weight in b_row]
    terms = ((2 * h - 1, weight * (top // factorial(2 * h))) for h, weight in enumerate(a_row, 1))
    rhs = _log_moment_sum(terms, 2 * n + 1)
    re, im = value_at_i(rhs)
    rhs[0] -= re
    return im == 0 and lhs == rhs


def reduction_ba(n: int) -> bool:
    """Check ``sum_h a(n+1, h-1) x^(2h-1) == sum_h b(n, h) P_(2h)(x)``, for ``n >= 0``.

    ``a``, ``b`` and ``P_k`` are those of :func:`reduction_ab`, and the sides
    are compared as integer polynomials, times the rows' least common
    denominator and ``(2n+1)!``.  Times ``(2n+1)!`` it is the same identity
    in symmetric sums::

        sum_h s_(n-h)(2^2,...,(2n)^2) x^(2h+1)
            == (2n+1) sum_h s_(n-h)(1^2,...,(2n-1)^2) P_(2h)(x)
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    a_row, b_row = _cleared(coeff_a_row(n + 1), coeff_b_row(n))
    top = factorial(2 * n + 1)
    lhs = [0] * (2 * n + 2)
    lhs[1::2] = [weight * top for weight in a_row]
    terms = ((2 * h, weight * (top // factorial(2 * h + 1))) for h, weight in enumerate(b_row))
    return lhs == _log_moment_sum(terms, 2 * n + 2)


def _ladder_sum(ladder: Sequence[int], k: int, h: int, kernel: Callable) -> Fraction:
    """``sum_{l=0}^{k-h} ladder[k-h-l] C(2(l+h), 2h) kernel(l, h)``.

    This is the one inner sum of the paper's Bernoulli and Euler transfers and
    forms.  A transfer states its binomial as ``C(2(l+h), 2l)``, which names
    the same number.  The terms are summed in integers over the kernels'
    least common denominator, with one ``Fraction`` for the total.
    """
    kernels = [kernel(l, h) for l in range(k - h + 1)]
    scale = lcm(*(q.denominator for q in kernels))
    terms = (
        ladder[k - h - l] * comb(2 * (l + h), 2 * h) * q.numerator * (scale // q.denominator)
        for l, q in enumerate(kernels)
    )
    return Fraction(sum(terms), scale)


# The kernels of ``_ladder_sum`` in the paper's forms and transfers.
def _bernoulli_two_kernel(l: int, h: int) -> Fraction:
    return Fraction((-4) ** l, l + h) * bernoulli(2 * l)


def _bernoulli_three_kernel(l: int, h: int) -> Fraction:
    """``(-1)^(l+1) 2^(2l) (2^(2l-1) - 1) B_{2l} / (l+h)``."""
    return Fraction((-1) ** (l + 1) * (16**l - 2 * 4**l), 2 * (l + h)) * bernoulli(2 * l)


def _bernoulli_first_kernel(s: int, l: int) -> Fraction:
    return Fraction((2 ** (2 * s) - 2) * (-1) ** (s + 1), l + s) * bernoulli(2 * s)


def _bernoulli_third_kernel(s: int, l: int) -> Fraction:
    return (2 ** (2 * s) - 2) * (-1) ** (s + 1) * bernoulli(2 * s)


def _euler_kernel(s: int, l: int) -> int:
    return (-1) ** s * euler_number(2 * s)


def _zeta_series(top: int, scale: int, inners: Iterable[Tuple[int, Fraction]]) -> ZetaCombination:
    """``sum_j zeta(2j+1) pi^(top-2j) (2j)! (2^(2j+1) - 1) inner_j / scale`` over ``(j, inner_j)``.

    Built here rather than with ``formulas._zeta_sum``, so that the paper's
    forms share no term builder with the production closed forms.
    """
    total = ZetaCombination.zero()
    for j, inner in inners:
        coeff = Fraction(factorial(2 * j) * (2 ** (2 * j + 1) - 1), scale) * inner
        total = total + ZetaCombination.zeta(2 * j + 1, top - 2 * j, coeff)
    return total


def family_two_bernoulli_form(spec: FamilySpec) -> MahlerResult:
    """The paper's Bernoulli-weighted closed form of family ``ii`` at even ``n = 2k >= 2``::

        pi^(n+2) m = sum_{h=1}^{k} zeta(2h+3) pi^(2k-2h) (2h+2)! (2^(2h+3) - 1)
                                   inner(h) / (8 (2k-1)!)
        inner(h) = sum_{l=0}^{k-h} s_{k-h-l}(2^2, ..., (2k-2)^2) C(2(l+h), 2h) (-4)^l B_{2l} / (l+h)

    :func:`~mahlerzeta.formulas.family_two` builds the same member from family
    ``i``'s terms by identity A, so the two must be equal.
    """
    if spec.family is not Family.TWO or spec.parity or spec.n_transforms < 2:
        raise ValueError("the Bernoulli form is that of family ii at even n >= 2")
    k = spec.n_transforms // 2
    evens = symmetric_ladder(even_squares(k - 1))
    inners = (
        (h + 1, _ladder_sum(evens, k, h, _bernoulli_two_kernel)) for h in range(1, k + 1)
    )
    return MahlerResult(spec, _zeta_series(2 * k + 2, 8 * factorial(2 * k - 1), inners))


def family_three_rewritings(spec: FamilySpec) -> List[MahlerResult]:
    """Family ``iii``'s closed form with its third sum in each of the paper's two forms.

    With ``p = n mod 2``, each result is the paper's ``(1/2) pi^(n+1) log 2 +
    (1/2) pi^(1-p) F(n+p)``, ``F`` being family ``i``, plus the third sum
    weighted by Bernoulli numbers over the even-square ladder or by Euler
    numbers over the odd-square ladder, in that order.
    :func:`~mahlerzeta.formulas.family_three` folds the first two sums into
    identity B's third sum, so every result must equal ``family_three(spec)``.
    (Reading the inner binomial ``C(2(l+h), 2h)`` as ``C(2(l+h), 2l)`` gives no
    further form: the two are equal term for term.)
    """
    if spec.family is not Family.THREE:
        raise ValueError("the rewritings are those of family iii")
    transforms, parity = spec.n_transforms, spec.parity
    family_i = family_one(FamilySpec(Family.ONE, transforms + parity)).combination
    first = ZetaCombination.log2(transforms + 1, Fraction(1, 2))
    first += ZetaCombination.pi_rational(Fraction(1, 2), 1 - parity) * family_i
    n = transforms // 2
    if n == 0:  # one transform: the third sum is empty in every form
        return [MahlerResult(spec, first)] * 2
    forms = [
        (symmetric_ladder(even_squares(n - 1)), factorial(2 * n - 1), _bernoulli_three_kernel),
        (symmetric_ladder(odd_squares(n)), factorial(2 * n), _euler_kernel),
    ]
    results = []
    for ladder, scale, kernel in forms:
        inners = ((o, _ladder_sum(ladder, n, o, kernel)) for o in range(1, n + 1))
        tail = _zeta_series(transforms + 1, 4 * scale, inners)
        results.append(MahlerResult(spec, first + tail))
    return results


def check_symmetric_transfer_first(n: int) -> bool:
    """Alternating binomial transfer, for ``n >= 1`` and every ``1 <= l <= n``:

        2n (-1)^l s_{n-l}(2^2, ..., (2n-2)^2)
            = sum_{h=l}^{n} (-1)^h C(2h, 2l-1) s_{n-h}(1^2, ..., (2n-1)^2)
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    evens = symmetric_ladder(even_squares(n - 1))
    odds = symmetric_ladder(odd_squares(n))
    return all(
        2 * n * (-1) ** l * evens[n - l]
        == sum((-1) ** h * comb(2 * h, 2 * l - 1) * odds[n - h] for h in range(l, n + 1))
        for l in range(1, n + 1)
    )


def check_symmetric_transfer_second(n: int) -> bool:
    """Alternating binomial transfer, for ``n >= 0`` and every ``0 <= l <= n``:

        (2n+1) (-1)^l s_{n-l}(1^2, ..., (2n-1)^2)
            = sum_{h=l}^{n} (-1)^h C(2h+1, 2l) s_{n-h}(2^2, ..., (2n)^2)
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    odds = symmetric_ladder(odd_squares(n))
    evens = symmetric_ladder(even_squares(n))
    return all(
        (2 * n + 1) * (-1) ** l * odds[n - l]
        == sum((-1) ** h * comb(2 * h + 1, 2 * l) * evens[n - h] for h in range(l, n + 1))
        for l in range(n + 1)
    )


def check_bernoulli_transfer_first(n: int) -> bool:
    """Bernoulli-kernel transfer, for ``n >= 1`` and every ``1 <= l <= n``:

        s_{n-l}(1^2, ..., (2n-1)^2)
            = n sum_{s=0}^{n-l} s_{n-l-s}(2^2, ..., (2n-2)^2)
                  (1/(l+s)) B_{2s} C(2(l+s), 2s) (2^{2s} - 2) (-1)^{s+1}
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    evens = symmetric_ladder(even_squares(n - 1))
    odds = symmetric_ladder(odd_squares(n))
    return all(
        odds[n - l] == n * _ladder_sum(evens, n, l, _bernoulli_first_kernel)
        for l in range(1, n + 1)
    )


def check_bernoulli_transfer_second(n: int) -> bool:
    """Bernoulli-kernel transfer to a squared double factorial, for ``n >= 1``:

        ((2n)! / (2^n n!))^2
            = 2n sum_{s=1}^{n} s_{n-s}(2^2, ..., (2n-2)^2)
                  (1/s) B_{2s} (2^{2s} - 1) (-1)^{s+1}
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    evens = symmetric_ladder(even_squares(n - 1))
    lhs = Fraction(factorial(2 * n), 2**n * factorial(n)) ** 2
    rhs = 2 * n * sum(
        (
            evens[n - s]
            * Fraction(1, s)
            * bernoulli(2 * s)
            * (2 ** (2 * s) - 1)
            * (-1) ** (s + 1)
            for s in range(1, n + 1)
        ),
        Fraction(0),
    )
    return lhs == rhs


def check_bernoulli_transfer_third(n: int) -> bool:
    """Bernoulli-kernel transfer, for ``n >= 0`` and every ``0 <= l <= n``:

        (2l+1) s_{n-l}(2^2, ..., (2n)^2)
            = (2n+1) sum_{s=0}^{n-l} s_{n-l-s}(1^2, ..., (2n-1)^2)
                  B_{2s} C(2(l+s), 2s) (2^{2s} - 2) (-1)^{s+1}
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    odds = symmetric_ladder(odd_squares(n))
    evens = symmetric_ladder(even_squares(n))
    return all(
        (2 * l + 1) * evens[n - l]
        == (2 * n + 1) * _ladder_sum(odds, n, l, _bernoulli_third_kernel)
        for l in range(n + 1)
    )


def check_bernoulli_euler_transfer(n: int) -> bool:
    """Equality of a Bernoulli-weighted and an Euler-weighted transfer sum.

    For ``n >= 1`` and every ``1 <= l <= n``:

        n sum_{s=0}^{n-l} s_{n-l-s}(2^2, ..., (2n-2)^2)
              (1/(l+s)) B_{2s} C(2(l+s), 2s) 2^{2s} (2^{2s} - 2) (-1)^{s+1}
        = sum_{k=l}^{n} (-1)^{k+l} C(2k, 2l) s_{n-k}(1^2, ..., (2n-1)^2) E_{2(k-l)}

    The identity fails at l = 0 (both sides are then outside its proof), so
    that case is left out.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    evens = symmetric_ladder(even_squares(n - 1))
    odds = symmetric_ladder(odd_squares(n))
    return all(
        2 * n * _ladder_sum(evens, n, l, _bernoulli_three_kernel)
        == _ladder_sum(odds, n, l, _euler_kernel)
        for l in range(1, n + 1)
    )


def check_euler_factorial_sums(n: int) -> bool:
    """Two Euler-weighted sums that collapse to factorials, for ``n >= 0``:

        sum_{h=0}^{n} s_{n-h}(1^2, ..., (2n-1)^2) (-1)^h E_{2h} = (2n)!
        sum_{h=0}^{n} s_{n-h}(1^2, ..., (2n-1)^2) (-1)^{h+1} E_{2h+2} = (2n+1)!

    both from one ladder, in integers.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    odds = symmetric_ladder(odd_squares(n))
    plain = sum(odds[n - h] * (-1) ** h * euler_number(2 * h) for h in range(n + 1))
    shifted = sum(odds[n - h] * (-1) ** (h + 1) * euler_number(2 * h + 2) for h in range(n + 1))
    return plain == factorial(2 * n) and shifted == factorial(2 * n + 1)


def check_bernoulli_factorial_sum(n: int) -> bool:
    """Bernoulli-weighted sum that collapses to a factorial, for ``n >= 1``:

        sum_{h=1}^{n} s_{n-h}(2^2, ..., (2n-2)^2)
            (-1)^{h+1} (2^{2h} (2^{2h} - 1) / h) B_{2h} = 2 (2n-1)!
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    evens = symmetric_ladder(even_squares(n - 1))
    lhs = sum(
        (
            evens[n - h]
            * (-1) ** (h + 1)
            * Fraction(2 ** (2 * h) * (2 ** (2 * h) - 1), h)
            * bernoulli(2 * h)
            for h in range(1, n + 1)
        ),
        Fraction(0),
    )
    return lhs == 2 * factorial(2 * n - 1)


def check_bernoulli_recurrence(k: int) -> bool:
    """The defining recurrence sum_{s=0}^{k} C(k+1, s) B_s = 0 for k >= 1."""
    if k < 1:
        raise ValueError("requires k >= 1")
    total = sum((comb(k + 1, s) * bernoulli(s) for s in range(k + 1)), Fraction(0))
    return total == 0


def check_bernoulli_halving(k: int) -> bool:
    """The halving identity (1 - 2^{k-1}) B_k = sum_{s=0}^{k} 2^{s-1} C(k, s) B_s."""
    if k < 0:
        raise ValueError("requires k >= 0")
    lhs = (1 - Fraction(2) ** (k - 1)) * bernoulli(k)
    rhs = sum(
        (Fraction(2) ** (s - 1) * comb(k, s) * bernoulli(s) for s in range(k + 1)),
        Fraction(0),
    )
    return lhs == rhs


def check_log_moment_poly_properties(k: int) -> bool:
    """Structural property suite for the k-th log-moment kernel polynomial.

    On ``R_k = (k+1)! P_k`` it checks: degree k+1 with leading coefficient
    ``k!``; vanishing at 0; monomial parity opposite to k; the derivative
    ladder ``R'_{k+1} = (k+1)(k+2) R_k``, which is ``P'_{k+1} = (k+1) P_k``
    (modulo the constant term when k is odd); and the value at i (zero for
    even index >= 2, ``(k+1)!`` times the exact rational
    ``log_moment_poly_at_i`` for odd index).
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    r = log_moment_poly(k)
    if len(r) != k + 2 or r[k + 1] != factorial(k) or r[0] != 0:
        return False
    if any(r[k % 2 :: 2]):
        return False
    ladder = [j * c for j, c in enumerate(log_moment_poly(k + 1))][1:]
    if k % 2 == 1:
        ladder[0] = 0
    if ladder != [(k + 1) * (k + 2) * c for c in r]:
        return False
    re, im = value_at_i(r)
    if k == 0:
        return (re, im) == (0, 1)
    if k % 2 == 0:
        return re == 0 and im == 0
    return im == 0 and re == factorial(k + 1) * log_moment_poly_at_i((k + 1) // 2)


def monomial_from_log_moment_polys(degree: int) -> List[Tuple[int, int]]:
    """Expansion of ``x^degree`` in the log-moment polynomial family.

    Returns pairs ``(k, c)`` with ``x^degree = sum c * P_k(x)``:

        x^{2h}   = sum_{k=0}^{h-1} (-1)^k C(2h, 2k+1)   P_{2h-2k-1}(x)
        x^{2h+1} = sum_{k=0}^{h}   (-1)^k C(2h+1, 2k+1) P_{2h-2k}(x)

    The constant monomial has no such expansion (every P_k vanishes at 0).
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    pairs: List[Tuple[int, int]] = []
    if degree % 2 == 0:
        h = degree // 2
        for k in range(h):
            pairs.append((2 * h - 2 * k - 1, (-1) ** k * comb(2 * h, 2 * k + 1)))
    else:
        h = (degree - 1) // 2
        for k in range(h + 1):
            pairs.append((2 * h - 2 * k, (-1) ** k * comb(2 * h + 1, 2 * k + 1)))
    return pairs


def check_monomial_decomposition(degree: int) -> bool:
    """``x^degree`` recombines from :func:`monomial_from_log_moment_polys`, for ``degree >= 1``.

    Times ``degree!`` the expansion is one of integer polynomials, each
    ``P_k`` being ``R_k / (k+1)!``.
    """
    top = factorial(degree)
    terms = (
        (k, c * (top // factorial(k + 1))) for k, c in monomial_from_log_moment_polys(degree)
    )
    return _log_moment_sum(terms, degree + 1) == [0] * degree + [top]


def log_moment_poly_bernoulli_form(k: int) -> Tuple[Fraction, ...]:
    """The k-th log-moment kernel polynomial via Bernoulli polynomials, as ``R_k``'s coefficients.

    Evaluates the closed form

        P_k(x) = (2 i^{k+1}/(k+1)) (B_{k+1}(x/i) - 2^k B_{k+1}(x/(2i)))
                 + ((2^{k+1} - 2) i^{k+1}/(k+1)) B_{k+1},

    where ``B_m(y) = sum_j C(m, j) B_{m-j} y^j`` is the Bernoulli polynomial,
    and returns the ``k + 2`` coefficients of ``(k+1)! P_k``, which are
    integers when the form is right.  The coefficient of ``x^j`` is a
    rational times ``i^(k+1) (-i)^j``, a power of ``i`` tracked by its
    exponent mod 4.  Every odd power must meet a zero rational (the imaginary
    parts cancel); a violation would indicate a transcription error and
    raises.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    m = k + 1
    coeffs: List[Fraction] = []
    for j in range(m + 1):
        # [x^j] of 2 k! i^{k+1} (B_m(-i x) - 2^k B_m(-i x / 2)), which is m! times
        # that of 2 i^{k+1}/(k+1) (...)
        rational = 2 * factorial(k) * comb(m, j) * bernoulli(m - j) * (1 - Fraction(2) ** (k - j))
        if j == 0:
            rational += factorial(k) * (2**m - 2) * bernoulli(m)
        turns = (m + 3 * j) % 4  # i^{k+1} (-i)^j = i^(m + 3j)
        if turns % 2 and rational != 0:
            raise ValueError("imaginary part failed to cancel; transcription bug")
        coeffs.append(rational if turns == 0 else -rational)
    return tuple(coeffs)
