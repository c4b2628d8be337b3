"""Exact combinatorial identities used by the closed-form derivations.

Every function here evaluates both sides of an identity over exact rationals
and reports whether they agree.  These identities move coefficients between
the two elementary-symmetric ladders built on odd squares ``(1^2, 3^2, ...)``
and even squares ``(2^2, 4^2, ...)``, with Bernoulli and Euler numbers acting
as the transfer kernels; they are what make the dimension-reduction recursion
in :mod:`mahlerzeta.formulas` telescope into finite closed forms.  Each
identity has its own function, named after it, with its formula in the
docstring and its range check in the body.

The module also holds the routes that only cross-check production: the
ladder identities ``reduction_ab``/``reduction_ba``, their raw symmetric-sum
forms ``reduction_induction_ab``/``reduction_induction_ba``, and the three
other exact rewritings of family ``iii``'s third sum
(:func:`family_three_rewriting`).  :mod:`mahlerzeta.formulas` keeps one route
per quantity.

Each check builds the ladders it needs once, with
:func:`~mahlerzeta.exact.symmetric_ladder`, and indexes them: ``evens[j]`` is
``s_j`` of the even squares and ``odds[j]`` that of the odd squares.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import List, Tuple

from .combinations import ZetaCombination
from .exact import (
    PolyQ,
    bernoulli,
    euler_number,
    even_squares,
    log_moment_poly,
    log_moment_poly_at_i,
    odd_squares,
    symmetric_ladder,
)
from .formulas import (
    FamilySpec,
    MahlerResult,
    _family_three_tail,
    coeff_a,
    coeff_b,
    family_three,
)

__all__ = [
    "reduction_ab",
    "reduction_ba",
    "reduction_induction_ab",
    "reduction_induction_ba",
    "family_three_rewriting",
    "check_symmetric_transfer_first",
    "check_symmetric_transfer_second",
    "check_bernoulli_transfer_first",
    "check_bernoulli_transfer_second",
    "check_bernoulli_transfer_third",
    "check_bernoulli_euler_transfer",
    "check_euler_factorial_sum",
    "check_euler_shifted_factorial_sum",
    "check_bernoulli_factorial_sum",
    "check_bernoulli_recurrence",
    "check_bernoulli_halving",
    "check_log_moment_poly_properties",
    "monomial_from_log_moment_polys",
    "log_moment_poly_bernoulli_form",
]


def reduction_ab(n: int) -> bool:
    """Check a polynomial identity linking the coefficient ladders, for ``n >= 1``::

        sum_h b(n, h) x^(2h) == sum_h a(n, h-1) (P_(2h-1)(x) - P_(2h-1)(i))

    where ``a``, ``b`` are :func:`~mahlerzeta.formulas.coeff_a` and
    :func:`~mahlerzeta.formulas.coeff_b` and ``P_k`` the log-moment
    polynomials.  This is an exact ``PolyQ`` comparison over the rationals.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    lhs = PolyQ.zero()
    for h in range(n + 1):
        lhs = lhs + PolyQ.monomial(2 * h, coeff_b(n, h))
    rhs = PolyQ.zero()
    for h in range(1, n + 1):
        shifted = log_moment_poly(2 * h - 1) - PolyQ.monomial(0, log_moment_poly_at_i(h))
        rhs = rhs + shifted * coeff_a(n, h - 1)
    return lhs == rhs


def reduction_ba(n: int) -> bool:
    """Check ``sum_h a(n+1, h-1) x^(2h-1) == sum_h b(n, h) P_(2h)(x)``, for ``n >= 0``.

    ``a``, ``b`` and ``P_k`` are those of :func:`reduction_ab`.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    lhs = PolyQ.zero()
    for h in range(1, n + 2):
        lhs = lhs + PolyQ.monomial(2 * h - 1, coeff_a(n + 1, h - 1))
    rhs = PolyQ.zero()
    for h in range(n + 1):
        rhs = rhs + log_moment_poly(2 * h) * coeff_b(n, h)
    return lhs == rhs


def reduction_induction_ab(n: int) -> bool:
    """:func:`reduction_ab` cleared of factorials, in symmetric sums (``n >= 1``)::

        sum_h s_(n-h)(1^2,...,(2n-1)^2) x^(2h)
            == 2n sum_h s_(n-h)(2^2,...,(2n-2)^2) (P_(2h-1)(x) - P_(2h-1)(i))
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    odds = symmetric_ladder(odd_squares(n))
    evens = symmetric_ladder(even_squares(n - 1))
    lhs = PolyQ.zero()
    for h in range(n + 1):
        lhs = lhs + PolyQ.monomial(2 * h, odds[n - h])
    rhs = PolyQ.zero()
    for h in range(1, n + 1):
        shifted = log_moment_poly(2 * h - 1) - PolyQ.monomial(0, log_moment_poly_at_i(h))
        rhs = rhs + shifted * evens[n - h]
    return lhs == rhs * (2 * n)


def reduction_induction_ba(n: int) -> bool:
    """:func:`reduction_ba` cleared of factorials, in symmetric sums (``n >= 0``)::

        sum_h s_(n-h)(2^2,...,(2n)^2) x^(2h+1)
            == (2n+1) sum_h s_(n-h)(1^2,...,(2n-1)^2) P_(2h)(x)
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    evens = symmetric_ladder(even_squares(n))
    odds = symmetric_ladder(odd_squares(n))
    lhs = PolyQ.zero()
    for h in range(n + 1):
        lhs = lhs + PolyQ.monomial(2 * h + 1, evens[n - h])
    rhs = PolyQ.zero()
    for h in range(n + 1):
        rhs = rhs + log_moment_poly(2 * h) * odds[n - h]
    return lhs == rhs * (2 * n + 1)


def family_three_rewriting(
    spec: FamilySpec, variant: str = "euler", binomial_reading: str = "l"
) -> MahlerResult:
    """Family ``iii``'s closed form with its third sum in one of four exact rewritings.

    The third sum is weighted by Bernoulli numbers (``variant="bernoulli"``)
    or by Euler numbers (``"euler"``).  Its inner binomial coefficient takes
    either of two complementary lower indices, named after the summation
    index they double (``binomial_reading="h"`` or ``"l"``).
    :func:`~mahlerzeta.formulas.family_three` evaluates the Bernoulli sum
    with the ``h`` reading; this swaps in the chosen rewriting, so every
    result must equal ``family_three(spec)``.
    """
    if variant == "bernoulli":
        outer = "h"

        def weight(i: int, o: int) -> Fraction:
            return (
                (-1) ** (i + 1)
                * Fraction(2) ** (2 * i)
                * (Fraction(2) ** (2 * i - 1) - 1)
                / (o + i)
                * bernoulli(2 * i)
            )

    elif variant == "euler":
        outer = "l"

        def weight(i: int, o: int) -> Fraction:
            return Fraction((-1) ** i * euler_number(2 * i))

    else:
        raise ValueError("variant must be 'bernoulli' or 'euler'")
    if binomial_reading not in ("h", "l"):
        raise ValueError("binomial_reading must be 'h' or 'l'")
    production = family_three(spec)
    n = spec.n_transforms // 2
    if n == 0:  # one transform: the third sum is empty in every rewriting
        return production
    pi_shift = 1 + spec.parity
    if variant == "bernoulli":
        ladder, scale = symmetric_ladder(even_squares(n - 1)), factorial(2 * n - 1)
    else:
        ladder, scale = symmetric_ladder(odd_squares(n)), factorial(2 * n)
    tail = ZetaCombination.zero()
    for o in range(1, n + 1):
        inner = sum(
            (
                ladder[n - o - i]
                * comb(2 * (o + i), 2 * o if binomial_reading == outer else 2 * i)
                * weight(i, o)
                for i in range(n - o + 1)
            ),
            Fraction(0),
        )
        coeff = Fraction(factorial(2 * o) * (2 ** (2 * o + 1) - 1), 4 * scale) * inner
        tail = tail + ZetaCombination.zeta(2 * o + 1, 2 * n - 2 * o + pi_shift, coeff)
    combination = production.combination - _family_three_tail(n, pi_shift) + tail
    return MahlerResult(spec, combination)


def check_symmetric_transfer_first(n: int, l: int) -> bool:
    """Alternating binomial transfer, for ``n >= 1`` and ``1 <= l <= n``:

        2n (-1)^l s_{n-l}(2^2, ..., (2n-2)^2)
            = sum_{h=l}^{n} (-1)^h C(2h, 2l-1) s_{n-h}(1^2, ..., (2n-1)^2)
    """
    if n < 1 or not 1 <= l <= n:
        raise ValueError("requires n >= 1 and 1 <= l <= n")
    evens = symmetric_ladder(even_squares(n - 1))
    odds = symmetric_ladder(odd_squares(n))
    lhs = 2 * n * (-1) ** l * evens[n - l]
    rhs = sum((-1) ** h * comb(2 * h, 2 * l - 1) * odds[n - h] for h in range(l, n + 1))
    return lhs == rhs


def check_symmetric_transfer_second(n: int, l: int) -> bool:
    """Alternating binomial transfer, for ``n >= 0`` and ``0 <= l <= n``:

        (2n+1) (-1)^l s_{n-l}(1^2, ..., (2n-1)^2)
            = sum_{h=l}^{n} (-1)^h C(2h+1, 2l) s_{n-h}(2^2, ..., (2n)^2)
    """
    if n < 0 or not 0 <= l <= n:
        raise ValueError("requires n >= 0 and 0 <= l <= n")
    odds = symmetric_ladder(odd_squares(n))
    evens = symmetric_ladder(even_squares(n))
    lhs = (2 * n + 1) * (-1) ** l * odds[n - l]
    rhs = sum((-1) ** h * comb(2 * h + 1, 2 * l) * evens[n - h] for h in range(l, n + 1))
    return lhs == rhs


def check_bernoulli_transfer_first(n: int, l: int) -> bool:
    """Bernoulli-kernel transfer, for ``n >= 1`` and ``1 <= l <= n``:

        s_{n-l}(1^2, ..., (2n-1)^2)
            = n sum_{s=0}^{n-l} s_{n-l-s}(2^2, ..., (2n-2)^2)
                  (1/(l+s)) B_{2s} C(2(l+s), 2s) (2^{2s} - 2) (-1)^{s+1}
    """
    if n < 1 or not 1 <= l <= n:
        raise ValueError("requires n >= 1 and 1 <= l <= n")
    evens = symmetric_ladder(even_squares(n - 1))
    lhs = symmetric_ladder(odd_squares(n))[n - l]
    rhs = n * sum(
        (
            evens[n - l - s]
            * Fraction(1, l + s)
            * bernoulli(2 * s)
            * comb(2 * (l + s), 2 * s)
            * (2 ** (2 * s) - 2)
            * (-1) ** (s + 1)
            for s in range(n - l + 1)
        ),
        Fraction(0),
    )
    return lhs == rhs


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


def check_bernoulli_transfer_third(n: int, l: int) -> bool:
    """Bernoulli-kernel transfer, for ``n >= 0`` and ``0 <= l <= n``:

        (2l+1) s_{n-l}(2^2, ..., (2n)^2)
            = (2n+1) sum_{s=0}^{n-l} s_{n-l-s}(1^2, ..., (2n-1)^2)
                  B_{2s} C(2(l+s), 2s) (2^{2s} - 2) (-1)^{s+1}
    """
    if n < 0 or not 0 <= l <= n:
        raise ValueError("requires n >= 0 and 0 <= l <= n")
    odds = symmetric_ladder(odd_squares(n))
    lhs = (2 * l + 1) * symmetric_ladder(even_squares(n))[n - l]
    rhs = (2 * n + 1) * sum(
        (
            odds[n - l - s]
            * bernoulli(2 * s)
            * comb(2 * (l + s), 2 * s)
            * (2 ** (2 * s) - 2)
            * (-1) ** (s + 1)
            for s in range(n - l + 1)
        ),
        Fraction(0),
    )
    return lhs == rhs


def check_bernoulli_euler_transfer(n: int, l: int) -> bool:
    """Equality of a Bernoulli-weighted and an Euler-weighted transfer sum.

    For 1 <= l <= n:

        n sum_{s=0}^{n-l} s_{n-l-s}(2^2, ..., (2n-2)^2)
              (1/(l+s)) B_{2s} C(2(l+s), 2s) 2^{2s} (2^{2s} - 2) (-1)^{s+1}
        = sum_{k=l}^{n} (-1)^{k+l} C(2k, 2l) s_{n-k}(1^2, ..., (2n-1)^2) E_{2(k-l)}

    The identity fails at l = 0 (both sides are then outside its proof), so
    that case is rejected.
    """
    if n < 1 or not 1 <= l <= n:
        raise ValueError("requires n >= 1 and 1 <= l <= n")
    evens = symmetric_ladder(even_squares(n - 1))
    odds = symmetric_ladder(odd_squares(n))
    lhs = n * sum(
        (
            evens[n - l - s]
            * Fraction(1, l + s)
            * bernoulli(2 * s)
            * comb(2 * (l + s), 2 * s)
            * 2 ** (2 * s)
            * (2 ** (2 * s) - 2)
            * (-1) ** (s + 1)
            for s in range(n - l + 1)
        ),
        Fraction(0),
    )
    rhs = sum(
        (
            Fraction((-1) ** (k + l) * comb(2 * k, 2 * l))
            * odds[n - k]
            * euler_number(2 * (k - l))
            for k in range(l, n + 1)
        ),
        Fraction(0),
    )
    return lhs == rhs



def check_euler_factorial_sum(n: int) -> bool:
    """``sum_{h=0}^{n} s_{n-h}(1^2, ..., (2n-1)^2) (-1)^h E_{2h} = (2n)!`` for ``n >= 0``."""
    if n < 0:
        raise ValueError("requires n >= 0")
    odds = symmetric_ladder(odd_squares(n))
    lhs = sum((odds[n - h] * (-1) ** h * euler_number(2 * h) for h in range(n + 1)), Fraction(0))
    return lhs == factorial(2 * n)


def check_euler_shifted_factorial_sum(n: int) -> bool:
    """The shifted Euler sum, for ``n >= 0``:
    ``sum_{h=0}^{n} s_{n-h}(1^2, ..., (2n-1)^2) (-1)^{h+1} E_{2h+2} = (2n+1)!``.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    odds = symmetric_ladder(odd_squares(n))
    lhs = sum(
        (odds[n - h] * (-1) ** (h + 1) * euler_number(2 * h + 2) for h in range(n + 1)),
        Fraction(0),
    )
    return lhs == factorial(2 * n + 1)


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

    Checks: degree k+1 with leading coefficient 1/(k+1); vanishing at 0;
    monomial parity opposite to k; the derivative ladder
    P'_{k+1} = (k+1) P_k (modulo the constant term when k is odd); and the
    value at i (zero for even index >= 2, the exact rational
    ``log_moment_poly_at_i`` for odd index).
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    p = log_moment_poly(k)
    if p.degree != k + 1 or p.coefficient(k + 1) != Fraction(1, k + 1):
        return False
    if p.coefficient(0) != 0:
        return False
    want_parity = 1 if k % 2 == 0 else 0
    if any(d % 2 != want_parity for d in p.monomial_degrees()):
        return False
    ladder = log_moment_poly(k + 1).derivative()
    if k % 2 == 1:
        ladder = ladder.drop_constant()
    if ladder != (k + 1) * p:
        return False
    re, im = p.at_i()
    if k == 0:
        return (re, im) == (0, 1)
    if k % 2 == 0:
        return re == 0 and im == 0
    return im == 0 and re == log_moment_poly_at_i((k + 1) // 2)


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


def log_moment_poly_bernoulli_form(k: int) -> PolyQ:
    """The k-th log-moment kernel polynomial via Bernoulli polynomials.

    Evaluates the closed form

        P_k(x) = (2 i^{k+1}/(k+1)) (B_{k+1}(x/i) - 2^k B_{k+1}(x/(2i)))
                 + ((2^{k+1} - 2) i^{k+1}/(k+1)) B_{k+1},

    where ``B_m(y) = sum_j C(m, j) B_{m-j} y^j`` is the Bernoulli polynomial.
    The coefficient of ``x^j`` is a rational times ``i^(k+1) (-i)^j``, a power
    of ``i`` tracked by its exponent mod 4.  Every odd power must meet a zero
    rational (the imaginary parts cancel); a violation would indicate a
    transcription error and raises.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    m = k + 1
    coeffs: List[Fraction] = []
    for j in range(m + 1):
        # [x^j] of 2 i^{k+1}/(k+1) * (B_m(-i x) - 2^k B_m(-i x / 2))
        scale = comb(m, j) * bernoulli(m - j) * (1 - Fraction(2) ** (k - j))
        rational = Fraction(2, m) * scale
        if j == 0:
            rational += Fraction(2**m - 2, m) * bernoulli(m)
        turns = (m + 3 * j) % 4  # i^{k+1} (-i)^j = i^(m + 3j)
        if turns % 2 and rational != 0:
            raise ValueError("imaginary part failed to cancel; transcription bug")
        coeffs.append(rational if turns == 0 else -rational)
    return PolyQ(coeffs)
