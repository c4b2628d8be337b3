"""Exact combinatorial identities used by the closed-form derivations.

Every function here evaluates both sides of an identity over exact rationals
and reports whether they agree.  These identities move coefficients between
the two elementary-symmetric ladders built on odd squares ``(1^2, 3^2, ...)``
and even squares ``(2^2, 4^2, ...)``, with Bernoulli and Euler numbers acting
as the transfer kernels; they are what make the dimension-reduction recursion
in :mod:`mahlerzeta.formulas` telescope into finite closed forms.

Each check builds the ladders it needs once, with
:func:`~mahlerzeta.exact.symmetric_ladder`, and indexes them: ``evens[j]`` is
``s_j`` of the even squares and ``odds[j]`` that of the odd squares.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import List, Optional, Tuple

from .exact import (
    GaussianRational,
    PolyQ,
    bernoulli,
    euler_number,
    even_squares,
    log_moment_poly,
    log_moment_poly_at_i,
    odd_squares,
    symmetric_ladder,
)

__all__ = [
    "reduction_induction_identity",
    "check_symmetric_transfer",
    "check_bernoulli_transfer",
    "check_bernoulli_euler_transfer",
    "check_weighted_factorial_sum",
    "check_bernoulli_recurrence",
    "check_bernoulli_halving",
    "check_log_moment_poly_properties",
    "monomial_from_log_moment_polys",
    "log_moment_poly_bernoulli_form",
]


def reduction_induction_identity(n: int, variant: str = "ab") -> bool:
    """Check the raw symmetric-sum identities behind ``reduction_identity``.

    These are the identities of :func:`mahlerzeta.formulas.reduction_identity`
    cleared of factorial denominators, written directly in elementary
    symmetric polynomials.  Variant ``"ab"``
    (``n >= 1``) checks::

        sum_h s_(n-h)(1^2,...,(2n-1)^2) x^(2h)
            == 2n sum_h s_(n-h)(2^2,...,(2n-2)^2) (P_(2h-1)(x) - P_(2h-1)(i))

    and variant ``"ba"`` (``n >= 0``) checks::

        sum_h s_(n-h)(2^2,...,(2n)^2) x^(2h+1)
            == (2n+1) sum_h s_(n-h)(1^2,...,(2n-1)^2) P_(2h)(x)

    Parameters
    ----------
    n : int
        Ladder index.
    variant : {"ab", "ba"}
        Which identity to check.

    Returns
    -------
    bool
        True when the identity holds exactly.
    """
    if variant == "ab":
        if n < 1:
            raise ValueError("variant 'ab' requires n >= 1")
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
    if variant == "ba":
        if n < 0:
            raise ValueError("variant 'ba' requires n >= 0")
        evens = symmetric_ladder(even_squares(n))
        odds = symmetric_ladder(odd_squares(n))
        lhs = PolyQ.zero()
        for h in range(n + 1):
            lhs = lhs + PolyQ.monomial(2 * h + 1, evens[n - h])
        rhs = PolyQ.zero()
        for h in range(n + 1):
            rhs = rhs + log_moment_poly(2 * h) * odds[n - h]
        return lhs == rhs * (2 * n + 1)
    raise ValueError("variant must be 'ab' or 'ba'")


def check_symmetric_transfer(n: int, l: int, variant: str = "first") -> bool:
    """Alternating binomial transfer between the two symmetric ladders.

    ``variant="first"`` (requires 1 <= l <= n):

        2n (-1)^l s_{n-l}(2^2, ..., (2n-2)^2)
            = sum_{h=l}^{n} (-1)^h C(2h, 2l-1) s_{n-h}(1^2, ..., (2n-1)^2)

    ``variant="second"`` (requires 0 <= l <= n):

        (2n+1) (-1)^l s_{n-l}(1^2, ..., (2n-1)^2)
            = sum_{h=l}^{n} (-1)^h C(2h+1, 2l) s_{n-h}(2^2, ..., (2n)^2)
    """
    if variant == "first":
        if n < 1 or not 1 <= l <= n:
            raise ValueError("first variant requires n >= 1 and 1 <= l <= n")
        evens = symmetric_ladder(even_squares(n - 1))
        odds = symmetric_ladder(odd_squares(n))
        lhs = 2 * n * (-1) ** l * evens[n - l]
        rhs = sum(
            (-1) ** h * comb(2 * h, 2 * l - 1) * odds[n - h] for h in range(l, n + 1)
        )
        return lhs == rhs
    if variant == "second":
        if n < 0 or not 0 <= l <= n:
            raise ValueError("second variant requires n >= 0 and 0 <= l <= n")
        odds = symmetric_ladder(odd_squares(n))
        evens = symmetric_ladder(even_squares(n))
        lhs = (2 * n + 1) * (-1) ** l * odds[n - l]
        rhs = sum(
            (-1) ** h * comb(2 * h + 1, 2 * l) * evens[n - h] for h in range(l, n + 1)
        )
        return lhs == rhs
    raise ValueError(f"unknown variant {variant!r}")


def check_bernoulli_transfer(
    n: int, l: Optional[int] = None, *, variant: str = "first"
) -> bool:
    """Bernoulli-kernel transfer between the symmetric ladders.

    ``variant="first"`` (requires 1 <= l <= n):

        s_{n-l}(1^2, ..., (2n-1)^2)
            = n sum_{s=0}^{n-l} s_{n-l-s}(2^2, ..., (2n-2)^2)
                  (1/(l+s)) B_{2s} C(2(l+s), 2s) (2^{2s} - 2) (-1)^{s+1}

    ``variant="second"`` (requires n >= 1; takes no ``l``):

        ((2n)! / (2^n n!))^2
            = 2n sum_{s=1}^{n} s_{n-s}(2^2, ..., (2n-2)^2)
                  (1/s) B_{2s} (2^{2s} - 1) (-1)^{s+1}

    ``variant="third"`` (requires 0 <= l <= n):

        (2l+1) s_{n-l}(2^2, ..., (2n)^2)
            = (2n+1) sum_{s=0}^{n-l} s_{n-l-s}(1^2, ..., (2n-1)^2)
                  B_{2s} C(2(l+s), 2s) (2^{2s} - 2) (-1)^{s+1}
    """
    if variant == "first":
        if l is None:
            raise ValueError("first variant requires l")
        if n < 1 or not 1 <= l <= n:
            raise ValueError("first variant requires n >= 1 and 1 <= l <= n")
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
    if variant == "second":
        if l is not None:
            raise ValueError("second variant takes no l")
        if n < 1:
            raise ValueError("second variant requires n >= 1")
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
    if variant == "third":
        if l is None:
            raise ValueError("third variant requires l")
        if n < 0 or not 0 <= l <= n:
            raise ValueError("third variant requires n >= 0 and 0 <= l <= n")
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
    raise ValueError(f"unknown variant {variant!r}")


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


def check_weighted_factorial_sum(n: int, variant: str = "euler") -> bool:
    """Weighted symmetric sums that collapse to factorials.

    ``variant="euler"`` (n >= 0):

        sum_{h=0}^{n} s_{n-h}(1^2, ..., (2n-1)^2) (-1)^h E_{2h} = (2n)!

    ``variant="euler_shifted"`` (n >= 0):

        sum_{h=0}^{n} s_{n-h}(1^2, ..., (2n-1)^2) (-1)^{h+1} E_{2h+2} = (2n+1)!

    ``variant="bernoulli"`` (n >= 1):

        sum_{h=1}^{n} s_{n-h}(2^2, ..., (2n-2)^2)
            (-1)^{h+1} (2^{2h} (2^{2h} - 1) / h) B_{2h} = 2 (2n-1)!
    """
    if variant in ("euler", "euler_shifted"):
        if n < 0:
            raise ValueError("requires n >= 0")
        odds = symmetric_ladder(odd_squares(n))
        if variant == "euler":
            lhs = sum(
                (
                    odds[n - h]
                    * (-1) ** h
                    * euler_number(2 * h)
                    for h in range(n + 1)
                ),
                Fraction(0),
            )
            return lhs == factorial(2 * n)
        lhs = sum(
            (
                odds[n - h]
                * (-1) ** (h + 1)
                * euler_number(2 * h + 2)
                for h in range(n + 1)
            ),
            Fraction(0),
        )
        return lhs == factorial(2 * n + 1)
    if variant == "bernoulli":
        if n < 1:
            raise ValueError("bernoulli variant requires n >= 1")
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
    raise ValueError(f"unknown variant {variant!r}")


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
    value = p(GaussianRational.unit_i())
    if k == 0:
        return value == GaussianRational.unit_i()
    if k % 2 == 0:
        return value.is_zero()
    return value.im == 0 and value.re == log_moment_poly_at_i((k + 1) // 2)


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

    where ``B_m(y) = sum_j C(m, j) B_{m-j} y^j`` is the Bernoulli polynomial,
    expanding exactly over Gaussian rationals.  All imaginary parts cancel;
    a violation would indicate a transcription error and raises.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    i = GaussianRational.unit_i()
    i_pow = i ** (k + 1)
    minus_i = -i
    m = k + 1
    coeffs: List[Fraction] = []
    for j in range(m + 1):
        # [x^j] of 2 i^{k+1}/(k+1) * (B_m(-i x) - 2^k B_m(-i x / 2))
        scale = comb(m, j) * bernoulli(m - j) * (1 - Fraction(2) ** (k - j))
        coeff = i_pow * (minus_i**j) * (Fraction(2, m) * scale)
        if j == 0:
            coeff = coeff + i_pow * (Fraction(2**m - 2, m) * bernoulli(m))
        if coeff.im != 0:
            raise ValueError("imaginary part failed to cancel; transcription bug")
        coeffs.append(coeff.re)
    return PolyQ(coeffs)
