"""Exact reduction of double polylogarithms and log-moment integrals.

Every function here returns a :class:`~mahlerzeta.combinations.ZetaCombination`
— an exact symbolic value — rather than a float.  The numerical series
evaluators in :mod:`mahlerzeta.values` serve as independent cross-checks.

The centrepiece is :func:`double_polylog_reduce`, which rewrites
``Li_{r,s}(rho, sigma)`` with ``rho, sigma = +-1`` and odd weight ``r + s``
as a combination of single zeta values.  A structural fact makes the result
representable in our algebra: every product that appears pairs an
*even*-argument zeta (a rational multiple of a pi power) with an odd one, so
a product of two genuinely transcendental basis constants never arises.  The
combination algebra raises on such a product, so any transcription error of
that kind fails loudly instead of silently producing a wrong value.

Each log-moment integral has its own closed-form function, such as
:func:`zeta_log_moment_closed` (``x^2 - 1``) and
:func:`lchi4_log_moment_closed` (``x^2 + 1``), which the quadrature
checks of :mod:`mahlerzeta.oracle` import when they run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from ..combinations import ZetaCombination
from ..exact import bernoulli, euler_number

__all__ = [
    "double_polylog_reduce",
    "li_one_leading_alternating",
    "li_one_second_alternating",
    "alternating_double_zeta_difference",
    "log1p_moment_closed",
    "script_l_double_even_closed",
    "log_square_moment_closed",
    "arctangent_moment_closed",
    "zeta_log_moment_closed",
    "lchi4_log_moment_closed",
]


def _li_pm_one(m: int, base: int) -> ZetaCombination:
    """Li_m(+-1) as an exact combination (Li_1(-1) = -log 2; Li_1(1) diverges)."""
    if base == 1:
        if m < 2:
            raise ValueError("Li_1(1) diverges")
        return ZetaCombination.zeta(m)
    if base == -1:
        if m == 1:
            return ZetaCombination.log2(coeff=-1)
        return ZetaCombination.zeta(m, coeff=Fraction(1 - 2 ** (m - 1), 2 ** (m - 1)))
    raise ValueError(f"base must be +-1 (got {base})")


def double_polylog_reduce(r: int, s: int, rho: int, sigma: int) -> ZetaCombination:
    """Reduce ``Li_{r,s}(rho, sigma)`` (odd weight, arguments +-1) exactly.

    Implements the odd-weight reduction

        Li_{r,s}(rho, sigma)
          = 1/2 ( -Li_{r+s}(rho sigma) + (1 + (-1)^s) Li_r(rho) Li_s(sigma) )
          + ((-1)^s / 2) ( C(r+s-1, r-1) Li_{r+s}(rho)
                          + C(r+s-1, s-1) Li_{r+s}(sigma) )
          - sum_{0 < k < (r+s)/2} (-1)^s Li_{2k}(rho sigma)
                ( C(r+s-2k-1, r-1) Li_{r+s-2k}(rho)
                + C(r+s-2k-1, s-1) Li_{r+s-2k}(sigma) )

    valid for ``r >= 2``, ``s >= 1``, ``r + s`` odd, excluding the divergent
    case ``s = 1, sigma = 1``.  (For an inner index ``r = 1`` see
    :func:`li_one_leading_alternating` / :func:`li_one_second_alternating`.)
    """
    if rho not in (1, -1) or sigma not in (1, -1):
        raise ValueError("arguments must be +-1")
    if r < 2:
        raise ValueError("requires r >= 2")
    if s < 1:
        raise ValueError("requires s >= 1")
    if (r + s) % 2 == 0:
        raise ValueError("requires odd weight r + s")
    if s == 1 and sigma == 1:
        raise ValueError("Li_{r,1}(rho, 1) diverges")
    w = r + s
    sign_s = (-1) ** s
    total = _li_pm_one(w, rho * sigma) * Fraction(-1, 2)
    if 1 + sign_s != 0:  # coefficient (1 + (-1)^s)/2 is 1 for even s, else 0
        total = total + _li_pm_one(r, rho) * _li_pm_one(s, sigma)
    total = total + _li_pm_one(w, rho) * Fraction(sign_s * comb(w - 1, r - 1), 2)
    total = total + _li_pm_one(w, sigma) * Fraction(sign_s * comb(w - 1, s - 1), 2)
    for k in range(1, (w - 1) // 2 + 1):
        inner = ZetaCombination.zero()
        c_rho = comb(w - 2 * k - 1, r - 1)
        c_sigma = comb(w - 2 * k - 1, s - 1)
        if c_rho:
            inner = inner + _li_pm_one(w - 2 * k, rho) * c_rho
        if c_sigma:
            inner = inner + _li_pm_one(w - 2 * k, sigma) * c_sigma
        if not inner.is_zero():
            total = total - (_li_pm_one(2 * k, rho * sigma) * sign_s) * inner
    return total


def li_one_leading_alternating(s: int) -> ZetaCombination:
    """``Li_{1,s}(-1, 1)`` for even ``s >= 2``, as an exact combination:

        Li_{1,s}(-1, 1) = -log2 zeta(s) + (s/2) zeta(s+1)
                          - sum_{k=1}^{s/2} eta(2k) eta(s+1-2k),

    where eta(m) = -Li_m(-1) is the alternating zeta value.
    """
    if s < 2 or s % 2 == 1:
        raise ValueError(f"requires even s >= 2 (got {s})")
    total = ZetaCombination.log2(coeff=-1) * ZetaCombination.zeta(s)
    total = total + ZetaCombination.zeta(s + 1, coeff=Fraction(s, 2))
    for k in range(1, s // 2 + 1):
        total = total - (-_li_pm_one(2 * k, -1)) * (-_li_pm_one(s + 1 - 2 * k, -1))
    return total


def li_one_second_alternating(s: int) -> ZetaCombination:
    """``Li_{1,s}(1, -1)`` for even ``s >= 2``, as an exact combination:

        Li_{1,s}(1, -1) = (1/2) zeta(s+1) + ((1-s)/2) eta(s+1)
                          + sum_{k=1}^{s/2-1} eta(2k) zeta(s+1-2k),

    where eta(m) = -Li_m(-1) is the alternating zeta value.
    """
    if s < 2 or s % 2 == 1:
        raise ValueError(f"requires even s >= 2 (got {s})")
    total = ZetaCombination.zeta(s + 1, coeff=Fraction(1, 2))
    total = total + (-_li_pm_one(s + 1, -1)) * Fraction(1 - s, 2)
    for k in range(1, s // 2):
        total = total + (-_li_pm_one(2 * k, -1)) * ZetaCombination.zeta(s + 1 - 2 * k)
    return total


def alternating_double_zeta_difference(h: int) -> ZetaCombination:
    """The difference ``D(h) = Li_{1,2h}(-1, 1) - Li_{1,2h}(1, -1)`` for h >= 1:

        D(h) = (2h-1) (2^{2h+1}-1)/2^{2h+1} zeta(2h+1)
               - log2 (2^{2h}-1)/2^{2h-1} zeta(2h)
               - sum_{k=1}^{h-1} (2^{2h+1-2k}-1)(2^{2k-1}-1)/2^{2h-1}
                     zeta(2k) zeta(2h+1-2k)
    """
    if h < 1:
        raise ValueError("requires h >= 1")
    total = ZetaCombination.zeta(
        2 * h + 1, coeff=Fraction((2 * h - 1) * (2 ** (2 * h + 1) - 1), 2 ** (2 * h + 1))
    )
    total = total - ZetaCombination.log2(
        coeff=Fraction(2 ** (2 * h) - 1, 2 ** (2 * h - 1))
    ) * ZetaCombination.zeta(2 * h)
    for k in range(1, h):
        c = Fraction(
            (2 ** (2 * h + 1 - 2 * k) - 1) * (2 ** (2 * k - 1) - 1), 2 ** (2 * h - 1)
        )
        total = total - (ZetaCombination.zeta(2 * k, coeff=c)) * ZetaCombination.zeta(
            2 * h + 1 - 2 * k
        )
    return total


def log1p_moment_closed(h: int) -> ZetaCombination:
    """Closed form of ``integral_0^1 log(1+x) log^{2h-1}(x) / (x^2-1) dx``.

    Equals ``-((2h-1)!/2) D(h)`` with
    :func:`alternating_double_zeta_difference` providing ``D``.
    """
    if h < 1:
        raise ValueError("requires h >= 1")
    return alternating_double_zeta_difference(h) * Fraction(-factorial(2 * h - 1), 2)


def script_l_double_even_closed(h: int) -> ZetaCombination:
    """Closed form of ``scriptL_{3,2h}(1, 1)`` for ``h >= 1``.

    The weight-five case is pinned separately (the general expression is
    valid only from ``h = 2`` on):

        scriptL_{3,2}(1,1) = 93/4 zeta(5) - 7/4 pi^2 zeta(3)

    and for ``h >= 2``:

        scriptL_{3,2h}(1,1)
          = (2^{2h+3}-1)/2^{2h+1} (h+1)(2h+1) zeta(2h+3)
            - (2^{2h+1}-1)/2^{2h} h (2h+5) zeta(2) zeta(2h+1)
            - sum_{k=2}^{h-1} C(2h-2k+2, 2) (2^{2h-2k+3}-1)/2^{2h}
                  zeta(2k) zeta(2h-2k+3).
    """
    if h < 1:
        raise ValueError("requires h >= 1")
    if h == 1:
        return ZetaCombination.zeta(5, coeff=Fraction(93, 4)) + ZetaCombination.zeta(
            3, pi_power=2, coeff=Fraction(-7, 4)
        )
    total = ZetaCombination.zeta(
        2 * h + 3,
        coeff=Fraction((2 ** (2 * h + 3) - 1) * (h + 1) * (2 * h + 1), 2 ** (2 * h + 1)),
    )
    total = total - ZetaCombination.zeta(
        2, coeff=Fraction((2 ** (2 * h + 1) - 1) * h * (2 * h + 5), 2 ** (2 * h))
    ) * ZetaCombination.zeta(2 * h + 1)
    for k in range(2, h):
        c = Fraction(comb(2 * h - 2 * k + 2, 2) * (2 ** (2 * h - 2 * k + 3) - 1), 2 ** (2 * h))
        total = total - ZetaCombination.zeta(2 * k, coeff=c) * ZetaCombination.zeta(
            2 * h - 2 * k + 3
        )
    return total


def log_square_moment_closed(h: int) -> ZetaCombination:
    """Closed form of ``integral_0^inf log(1+x^2) log^{2h}(x) / (x^2+1) dx``:

        (-1)^h 2 E_{2h} (pi/2)^{2h+1} log 2
          + 2 sum_{l=1}^{h} (2h)!/(2h-2l)! (1 - 2^{-(2l+1)})
                (-1)^{h-l} E_{2h-2l} (pi/2)^{2h-2l+1} zeta(2l+1)

    for ``h >= 0`` (the h = 0 case is pi log 2).
    """
    if h < 0:
        raise ValueError("requires h >= 0")
    total = ZetaCombination.log2(
        pi_power=2 * h + 1,
        coeff=Fraction((-1) ** h * 2 * euler_number(2 * h), 2 ** (2 * h + 1)),
    )
    for l in range(1, h + 1):
        c = (
            2
            * Fraction(factorial(2 * h), factorial(2 * h - 2 * l))
            * (1 - Fraction(1, 2 ** (2 * l + 1)))
            * (-1) ** (h - l)
            * euler_number(2 * h - 2 * l)
            * Fraction(1, 2 ** (2 * h - 2 * l + 1))
        )
        total = total + ZetaCombination.zeta(
            2 * l + 1, pi_power=2 * h - 2 * l + 1, coeff=c
        )
    return total


def arctangent_moment_closed(h: int) -> ZetaCombination:
    """Closed form of ``integral_0^inf Ti2(x) log^{2h}(x) / (x^2+1) dx``, where
    ``Ti2`` is the inverse-tangent integral:

        sum_{l=0}^{h} B_{2l} (2h)!/(2l)! (2^{2l-1}-1) (-1)^{l+1} pi^{2l}
            (h-l+1) (2^{2h+3-2l}-1)/2^{2h+1} zeta(2h+3-2l)

    for ``h >= 0`` (the h = 0 case is (7/4) zeta(3)).
    """
    if h < 0:
        raise ValueError("requires h >= 0")
    total = ZetaCombination.zero()
    for l in range(h + 1):
        c = (
            bernoulli(2 * l)
            * Fraction(factorial(2 * h), factorial(2 * l))
            * (Fraction(2) ** (2 * l - 1) - 1)
            * (-1) ** (l + 1)
            * (h - l + 1)
            * Fraction(2 ** (2 * h + 3 - 2 * l) - 1, 2 ** (2 * h + 1))
        )
        total = total + ZetaCombination.zeta(2 * h + 3 - 2 * l, pi_power=2 * l, coeff=c)
    return total


def zeta_log_moment_closed(j: int) -> ZetaCombination:
    """Closed form of the ``x^2 - 1`` log moment, for ``j >= 1`` (j = 0 diverges):

        integral_0^1 log^j x / (x^2 - 1) dx
            = (-1)^{j+1} j! (1 - 2^{-(j+1)}) zeta(j+1)
    """
    if j < 1:
        raise ValueError("integral diverges for j = 0 with the x^2-1 kernel")
    c = Fraction((-1) ** (j + 1) * factorial(j)) * (1 - Fraction(1, 2 ** (j + 1)))
    return ZetaCombination.zeta(j + 1, coeff=c)


def lchi4_log_moment_closed(j: int) -> ZetaCombination:
    """Closed form ``integral_0^1 log^j x / (x^2 + 1) dx = (-1)^j j! L(chi_-4, j+1)``, j >= 0."""
    if j < 0:
        raise ValueError("requires j >= 0")
    return ZetaCombination.lchi4(j + 1, coeff=Fraction((-1) ** j * factorial(j)))
