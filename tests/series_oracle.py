"""Polylogarithm and constant routes used only by the tests.

* :func:`li_single` and :func:`script_l_single` assemble ``Li_s`` and
  ``scriptL_r`` at fourth roots of unity from exact combinations, evaluated
  by :func:`mahlerzeta.values.combination_value`.  They are what the
  stuffle and ``scriptL`` tests compare against.
* :func:`script_l_double` assembles the signed combination
  ``scriptL_{r,s}`` from :func:`mahlerzeta.values.multiple_polylog`; it is
  the reference that the ``l3_ii`` fold and the closed forms of
  :mod:`mahlerzeta.check.reduce` are held to.
* :func:`alternating_sum` is the Chebyshev acceleration in mpmath floating
  point, the base constants' former route, and :func:`mp_base_constant`
  the strings that route stored.  The integer fixed-point engine of
  :mod:`mahlerzeta.values` must reproduce them byte for byte.

The series routes below share no algorithm with :mod:`mahlerzeta.values`,
which makes them independent cross-checks of it:

* :func:`li_single_series` sums the defining series of ``Li_s`` at a fourth
  root of unity, rearranged into alternating series and accelerated, with
  no Bernoulli/Euler folding anywhere;
* :func:`multiple_polylog_series` sums the double series of ``Li_{r,s}``
  directly, in fixed-point Gaussian integers.  It takes outer partial sums
  at equally spaced checkpoints (a
  multiple of 4 apart, so that fourth-root-of-unity oscillation is sampled
  coherently) and extrapolates the checkpoint sequence to its limit with
  Neville's scheme in the reciprocal checkpoint index; the stride between
  checkpoints doubles until the extrapolation stabilizes below the requested
  tolerance.  Its error estimate is a heuristic, and it is fast only at
  ``digits <= 12``, where it starts from the narrow stride.  With ``r = 1``
  and ``x1 = 1`` the inner sum grows like ``log k``, which extrapolation in
  ``1/k`` does not model, so it refuses those cases above 4 digits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

import mpmath as mp

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.values import _as_unit, _l3_ii_fold, combination_value, multiple_polylog


def alternating_sum(term, digits: int) -> "mp.mpf":
    """Accelerated value of ``sum_{j>=0} (-1)^j term(j)`` for mpmath terms.

    The Cohen-Rodriguez Villegas-Zagier Chebyshev acceleration summed in
    ``mpf`` at ``digits + 10`` digits, with the term count of
    :func:`mahlerzeta.values.alternating_sum`.  ``term`` must be the
    restriction of a totally monotone function to the nonnegative integers.
    """
    if digits < 1:
        raise ValueError("digits must be a positive integer")
    with mp.workdps(digits + 10):
        n = int(1.31 * (digits + 10)) + 8
        d = ((3 + mp.sqrt(8)) ** n + (3 - mp.sqrt(8)) ** n) / 2
        b = mp.mpf(-1)
        c = -d
        s = mp.mpf(0)
        for k in range(n):
            c = b - c
            s += c * term(k)
            b = (k + n) * (k - n) * b / ((k + mp.mpf(1) / 2) * (k + 1))
        return +(s / d)


def _mpf_base_constant(kind: str, arg: int, digits: int) -> "mp.mpf":
    """A base constant at ``digits`` digits by the mpmath route; ``l3_ii`` through its fold."""
    with mp.workdps(digits + 10):
        if kind == "log2":
            return +mp.log(2)
        if kind == "zeta":
            eta = alternating_sum(lambda j: mp.mpf(1) / mp.mpf((j + 1) ** arg), digits)
            return +(eta / (1 - mp.mpf(2) ** (1 - arg)))
        if kind == "lchi4":
            return +alternating_sum(lambda j: mp.mpf(1) / mp.mpf((2 * j + 1) ** arg), digits)
    # the fold cancels down to about 8 * 2^-b against terms of 2 (b+1)(b+2) beta(b+3)
    inner = digits + len(str(2 * (arg + 1) * (arg + 2) << arg))
    terms = [
        (coeff, elem.pi_power, mp_base_constant(elem.kind, elem.arg, inner + 5))
        for elem, coeff in _l3_ii_fold(arg).terms()
    ]
    with mp.workdps(inner + 10):
        return mp.fsum(
            mp.mpf(coeff.numerator) / coeff.denominator * mp.pi**pi_power * mp.mpf(text)
            for coeff, pi_power, text in terms
        )


@lru_cache(maxsize=None)
def mp_base_constant(kind: str, arg: int, digits: int) -> str:
    """A base constant's ``digits``-digit string as the mpmath route prints it.

    This is how the constant store's strings were made before the constants
    were summed in integer fixed point: the mpmath series above (``log 2``
    from ``mpmath.log``), each ``l3_ii`` fold summed from such strings with
    the fold's guard digits, and ``mpmath.nstr``.  Strings are cached, so the
    folds share their ``L(chi_-4, s)`` values.
    """
    return mp.nstr(_mpf_base_constant(kind, arg, digits), digits)


def li_single(s: int, base, digits: int = 30):
    """Polylogarithm Li_s at a fourth root of unity, assembled exactly.

    Uses Li_s(1) = zeta(s), Li_s(-1) = -(1 - 2^{1-s}) zeta(s) (with the
    s = 1 limit -log 2) and Li_s(+-i) = 2^{-s} Li_s(-1) +- i L(chi_-4, s).
    Each part is a combination, so even zeta and odd L arguments fold
    exactly.  ``Li_1(1)`` diverges.  Returns an mpf for real base, an mpc
    for imaginary base.
    """
    if s < 1:
        raise ValueError("polylogarithm index must be an integer >= 1")
    u = _as_unit(base)
    if u == 1:
        if s == 1:
            raise ValueError("Li_1(1) diverges")
        return combination_value(ZetaCombination.zeta(s), digits)
    if s == 1:
        at_minus_one = ZetaCombination.log2(coeff=-1)
    else:
        at_minus_one = ZetaCombination.zeta(s, coeff=Fraction(1 - 2 ** (s - 1), 2 ** (s - 1)))
    if u == -1:
        return combination_value(at_minus_one, digits)
    sign = 1 if u == 1j else -1
    return mp.mpc(
        combination_value(at_minus_one * Fraction(1, 2**s), digits),
        combination_value(ZetaCombination.lchi4(s, coeff=sign), digits),
    )


def script_l_single(r: int, alpha, digits: int = 30):
    """The signed combination scriptL_r(alpha) = Li_r(alpha) - Li_r(-alpha)."""
    u = _as_unit(alpha)
    with mp.workdps(digits + 10):
        return +(li_single(r, u, digits) - li_single(r, -u, digits))


def script_l_double(r: int, s: int, alpha, beta, digits: int = 30):
    """scriptL_{r,s}(alpha, beta) = 2 sum_{e, f = +-1} e Li_{r,s}(e alpha, f beta)."""
    with mp.workdps(digits + 10):
        return 2 * mp.fsum(
            e * multiple_polylog(r, s, e * alpha, f * beta, digits) for e in (1, -1) for f in (1, -1)
        )


def li_single_series(s: int, base, digits: int = 30):
    """Polylogarithm Li_s at a fourth root of unity, from the series only."""
    if s < 1:
        raise ValueError("polylogarithm index must be an integer >= 1")
    u = _as_unit(base)
    with mp.workdps(digits + 10):
        if u == 1:
            if s == 1:
                raise ValueError("Li_1(1) diverges")
            eta = alternating_sum(lambda j: mp.mpf(1) / mp.mpf((j + 1) ** s), digits)
            return +(eta / (1 - mp.mpf(2) ** (1 - s)))
        if u == -1:
            return +(
                -alternating_sum(lambda j: mp.mpf(1) / mp.mpf((j + 1) ** s), digits)
            )
        # Even-index terms carry (+-i)^{2m} = (-1)^m; odd-index ones the i part.
        re = -alternating_sum(lambda j: mp.mpf(1) / mp.mpf((2 * (j + 1)) ** s), digits)
        im = alternating_sum(lambda j: mp.mpf(1) / mp.mpf((2 * j + 1) ** s), digits)
        sign = 1 if u == 1j else -1
        return +mp.mpc(re, sign * im)


# Exponent e of the fourth root of unity i^e.
_QUARTER_TURNS = {1: 0, 1j: 1, -1: 2, -1j: 3}


def _turn(re: int, im: int, quarter_turns: int) -> Tuple[int, int]:
    """``(re + i im) * i^quarter_turns``, exactly."""
    for _ in range(quarter_turns % 4):
        re, im = -im, re
    return re, im


def _checkpoint_partial_sums(
    r: int, s: int, u1: complex, u2: complex, stride: int, grid: int
) -> List["mp.mpc"]:
    """Outer partial sums of the double series at ``grid`` checkpoints.

    Checkpoints sit at multiples of ``4 * stride`` terms so that powers of
    fourth roots of unity are sampled at a fixed phase.  Those powers are
    exact quarter turns, so the sums run in fixed-point Gaussian integers
    with 32 guard bits beyond the working precision.  Each term is truncated
    once, so fewer than 2^22 terms stay within 2^-10 of the working precision.
    """
    e1 = _QUARTER_TURNS[u1]
    e2 = _QUARTER_TURNS[u2]
    bits = mp.mp.prec + 32
    one = 1 << bits
    prefix = (0, 0)  # sum_{k1 <= k} x1^{k1}/k1^r
    total_re = total_im = 0
    out: List[mp.mpc] = []
    k = 0
    for _ in range(grid):
        for _ in range(4 * stride):
            k += 1
            re, im = _turn(*prefix, e2 * k)
            scale = k**s
            total_re += re // scale
            total_im += im // scale
            step_re, step_im = _turn(one // k**r, 0, e1 * k)
            prefix = (prefix[0] + step_re, prefix[1] + step_im)
        out.append(mp.mpc(mp.ldexp(total_re, -bits), mp.ldexp(total_im, -bits)))
    return out


def _extrapolate_to_zero(values: List["mp.mpc"]) -> Tuple["mp.mpc", "mp.mpf"]:
    """Neville extrapolation of checkpoint values to infinite index.

    Nodes are the reciprocals 1/m of the checkpoint numbers; the returned
    error estimate compares the full-order extrapolant against both
    one-point-fewer extrapolants.
    """
    n = len(values)
    xs = [mp.mpf(1) / (m + 1) for m in range(n)]
    tab = list(values)
    penultimate: Optional[List[mp.mpc]] = None
    for lev in range(1, n):
        tab = [
            (tab[i + 1] * xs[i] - tab[i] * xs[i + lev]) / (xs[i] - xs[i + lev])
            for i in range(n - lev)
        ]
        if lev == n - 2:
            penultimate = list(tab)
    est = tab[0]
    if penultimate is None:
        err = abs(est - values[-1])
    else:
        err = max(abs(est - penultimate[0]), abs(est - penultimate[1]))
    return est, err


def multiple_polylog_series(r: int, s: int, x1, x2, digits: int = 12):
    """Li_{r,s}(x1, x2) = sum_{0<k1<k2} x1^{k1} x2^{k2} / (k1^r k2^s), summed directly.

    Arguments must be fourth roots of unity, and the series must converge
    (not ``s = 1`` with ``x2 = 1``).  ``r = 1`` with ``x1 = 1`` is summed to
    at most 4 digits: the ``log k`` growth of the inner sum leaves the
    extrapolation up to 5e-6 off (against its own 1e-6 target), and above 4
    digits it would double the stride eight times before giving up, so those
    requests raise ``ValueError`` at once.  Raises ``RuntimeError`` when
    eight doublings of the stride do not meet the tolerance.
    """
    u1 = _as_unit(x1)
    u2 = _as_unit(x2)
    if s == 1 and u2 == 1:
        raise ValueError("Li_{r,1}(x1, 1) diverges")
    if r == 1 and u1 == 1 and digits > 4:
        raise ValueError("Li_{1,s}(1, x2) is summed to at most 4 digits (got %d)" % digits)
    with mp.workdps(digits + 15):
        target = mp.mpf(10) ** (-(digits + 2))
        stride = 64 if digits <= 12 else 400
        for _ in range(8):
            sums = _checkpoint_partial_sums(r, s, u1, u2, stride, 12)
            est, err = _extrapolate_to_zero(sums)
            if err <= target:
                if u1.imag == 0 and u2.imag == 0:
                    return +est.real
                return +est
            stride *= 2
        raise RuntimeError(
            f"double-series extrapolation failed to reach {digits} digits "
            f"for Li_{{{r},{s}}}({x1}, {x2})"
        )
