"""Polylogarithm routes used only by the tests.

* :func:`li_single` and :func:`script_l_single` assemble ``Li_s`` and
  ``scriptL_r`` at fourth roots of unity from exact combinations, evaluated
  by :func:`mahlerzeta.values.combination_value`.  They are what the
  stuffle and ``scriptL`` tests compare against.

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
  ``digits <= 12``, where it starts from the narrow stride.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

import mpmath as mp

from mahlerzeta.combinations import ZetaCombination
from mahlerzeta.values import _as_unit, alternating_sum, combination_value


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
    (not ``s = 1`` with ``x2 = 1``).  Raises ``RuntimeError`` when eight
    doublings of the stride do not meet the tolerance.
    """
    u1 = _as_unit(x1)
    u2 = _as_unit(x2)
    if s == 1 and u2 == 1:
        raise ValueError("Li_{r,1}(x1, 1) diverges")
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
