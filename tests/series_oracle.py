"""Direct-summation oracle for the polylogarithms, used only by the tests.

These routes share no algorithm with :mod:`mahlerzeta.values`, which makes
them independent cross-checks of it:

* :func:`li_single_series` sums the defining series of ``Li_s`` at a fourth
  root of unity, rearranged into alternating series and accelerated, with
  no Bernoulli/Euler folding anywhere;
* :func:`multiple_polylog_series` sums the double series of ``Li_{r,s}``
  directly.  It takes outer partial sums at equally spaced checkpoints (a
  multiple of 4 apart, so that fourth-root-of-unity oscillation is sampled
  coherently) and extrapolates the checkpoint sequence to its limit with
  Neville's scheme in the reciprocal checkpoint index; the stride between
  checkpoints doubles until the extrapolation stabilizes below the requested
  tolerance.  Its error estimate is a heuristic, and it is fast only at
  ``digits <= 12``, where it starts from the narrow stride.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import mpmath as mp

from mahlerzeta.values import _as_unit, alternating_sum


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


def _checkpoint_partial_sums(
    r: int, s: int, u1: complex, u2: complex, stride: int, grid: int
) -> List["mp.mpc"]:
    """Outer partial sums of the double series at ``grid`` checkpoints.

    Checkpoints sit at multiples of ``4 * stride`` terms so that powers of
    fourth roots of unity are sampled at a fixed phase.
    """
    x1 = mp.mpc(u1)
    x2 = mp.mpc(u2)
    step = 4 * stride
    prefix = mp.mpc(0)  # sum_{k1 <= k} x1^{k1}/k1^r
    total = mp.mpc(0)
    p1 = mp.mpc(1)
    p2 = mp.mpc(1)
    out: List[mp.mpc] = []
    k = 0
    for _ in range(grid):
        for _ in range(step):
            k += 1
            p1 *= x1
            p2 *= x2
            total += p2 / mp.mpf(k**s) * prefix
            prefix += p1 / mp.mpf(k**r)
        out.append(total)
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
