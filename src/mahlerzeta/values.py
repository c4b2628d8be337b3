"""Arbitrary-precision numerical values of the constants in closed forms.

Only normal-form arguments are evaluated here, the ones that
:data:`mahlerzeta.combinations.KINDS` keeps: zeta at odd ``s >= 3``,
``L(chi_-4, s)`` at even ``s >= 2`` (both by accelerated alternating
series), ``log 2`` and the ``l3_ii`` constants.  The other zeta and L
arguments are rational multiples of powers of pi, folded exactly in
:mod:`mahlerzeta.combinations`; :func:`combination_value` evaluates any
combination.  Independent series cross-checks of these routes live with the
tests.

All functions take a ``digits`` argument (decimal digits of target accuracy)
and run internally with guard digits; returned values are mpmath numbers.

The alternating single series use the Cohen-Rodriguez Villegas-Zagier
Chebyshev acceleration, whose error decays like (3 + sqrt(8))^(-n) for n
terms.  The double polylogarithms behind the ``l3_ii`` constants are
iterated integrals on the alphabet of fourth roots of unity, evaluated by
the Hoelder convolution of Borwein, Bradley, Broadhurst and Lisonek
("Special values of multiple polylogarithms", Trans. AMS 353, 2001): the
path from 0 to 1 is split at 1/2, and each half is a power series that
converges like 2^-N in its number N of terms.  The term count follows from
the requested digits before any term is summed, and the truncation error it
leaves is a true bound.
"""

from __future__ import annotations

from math import ceil, log2
from typing import Callable, List, Optional

import mpmath as mp

from .combinations import KINDS, ZetaCombination
from .store import ConstantStore

__all__ = [
    "alternating_sum",
    "zeta",
    "dirichlet_l_chi4",
    "multiple_polylog",
    "script_l_double",
    "l3_ii_value",
    "combination_value",
]


def _require_digits(digits: int) -> None:
    if digits < 1:
        raise ValueError("digits must be a positive integer")


def _require_normal(kind: str, arg: int) -> None:
    entry = KINDS[kind]
    if not entry.keeps(arg):
        raise ValueError(f"{kind} is evaluated only at {entry.rule} (got {arg})")


def _as_unit(x) -> complex:
    """Validate that ``x`` is a fourth root of unity; return it as complex."""
    try:
        key = complex(x)
    except (TypeError, ValueError):
        raise ValueError(f"argument must be one of 1, -1, i, -i (got {x!r})")
    for unit in (1 + 0j, -1 + 0j, 1j, -1j):
        if key == unit:
            return unit
    raise ValueError(f"argument must be one of 1, -1, i, -i (got {x!r})")


def alternating_sum(term: Callable[[int], "mp.mpf"], digits: int) -> "mp.mpf":
    """Accelerated value of ``sum_{j>=0} (-1)^j term(j)``.

    ``term`` must be the restriction of a totally monotone function to the
    nonnegative integers (true for all the series used here), which is the
    convergence condition of the Chebyshev acceleration.
    """
    _require_digits(digits)
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


def zeta(s: int, digits: int = 30) -> "mp.mpf":
    """Riemann zeta at an odd integer ``s >= 3``.

    Computed from the accelerated alternating series
    eta(s) = sum (-1)^{j-1}/j^s through zeta = eta/(1 - 2^{1-s}).
    """
    _require_normal("zeta", s)
    _require_digits(digits)
    with mp.workdps(digits + 10):
        eta = alternating_sum(lambda j: mp.mpf(1) / mp.mpf((j + 1) ** s), digits)
        return +(eta / (1 - mp.mpf(2) ** (1 - s)))


def dirichlet_l_chi4(s: int, digits: int = 30) -> "mp.mpf":
    """Dirichlet L-value L(chi_-4, s) = sum_{j>=0} (-1)^j/(2j+1)^s at even ``s >= 2``.

    Computed from the accelerated defining series; ``s = 2`` is Catalan's
    constant.
    """
    _require_normal("lchi4", s)
    _require_digits(digits)
    with mp.workdps(digits + 10):
        return +alternating_sum(lambda j: mp.mpf(1) / mp.mpf((2 * j + 1) ** s), digits)


def _values_at_half(letters: List[complex], terms: int) -> List["mp.mpc"]:
    """``G(letters[k:]; 1/2)`` for ``k = 0 .. len(letters)``, in that order.

    ``G(b_1, ..., b_m; t) = int_0^t G(b_2, ..., b_m; u) du / (u - b_1)`` with
    ``G(; t) = 1``.  The last letter must be nonzero, so every other ``G`` is
    a power series in ``t`` without constant term, and prepending a letter is
    one O(terms) recurrence on its coefficients.  The series are kept in
    ``2t`` (every letter doubled), so a value at ``t = 1/2`` is a coefficient
    sum.  If every nonzero letter has modulus >= 1, the coefficient of
    ``(2t)^k`` has modulus <= 2^-k (by induction over the letters): each
    value has modulus <= 1, and truncation after ``terms`` errs by <= 2^-terms.
    """
    coeffs = [mp.mpf(1)] + [mp.mpf(0)] * terms
    out = [mp.mpf(1)]
    for b in reversed(letters):
        if b == 0:
            coeffs = [mp.mpf(0)] + [coeffs[k] / k for k in range(1, terms + 1)]
        else:
            inv = 1 / (2 * mp.mpc(b))
            if b.imag == 0:
                inv = inv.real
            acc = mp.mpf(0)  # sum_{j<k} c_j (2b)^(j-k) over the inner word
            grown = [mp.mpf(0)]
            for k in range(1, terms + 1):
                acc = (acc + coeffs[k - 1]) * inv
                grown.append(-acc / k)
            coeffs = grown
        out.append(mp.fsum(coeffs))
    return out[::-1]


def multiple_polylog(r: int, s: int, x1, x2, digits: int = 30):
    """Double polylogarithm Li_{r,s}(x1, x2) = sum_{0<k1<k2} x1^{k1} x2^{k2} / (k1^r k2^s).

    Arguments must be fourth roots of unity.  The divergent case ``s = 1``
    with ``x2 = 1`` is rejected.  Returns an mpf when both arguments are
    real, an mpc otherwise.
    """
    if r < 1 or s < 1:
        raise ValueError("polylogarithm indices must be integers >= 1")
    _require_digits(digits)
    u1 = _as_unit(x1)
    u2 = _as_unit(x2)
    if s == 1 and u2 == 1:
        raise ValueError("Li_{r,1}(x1, 1) diverges")
    # Li_{r,s}(x1, x2) = G(0^(s-1), 1/x2, 0^(r-1), 1/(x1 x2); 1); the inverse
    # of a unit is its conjugate, so every letter is exact.
    word = [0j] * (s - 1) + [u2.conjugate()] + [0j] * (r - 1) + [(u1 * u2).conjugate()]
    n = len(word)
    # Hoelder convolution at p = 2, splitting the path at t = 1/2:
    #   G(a_1..a_n; 1) = sum_j (-1)^j G(1-a_j, ..., 1-a_1; 1/2) G(a_{j+1}..a_n; 1/2).
    # Every nonzero letter on both sides has modulus >= 1, so each of the
    # n + 1 products errs by <= 2 * 2^-terms and the sum by <= 2n * 2^-terms.
    terms = ceil((digits + 2) * log2(10) + log2(2 * n))
    with mp.workdps(digits + 15):
        inner = _values_at_half(word, terms)
        outer = _values_at_half([1 - a for a in reversed(word)], terms)
        total = mp.fsum((-1) ** j * outer[n - j] * inner[j] for j in range(n + 1))
        if u1.imag == 0 and u2.imag == 0:
            return +total.real
        return +total


def script_l_double(r: int, s: int, alpha, beta, digits: int = 30):
    """The four-term signed combination

        scriptL_{r,s}(alpha, beta) = 2 ( Li_{r,s}(alpha, beta)
                                       - Li_{r,s}(-alpha, beta)
                                       + Li_{r,s}(alpha, -beta)
                                       - Li_{r,s}(-alpha, -beta) ).

    Every constituent must converge individually (so ``s = 1`` requires
    ``beta != +-1``).
    """
    u1 = _as_unit(alpha)
    u2 = _as_unit(beta)
    with mp.workdps(digits + 10):
        total = (
            multiple_polylog(r, s, u1, u2, digits)
            - multiple_polylog(r, s, -u1, u2, digits)
            + multiple_polylog(r, s, u1, -u2, digits)
            - multiple_polylog(r, s, -u1, -u2, digits)
        )
        return +(2 * total)


def l3_ii_value(b: int, digits: int = 30) -> "mp.mpf":
    """The real constant i * scriptL_{3,b}(i, i) for odd ``b >= 1``.

    The imaginary part of i * scriptL_{3,b}(i, i) cancels identically; a
    residual beyond series tolerance indicates an evaluation bug and raises.
    """
    if b < 1 or b % 2 == 0:
        raise ValueError(f"requires an odd index >= 1 (got {b})")
    _require_digits(digits)
    with mp.workdps(digits + 10):
        value = mp.mpc(0, 1) * script_l_double(3, b, 1j, 1j, digits + 2)
        if abs(value.imag) > mp.mpf(10) ** (-(digits - 3)):
            raise RuntimeError(
                "imaginary part failed to cancel in i*scriptL_{3,%d}(i,i)" % b
            )
        return +value.real


def combination_value(
    combo: ZetaCombination, digits: int = 30, store: Optional[ConstantStore] = None
) -> "mp.mpf":
    """Numerical value of a symbolic combination at ``digits`` digits.

    If ``store`` is given, base constants are looked up there first (a hit
    requires at least the requested precision) and newly computed ones are
    written back immediately.
    """
    _require_digits(digits)
    with mp.workdps(digits + 10):
        total = mp.mpf(0)
        for elem, coeff in combo.terms():
            value = _base_constant(elem.kind, elem.arg, digits, store)
            term = mp.mpf(coeff.numerator) / coeff.denominator
            if elem.pi_power:
                term *= mp.pi**elem.pi_power
            total += term * value
        return +total


def _base_constant(
    kind: str, arg: int, digits: int, store: Optional[ConstantStore]
) -> "mp.mpf":
    if kind == "one":
        return mp.mpf(1)
    if store is not None:
        cached = store.get(kind, arg, digits)
        if cached is not None:
            return mp.mpf(cached)
    # Built per call, so that a wrapper installed on a module attribute (a
    # tracer, a test's monkeypatch) sees every evaluation.
    evaluate = {
        "log2": lambda arg, digits: +mp.log(2),
        "zeta": zeta,
        "lchi4": dirichlet_l_chi4,
        "l3_ii": l3_ii_value,
    }[kind]
    value = evaluate(arg, digits + 5)
    if store is not None:
        store.put(kind, arg, digits, mp.nstr(value, digits + 5))
        store.save()
    return value
