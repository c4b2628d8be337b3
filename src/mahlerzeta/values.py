"""Arbitrary-precision numerical values of the constants in closed forms.

Only normal-form arguments are evaluated here, the ones that
:data:`mahlerzeta.combinations.KINDS` keeps: zeta at odd ``s >= 3``,
``L(chi_-4, s)`` at even ``s >= 2`` (both by accelerated alternating
series), ``log 2`` and the ``l3_ii`` constants.  The other zeta and L
arguments are rational multiples of powers of pi, folded exactly in
:mod:`mahlerzeta.combinations`; :func:`combination_value` evaluates any
combination, and :func:`l3_ii_value` each ``l3_ii`` constant through its
fold to ``L(chi_-4, s)`` values.  Independent series cross-checks of these
routes live with the tests.

All functions take a ``digits`` argument (decimal digits of target accuracy)
and run internally with guard digits; returned values are mpmath numbers.
A combination is summed once, in the standard library's :mod:`decimal`,
from the decimal strings of its base constants and a pi computed with
integers.  mpmath is imported only where a base constant is computed, so an
evaluation whose constants all come from a :class:`ConstantStore` runs
without it (``eval`` formats that decimal sum itself).

The alternating single series use the Cohen-Rodriguez Villegas-Zagier
Chebyshev acceleration, whose error decays like (3 + sqrt(8))^(-n) for n
terms.  :func:`multiple_polylog` (the Hoelder convolution of Borwein,
Bradley, Broadhurst and Lisonek, Trans. AMS 353, 2001) evaluates no closed
form: it is the reference that the tests and ``verify`` hold the fold to.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import ceil, log2
from typing import TYPE_CHECKING, Callable, List, Optional

from .combinations import KINDS, ZetaCombination
from .store import ConstantStore

if TYPE_CHECKING:
    import mpmath as mp

__all__ = [
    "alternating_sum",
    "zeta",
    "dirichlet_l_chi4",
    "multiple_polylog",
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
    import mpmath as mp

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
    import mpmath as mp

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
    import mpmath as mp

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
    import mpmath as mp

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
    import mpmath as mp

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


def _l3_ii_fold(b: int) -> ZetaCombination:
    """``l3_ii(b)`` for odd ``b >= 1`` in values of ``beta = L(chi_-4, .)``:

        2 (b+1)(b+2) beta(b+3) - b pi^2 beta(b+1)
        - sum_{j=1}^{(b-1)/2} 4^(1-j) (b-2j+2)(b-2j+1) zeta(2j) beta(b+3-2j).

    The reduction exists by the parity theorem (E. Panzer, J. Number Theory
    172, 2017); the formula matches the PSLQ relations for ``b <= 9``.
    """
    fold = ZetaCombination.lchi4(b + 3, coeff=2 * (b + 1) * (b + 2))
    fold -= ZetaCombination.lchi4(b + 1, pi_power=2, coeff=b)
    for j in range(1, (b - 1) // 2 + 1):
        weight = Fraction((b - 2 * j + 2) * (b - 2 * j + 1), 4 ** (j - 1))
        fold -= ZetaCombination.zeta(2 * j) * ZetaCombination.lchi4(b + 3 - 2 * j, coeff=weight)
    return fold


def l3_ii_value(b: int, digits: int = 30) -> "mp.mpf":
    """The real constant i * scriptL_{3,b}(i, i) for odd ``b >= 1``, from its fold.

    The fold's terms reach ``2 (b+1)(b+2) beta(b+3)`` while the value is
    about ``8 * 2^-b``: the fold is evaluated with that ratio's digits added.
    """
    _require_normal("l3_ii", b)
    _require_digits(digits)
    return combination_value(_l3_ii_fold(b), digits + len(str(2 * (b + 1) * (b + 2) << b)))


def combination_value(
    combo: ZetaCombination, digits: int = 30, store: Optional[ConstantStore] = None
) -> "mp.mpf":
    """Numerical value of a symbolic combination at ``digits`` digits.

    If ``store`` is given, base constants are looked up there first (a hit
    requires at least the requested precision); the ones computed instead
    are written back, in one save after the evaluation, also when a later
    constant fails.  Constants at ``digits + 5`` digits suffice for every
    closed form: each coefficient and each basis constant is positive, so
    the sum never cancels; only the ``l3_ii`` fold cancels, and
    :func:`l3_ii_value` adds its own guard digits for it.
    """
    import mpmath as mp

    # through the exact integer ratio: mpmath would read the decimal's string
    # with int(str), which refuses more than 4300 digits
    numerator, denominator = _combination_decimal(combo, digits, store).as_integer_ratio()
    with mp.workdps(digits + 10):
        return mp.mpf(numerator) / denominator


def _combination_decimal(
    combo: ZetaCombination, digits: int, store: Optional[ConstantStore]
) -> Decimal:
    """The value of ``combo``, summed with ``digits + 10`` significant digits.

    Each base constant is the decimal string of ``digits + 5`` digits that
    the store holds or that is computed and stored now, so an evaluation
    reads the same digits whether its constants were stored or not.
    """
    _require_digits(digits)
    missed = False
    try:
        with localcontext() as context:
            context.prec = digits + 10
            pi = _pi(context.prec)
            total = Decimal(0)
            for elem, coeff in combo.terms():
                if elem.kind == "one":
                    term = Decimal(1)
                else:
                    text = store.get(elem.kind, elem.arg, digits) if store is not None else None
                    if text is None:
                        text = _base_constant(elem.kind, elem.arg, digits + 5)
                        if store is not None:
                            store.put(elem.kind, elem.arg, digits, text)
                            missed = True
                    term = Decimal(text)
                if elem.pi_power:
                    term *= pi**elem.pi_power
                total += term * coeff.numerator / coeff.denominator
            return total
    finally:
        if missed:
            store.save()


def _pi(digits: int) -> Decimal:
    """pi to ``digits`` significant digits, by Machin's formula in integers.

    ``pi = 16 arctan(1/5) - 4 arctan(1/239)``, each series summed in fixed
    point at 10 guard digits; every term truncates by less than one unit.
    """
    unit = 10 ** (digits + 10)

    def arctan_inverse(x: int) -> int:
        power = unit // x
        total = power
        k = 1
        while power:
            power //= -x * x
            k += 2
            total += power // k
        return total

    fixed = 16 * arctan_inverse(5) - 4 * arctan_inverse(239)
    return Decimal(fixed).scaleb(-(digits + 10), Context(prec=digits))


def _base_constant(kind: str, arg: int, digits: int) -> str:
    """A base constant other than ``one``, computed to ``digits`` digits, as mpmath prints it."""
    import mpmath as mp

    # Built per call, so that a wrapper installed on a module attribute (a
    # tracer, a test's monkeypatch) sees every evaluation.
    evaluate = {
        "log2": _log2,
        "zeta": zeta,
        "lchi4": dirichlet_l_chi4,
        "l3_ii": l3_ii_value,
    }[kind]
    return mp.nstr(evaluate(arg, digits), digits)


def _log2(arg: int, digits: int) -> "mp.mpf":
    import mpmath as mp

    with mp.workdps(digits + 5):
        return +mp.log(2)
