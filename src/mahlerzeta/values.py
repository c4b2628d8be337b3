"""Arbitrary-precision numerical values of the constants in closed forms.

Only normal-form arguments are evaluated here, the ones that
:data:`mahlerzeta.combinations.KINDS` keeps: zeta at odd ``s >= 3``,
``L(chi_-4, s)`` at even ``s >= 2`` (both by accelerated alternating
series) and ``log 2``.  The other zeta and L arguments are rational
multiples of powers of pi, folded exactly in :mod:`mahlerzeta.combinations`.
The one summation of a combination expands each ``l3_ii`` term through its
exact fold to ``L(chi_-4, s)`` values (:func:`_l3_ii_fold`), so no ``l3_ii``
constant is computed or stored on its own.  Independent series
cross-checks of these routes live with the tests.

All functions take a ``digits`` argument (decimal digits of target accuracy)
and run internally with guard digits.  The base constants are computed in
integer fixed point and returned as :class:`~decimal.Decimal`; a
combination is summed once, in :mod:`decimal`, from the decimal strings of
its base constants and a pi computed with integers.  So ``eval`` and
``constants`` never load mpmath, stored constants or not.  mpmath is
imported only by :func:`combination_value`, which returns an mpmath number,
by the reference route :func:`multiple_polylog`, and by the check layer.

zeta, ``L(chi_-4, s)`` and ``log 2 = eta(1)`` are alternating series summed
by :func:`alternating_sum` with the Cohen-Rodriguez Villegas-Zagier
Chebyshev acceleration (Experimental Math. 9, 2000), whose error decays
like (3 + sqrt(8))^(-n) for n terms.  :func:`multiple_polylog` (the Hoelder
convolution of Borwein, Bradley, Broadhurst and Lisonek, Trans. AMS 353,
2001) evaluates no closed form: it is the reference that the tests and
``verify`` hold the fold to.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import ceil, log2
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from .combinations import KINDS, ConstantBasisElement, ZetaCombination, _zeta_even
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


def alternating_sum(power: Callable[[int], int], digits: int) -> int:
    """Accelerated ``sum_{j>=0} (-1)^j / power(j)`` in units of ``10^-(digits + 10)``.

    ``power`` gives each term's positive integer denominator, and ``1 / power``
    must be the restriction of a totally monotone function to the
    nonnegative integers (true for all the series used here), which is the
    convergence condition of the Chebyshev acceleration.  Its
    ``n = int(1.31 (digits + 10)) + 8`` weights ``c_k / d`` are ratios of
    exact integers: ``d = T_n(3)``, and ``|c_k| < d`` because every
    coefficient of ``T_n(1 + 2x)`` is positive.  Each term is truncated to a
    whole unit and the weighted sum is floor-divided by ``d``, which errs by
    at most ``n + 1`` units; the acceleration adds at most
    ``2 / (power(0) (3 + sqrt 8)^n)``, below ``10^-(digits + 15) / power(0)``.
    The terms decrease, so the sum stops at the first one that truncates to 0.
    """
    _require_digits(digits)
    unit = 10 ** (digits + 10)
    n = int(1.31 * (digits + 10)) + 8
    previous, d = 1, 3
    for _ in range(n - 1):
        previous, d = d, 6 * d - previous
    b, c, s = -1, -d, 0
    for k in range(n):
        c = b - c
        a = unit // power(k)
        if not a:
            break
        s += c * a
        b = 2 * (k + n) * (k - n) * b // ((2 * k + 1) * (k + 1))
    return s // d


def _fixed_decimal(fixed: int, digits: int) -> Decimal:
    """``fixed`` units of ``10^-(digits + 10)``, a value below 10, as an exact decimal."""
    return Decimal(fixed).scaleb(-(digits + 10), Context(prec=digits + 11))


def zeta(s: int, digits: int = 30) -> Decimal:
    """Riemann zeta at an odd integer ``s >= 3``.

    Computed from the accelerated alternating series
    eta(s) = sum (-1)^{j-1}/j^s through zeta = eta 2^(s-1) / (2^(s-1) - 1),
    which scales the error bound of :func:`alternating_sum` by at most 4/3
    and adds one unit.
    """
    _require_normal("zeta", s)
    eta = alternating_sum(lambda j: (j + 1) ** s, digits)
    return _fixed_decimal(eta * 2 ** (s - 1) // (2 ** (s - 1) - 1), digits)


def dirichlet_l_chi4(s: int, digits: int = 30) -> Decimal:
    """Dirichlet L-value L(chi_-4, s) = sum_{j>=0} (-1)^j/(2j+1)^s at even ``s >= 2``.

    Computed from the accelerated defining series; ``s = 2`` is Catalan's
    constant.
    """
    _require_normal("lchi4", s)
    return _fixed_decimal(alternating_sum(lambda j: (2 * j + 1) ** s, digits), digits)


def _log2(arg: int, digits: int) -> Decimal:
    """log 2 = eta(1), by the same accelerated series."""
    return _fixed_decimal(alternating_sum(lambda j: j + 1, digits), digits)


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
        - sum_{j=1}^{(b-1)/2} 4^(1-j) (b-2j+2)(b-2j+1) zeta(2j) beta(b+3-2j),

    built in one pass, with ``zeta(2j)`` as ``pi^(2j)`` times its rational.
    The reduction exists by the parity theorem (E. Panzer, J. Number Theory
    172, 2017); the formula matches the PSLQ relations for ``b <= 9``.
    """
    pairs = [
        (ConstantBasisElement("lchi4", b + 3, 0), 2 * (b + 1) * (b + 2)),
        (ConstantBasisElement("lchi4", b + 1, 2), -b),
    ]
    for j in range(1, (b - 1) // 2 + 1):
        weight = Fraction((b - 2 * j + 2) * (b - 2 * j + 1), 4 ** (j - 1)) * _zeta_even(2 * j)
        pairs.append((ConstantBasisElement("lchi4", b + 3 - 2 * j, 2 * j), -weight))
    return ZetaCombination(pairs)


def l3_ii_value(b: int, digits: int = 30) -> Decimal:
    """The real constant i * scriptL_{3,b}(i, i) for odd ``b >= 1``, from its fold.

    The one summation, :func:`_combination_decimal`, over ``l3_ii(b)`` alone.
    """
    return _combination_decimal(ZetaCombination.l3_ii(b), digits, None)


def combination_value(
    combo: ZetaCombination, digits: int = 30, store: Optional[ConstantStore] = None
) -> "mp.mpf":
    """Numerical value of a symbolic combination at ``digits`` digits.

    If ``store`` is given, base constants are looked up there first (a hit
    requires at least the requested precision); the ones computed instead
    are written back, in one save after the evaluation, also when a later
    constant fails.  The digits are those of :func:`_combination_decimal`.
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

    Each ``l3_ii(b)`` term becomes the terms of its fold (:func:`_l3_ii_fold`)
    and equal terms merge, so each ``L(chi_-4, s)`` of a closed form (whose
    terms share one weight) is read once.  Every basis constant and pi is
    positive, so only a negative merged coefficient can cancel; then
    ``digits`` grows by the digits of ``2 (b+1)(b+2) 2^b`` at the largest
    ``b``, the fold's largest term over its value (none of the families'
    closed forms has one, by identity A).  Each base constant is the decimal
    string of ``digits + 5`` digits that the store holds or that is computed
    and stored now, so an evaluation reads the same digits whether its
    constants were stored or not.
    """
    _require_digits(digits)
    terms = ZetaCombination(_unfolded(combo)).terms()
    if any(coeff < 0 for _, coeff in terms):
        folds = [elem.arg for elem, _ in combo.terms() if elem.kind == "l3_ii"]
        digits += max((len(str(2 * (b + 1) * (b + 2) << b)) for b in folds), default=0)
    missed = False
    try:
        with localcontext() as context:
            context.prec = digits + 10
            pi = _pi(context.prec)
            total = Decimal(0)
            for elem, coeff in terms:
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


def _unfolded(combo: ZetaCombination) -> Iterator[Tuple[ConstantBasisElement, Fraction]]:
    """The terms of ``combo``, each ``l3_ii(b)`` term as the terms of its fold."""
    for elem, coeff in combo.terms():
        if elem.kind != "l3_ii":
            yield elem, coeff
        else:
            for part, weight in _l3_ii_fold(elem.arg).terms():
                yield part.shifted(elem.pi_power), coeff * weight


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
    """A base constant other than ``one`` to ``digits`` digits, printed by :func:`_nstr`."""
    # Built per call, so that a wrapper installed on a module attribute (a
    # tracer, a test's monkeypatch) sees every evaluation.
    evaluate = {
        "log2": _log2,
        "zeta": zeta,
        "lchi4": dirichlet_l_chi4,
    }[kind]
    return _nstr(evaluate(arg, digits), digits)


def _nstr(value: Decimal, digits: int) -> str:
    """``value`` printed as ``mpmath.nstr(value, digits)`` prints it (``libmpf.to_str``).

    The leading ``digits`` digits are rounded half up on the next one, a
    carry through 9s moving the exponent.  The number is printed in fixed
    point when its exponent lies strictly between ``min(-(digits // 3), -5)``
    and ``digits``, otherwise with ``e+NN``; trailing zeros go, but ``.0``
    stays.  The digits come from the decimal's digit tuple, not through
    ``str(int)``, which refuses more than 4300 digits, so any length prints.
    """
    if not value:
        return "0.0"
    negative, figures, exponent = value.as_tuple()
    text = "".join(map(str, figures))
    exponent += len(text) - 1
    if len(text) > digits and text[digits] >= "5":
        kept = text[:digits].rstrip("9")
        if kept:
            text = kept[:-1] + str(int(kept[-1]) + 1)
        else:
            text = "1"
            exponent += 1
    text = text[:digits].ljust(digits, "0")
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            text = "0" * -exponent + text
            split = 1
        else:
            split = exponent + 1
        exponent = 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if exponent:
        text += "e%+d" % exponent
    return "-" + text if negative else text
