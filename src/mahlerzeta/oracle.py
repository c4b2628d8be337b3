"""Independent numerical verification of the closed-form Mahler measures.

Everything in this module runs in plain ``float64`` with a hand-rolled
double-exponential quadrature engine, series/Gauss-Legendre kernels for the
trilogarithm and the inverse-tangent integral, and (quasi-)Monte Carlo torus
averages.  The exact side of the package never feeds numbers into these
routines, so agreement between the two is evidence rather than tautology.

Three kinds of oracles are provided:

* pointwise base measures of the one-parameter polynomials that the
  multi-variable families reduce to, one function per polynomial (family
  ``iii`` has a real and an imaginary one);
* adaptive quadrature of the reduced one-dimensional integral representation
  (:func:`reduced_integral`) and of the kernel/log-moment integrals behind
  the closed forms, one ``*_check`` function per integral;
* direct quasi-Monte Carlo integration of ``log |P|`` over the torus
  (:func:`torus_qmc`).

The five log-moment checks and :func:`reduced_integral` integrate
``S(x) log^j x / (x^2 +- 1)`` over ``(0, 1)`` through one integrand,
:func:`_log_moment`.  What lasts for the process is
:func:`reduced_integral`'s: each moment integral, per family, parity and
``j``, and each float row of weights, per parity and ``n // 2``.  The closed
forms are summed in :mod:`decimal` by the summation of :mod:`.values`.

numpy is imported on first use, by the QMC routines and the Gauss-Legendre
nodes of ``Ti_2``, so importing this module does not load it; no function
here loads mpmath.  Each function that reads the check layer's exact forms
(``P_k`` and the coefficient ladders of :mod:`.check.identities`, the
moment closed forms of :mod:`.check.reduce`) imports them in its body, so
:func:`torus_qmc` loads no module of :mod:`mahlerzeta.check`.

The QMC kernel is held to a bit-identity contract: every estimate, error
bar and evaluation count equals, in ``float.hex``, that of the plain
complex kernel (roots from ``np.exp(1j * angles)``, products from
``np.prod``), which the tests keep as an independent oracle.  The fast
kernel takes cosines and sines into reused buffers, which glibc's ``cexp``
at real part 0 computes the same way, and it avoids two numpy rounding
traps:

* ``np.prod`` along a contiguous axis multiplies complex numbers in a
  scalar loop that rounds each product of parts, while the elementwise
  complex multiply fuses them and differs in the last bit; the products of
  ``1 +- root`` are therefore built from real operations.
* numpy's elementwise complex multiply is not commutative bit for bit, and
  once a fresh temporary reaches 256 KB (16,384 complex points) numpy
  writes the result into it, computing ``named * temporary`` as
  ``temporary * named``; the family combinations therefore keep the plain
  kernel's expressions, with the same operands named and in the same order
  (a row of the roots buffer is a view, not a temporary).

The contract also holds across the kernel's split of the work.  A
replicate is one shifted Sobol point set of ``2**k`` points, worked through
in equal column chunks of ``min(2**k, 16,384)`` points, so every chunk of a
block that reaches the elision size reaches it too, and a smaller block is
one chunk.  The logs of a replicate are written into one row and averaged
by one ``np.mean``, which keeps its pairwise summation tree.  The
shifts of all replicates are drawn before the work starts, as one block
from a PCG64 generator at the seed, whose rows are what one draw per
replicate gives.  The replicates run in shares, one per CPU in the
process's affinity set, each taking the next replicate from one counter and
writing its mean by index; the means are reduced in replicate order.  So
neither the thread count nor which share ran a replicate changes a bit.

The contract was verified with numpy 2.4.6 on glibc 2.36, x86-64 with
AVX-512, Python 3.11.7.  It rests on numpy and libm internals (the scalar
``np.prod`` reduction, the 256 KB elision threshold, ``cos``/``sin`` equal
to ``cexp``), so a pin that fails after an upgrade of either, with this
module unchanged, points to a changed library loop rather than a kernel bug.
"""

from __future__ import annotations

import math
import os
from array import array
from decimal import localcontext
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Tuple

from .combinations import ZetaCombination
from .exact import bernoulli
from .formulas import Family, FamilySpec, mahler_measure
from .values import _combination_decimal, _pi

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntegralEstimate",
    "CheckResult",
    "base_measure_one",
    "base_measure_two",
    "base_measure_three_real",
    "base_measure_three_imaginary",
    "kernel_integral_check",
    "power_kernel_check",
    "zeta_log_moment_check",
    "lchi4_log_moment_check",
    "log1p_moment_check",
    "log_square_moment_check",
    "arctangent_moment_check",
    "reduced_integral",
    "closed_form_measure",
    "edgeworth_remainder_family_i",
    "torus_qmc",
    "imaginary_measure_qmc",
]

_PI_SQUARED = math.pi * math.pi
_ZETA2 = 1.6449340668482264365
_ZETA3 = 1.2020569031595942854


# The records are named tuples, as ``FamilySpec`` and ``MahlerResult`` are:
# ``IntegralEstimate`` validates in ``__new__``, which ``_make`` and
# ``_replace`` go through.
class _IntegralEstimateFields(NamedTuple):
    value: float
    error_estimate: float
    method: str
    evaluations: int


class IntegralEstimate(_IntegralEstimateFields):
    """A numerical integral value with provenance.

    Attributes
    ----------
    value : float
        The estimate.
    error_estimate : float
        Statistical standard error for ``qmc``; heuristic refinement
        difference for ``adaptive_quadrature``; truncation bound for
        ``series``.
    method : {"adaptive_quadrature", "qmc", "series"}
        How the value was obtained.
    evaluations : int
        Number of integrand (or sample) evaluations consumed: for
        ``adaptive_quadrature``, the calls of the integrands, each node
        counted once however many refinement levels use it.  Each integral
        counts the calls its quadrature took when the process computed it,
        so :func:`reduced_integral` reports the same count warm or cold,
        though a warm call makes no integrand call at all.
    """

    __slots__ = ()

    def __new__(
        cls, value: float, error_estimate: float, method: str, evaluations: int
    ) -> "IntegralEstimate":
        if method not in ("adaptive_quadrature", "qmc", "series"):
            raise ValueError("unknown method %r" % (method,))
        if error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if method == "qmc" and not error_estimate > 0:
            raise ValueError("qmc estimates carry a positive statistical error")
        return super().__new__(cls, value, error_estimate, method, evaluations)

    @classmethod
    def _make(cls, iterable: Iterable) -> "IntegralEstimate":
        return cls(*iterable)


class CheckResult(NamedTuple):
    """Outcome of a quadrature-versus-closed-form comparison.

    ``agree`` is true when ``|quadrature - closed_form|`` is within the
    absolute tolerance that the producing check states.
    """

    quadrature: float
    closed_form: float
    agree: bool


# ---------------------------------------------------------------------------
# double-exponential quadrature on (0, 1)
# ---------------------------------------------------------------------------

_T_MAX = 6.0
# Relative difference between two refinement levels at which to stop.
_TARGET = 1e-13
# Finest level: the step is 2**(2 - level).
_MAX_LEVEL = 11


@lru_cache(maxsize=None)
def _tanh_sinh_nodes() -> Tuple[array, array, array, array]:
    """The finest level's nodes as columns ``t, x, cx, weight``, ``0 < t <= _T_MAX``.

    Entry ``k`` sits at ``t = (k + 1) * 2**(2 - _MAX_LEVEL)``.  Level ``L``
    uses every ``2**(_MAX_LEVEL - L)``-th entry: ``j * 2**(2 - L)`` is that
    ``t`` exactly, so each level sees the floats it would compute itself.
    The columns are ``array('d')``, which holds each float64 as it is.
    """
    half_pi = 0.5 * math.pi
    step = 2.0 ** (2 - _MAX_LEVEL)
    ts, xs, cxs, weights = array("d"), array("d"), array("d"), array("d")
    k = 1
    while k * step <= _T_MAX:
        t = k * step
        u = half_pi * math.sinh(t)
        eu = math.exp(-2.0 * u)
        x = 1.0 / (1.0 + eu)
        cx = eu / (1.0 + eu)
        ts.append(t)
        xs.append(x)
        cxs.append(cx)
        weights.append(math.pi * math.cosh(t) * x * cx)
        k += 1
    return ts, xs, cxs, weights


def _tanh_sinh_unit(f: Callable[[float, float], float]) -> Tuple[float, float, int]:
    """Integrate ``f`` over ``(0, 1)`` with a tanh-sinh transform.

    The integrand receives ``(x, cx)`` where ``cx = 1 - x`` is computed
    without cancellation, so endpoint behavior at both ends can be resolved
    to full precision.  The step halves from level 4 up to level
    ``_MAX_LEVEL``.  Returns ``(value, error, evaluations)``; the error is
    the difference between the last two refinement levels (heuristic).
    Raises ``ValueError`` if the integrand produces a non-finite sample.

    The levels are nested: every node of a level is a node of the next, so
    each node's pair ``f(x, cx) + f(cx, x)`` is computed once, when a level
    first reaches it, and kept for the finer levels.  Each level still sums
    its contributions afresh, in node order and with its own early stop, so
    the result is that of evaluating every level from scratch.
    ``evaluations`` counts the calls of ``f``: one at the midpoint and two
    per node reached.
    """
    ts, xs, cxs, weights = _tanh_sinh_nodes()
    pairs = [None] * len(ts)
    midpoint = f(0.5, 0.5)
    if not math.isfinite(midpoint):
        raise ValueError("integrand returned a non-finite value at x=0.5")
    centre = 0.25 * math.pi * midpoint
    previous = None
    value = 0.0
    error = math.inf
    evaluations = 1
    for level in range(4, _MAX_LEVEL + 1):
        stride = 1 << (_MAX_LEVEL - level)
        total = centre
        tiny_run = 0
        for k in range(stride - 1, len(ts), stride):
            pair = pairs[k]
            if pair is None:
                x = xs[k]
                cx = cxs[k]
                pair = pairs[k] = f(x, cx) + f(cx, x)
                evaluations += 2
                if not math.isfinite(pair):
                    raise ValueError("integrand returned a non-finite value near x=%r" % (x,))
            contribution = weights[k] * pair
            total += contribution
            size = abs(contribution)
            if size <= 1e-280 or size <= abs(total) * 1e-18:
                tiny_run += 1
                if tiny_run >= 3 and ts[k] >= 3.0:
                    break
            else:
                tiny_run = 0
        estimate = 2.0 ** (2 - level) * total
        if previous is not None:
            error = abs(estimate - previous)
            value = estimate
            if error <= _TARGET * max(1.0, abs(estimate)):
                return estimate, error, evaluations
        previous = estimate
        value = estimate
    return value, error, evaluations


def _stable_log(x: float, cx: float) -> float:
    """``log x`` computed from the complement when ``x`` is near 1."""
    return math.log1p(-cx) if cx < 0.5 else math.log(x)


def _log_ratio_minus(cx: float, logx: float) -> float:
    """``log(x) / (x**2 - 1)`` from ``cx = 1 - x`` and ``logx = log x``, filled in at 1.

    ``x**2 - 1 = -cx * (2 - cx)`` exactly; within ``|cx| < 1e-3`` the ratio
    is evaluated by the series ``(1 + c/2 + c^2/3 + ...) / (2 - c)`` to avoid
    0/0 cancellation at machine precision.
    """
    c = cx
    if abs(c) < 1e-3:
        series = 1.0 + c * (
            1.0 / 2.0 + c * (1.0 / 3.0 + c * (1.0 / 4.0 + c * (1.0 / 5.0 + c / 6.0)))
        )
        return series / (2.0 - c)
    return logx / (-c * (2.0 - c))


def _log_moment(
    measure: Callable[[float, float], float], plus: bool, j: int
) -> Callable[[float, float], float]:
    """The integrand of ``measure(x, log x) log^j x / (x^2 +- 1)`` on ``(0, 1)``.

    The kernel is ``x^2 + 1`` if ``plus``, else ``x^2 - 1`` (then ``j >= 1``,
    and ``log x / (x^2 - 1)`` is filled in at 1).  Each call computes
    ``log x`` once and passes it to the measure.
    """
    def integrand(x: float, cx: float) -> float:
        logx = _stable_log(x, cx)
        if plus:
            return measure(x, logx) * logx**j / (x * x + 1.0)
        return measure(x, logx) * _log_ratio_minus(cx, logx) * logx ** (j - 1)

    return integrand


# ---------------------------------------------------------------------------
# fast float64 special-function kernels
# ---------------------------------------------------------------------------

def _zeta_nonpositive(m: int) -> float:
    """``zeta(-m)`` for integer ``m >= 0`` (vanishes at even ``m >= 2``)."""
    if m == 0:
        return -0.5
    return float(-bernoulli(m + 1) / (m + 1))


_LI3_TAIL_ZETA = tuple(_zeta_nonpositive(k - 3) for k in range(3, 17))


def _li3(t: float) -> float:
    """``Li_3(t)`` for ``t`` in ``[0, 1]``.

    Direct power series up to ``t = 1/2``; beyond that, the expansion of
    ``Li_3(exp(-u))`` around ``u = 0`` whose ``u^k`` coefficients are zeta
    values at non-positive integers.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("argument must lie in [0, 1]")
    if t <= 0.5:
        total = 0.0
        power = 1.0
        for k in range(1, 60):
            power *= t
            term = power / (k * k * k)
            total += term
            if term <= 1e-18 * (abs(total) + 1e-30):
                break
        return total
    u = -math.log(t)
    if u <= 0.0:
        return _ZETA3
    total = _ZETA3 - _ZETA2 * u + (0.75 - 0.5 * math.log(u)) * u * u
    upow = u * u
    fact = 2.0
    for k in range(3, 17):
        upow *= -u
        fact *= k
        total += _LI3_TAIL_ZETA[k - 3] * upow / fact
    return total


def _script_l3(t: float) -> float:
    """``Li_3(t) - Li_3(-t)`` for ``t`` in ``[0, 1]`` via the square trick."""
    return 2.0 * _li3(t) - 0.25 * _li3(t * t)


@lru_cache(maxsize=None)
def _gl_points() -> Tuple[Tuple[float, float], ...]:
    """The 20-point Gauss-Legendre nodes and weights on ``(-1, 1)``."""
    from numpy.polynomial.legendre import leggauss

    return tuple(
        (float(node), float(weight)) for node, weight in zip(*leggauss(20))
    )


def _inverse_tangent_integral(x: float) -> float:
    """``Ti_2(x) = integral of arctan(t)/t over (0, x)`` for ``x >= 0``.

    Gauss-Legendre on ``(0, x)`` for ``x <= 1`` (the integrand is analytic
    there); the standard inversion relation maps larger arguments back.
    """
    if x < 0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0
    if x > 1.0:
        return _inverse_tangent_integral(1.0 / x) + 0.5 * math.pi * math.log(x)
    half = 0.5 * x
    total = 0.0
    for node, weight in _gl_points():
        t = half * (node + 1.0)
        total += weight * (math.atan(t) / t if t > 0.0 else 1.0)
    return half * total


# ---------------------------------------------------------------------------
# base measures
# ---------------------------------------------------------------------------

def base_measure_one(alpha_abs: float) -> float:
    """Measure of ``1 + alpha z`` as a function of ``|alpha|``.

    Parameters
    ----------
    alpha_abs : float
        ``|alpha| >= 0``.

    Returns
    -------
    float
        ``max(log |alpha|, 0)``.
    """
    if alpha_abs < 0:
        raise ValueError("alpha_abs must be nonnegative")
    return math.log(alpha_abs) if alpha_abs > 1.0 else 0.0


def base_measure_two(alpha_abs: float) -> float:
    """``pi**2`` times the measure of ``(1 + x) + alpha (1 + y) z``.

    Inside the unit interval the value is ``2 (Li_3(a) - Li_3(-a))``; beyond
    it, ``pi^2 log a`` plus the same combination at ``1/a``.

    Parameters
    ----------
    alpha_abs : float
        ``|alpha| >= 0``.

    Returns
    -------
    float
        ``pi**2 * m``.
    """
    if alpha_abs < 0:
        raise ValueError("alpha_abs must be nonnegative")
    if alpha_abs == 0.0:
        return 0.0
    if alpha_abs <= 1.0:
        return 2.0 * _script_l3(alpha_abs)
    return _PI_SQUARED * math.log(alpha_abs) + 2.0 * _script_l3(1.0 / alpha_abs)


def base_measure_three_real(alpha: float) -> float:
    """``m(1 + alpha x + (1 - alpha) y)`` for a real parameter ``alpha``.

    This is ``log^+ alpha`` for positive ``alpha``, ``log(1 - alpha)`` for
    negative ``alpha`` and 0 at ``alpha = 0``.
    """
    if alpha > 0:
        return max(math.log(alpha), 0.0)
    if alpha < 0:
        return math.log1p(-alpha)
    return 0.0


def base_measure_three_imaginary(alpha: float) -> float:
    """``pi * m(1 + i alpha x + (1 - i alpha) y)`` for a real parameter ``alpha``.

    This is ``(pi/4) log(alpha^2 + 1) + Ti_2(|alpha|)``; it depends only on
    ``|alpha|``.
    """
    magnitude = abs(alpha)
    return (
        0.25 * math.pi * math.log1p(magnitude * magnitude)
        + _inverse_tangent_integral(magnitude)
    )


# ---------------------------------------------------------------------------
# kernel and log-moment integral checks
# ---------------------------------------------------------------------------

# Absolute agreement thresholds of the checks, and the working digits of the
# exact closed forms they compare with.
_KERNEL_TOLERANCE = 1e-9
_UNIT_MOMENT_TOLERANCE = 1e-10
_MOMENT_TOLERANCE = 1e-8
_CLOSED_FORM_DIGITS = 25


def _quadrature_check(
    closed: float, tolerance: float, *pieces: Callable[[float, float], float]
) -> CheckResult:
    """Compare ``closed`` with the sum of the pieces' integrals over ``(0, 1)``.

    A half-line integral comes as two pieces: the integrand on ``(0, 1)`` and
    its tail folded onto ``(0, 1)`` by ``x -> 1/y``.
    """
    quadrature = sum(_tanh_sinh_unit(piece)[0] for piece in pieces)
    return CheckResult(quadrature, closed, abs(quadrature - closed) <= tolerance)


def _closed_float(combination: ZetaCombination) -> float:
    return float(_combination_decimal(combination, _CLOSED_FORM_DIGITS, None))


def kernel_integral_check(a: float, b: float, k: int) -> CheckResult:
    """Compare the two-pole log-moment kernel integral with its closed form, to 1e-9.

    The integral is ``int_0^inf x log^k x / ((x^2+a^2)(x^2+b^2)) dx``; the
    closed form is ``(pi/2)^(k+1) (P_k(2 log a / pi) - P_k(2 log b / pi)) /
    (a^2 - b^2)`` with ``P_k`` the log-moment polynomials.  The pole
    parameters ``a`` and ``b`` must be positive and distinct (the closed form
    divides by ``a^2 - b^2``), and the log power ``0 <= k <= 10``.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if a == b:
        raise ValueError("a = b is rejected: the closed form divides by a^2 - b^2")
    if not 0 <= k <= 10:
        raise ValueError("k must lie in [0, 10]")
    from .check.identities import log_moment_poly

    def poly(y: float) -> float:
        """``P_k(y)``: Horner's rule on ``R_k = (k+1)! P_k``, then the division."""
        acc = 0.0
        for c in reversed(log_moment_poly(k)):
            acc = acc * y + c
        return acc / math.factorial(k + 1)

    closed = (
        (0.5 * math.pi) ** (k + 1)
        * (poly(2.0 * math.log(a) / math.pi) - poly(2.0 * math.log(b) / math.pi))
        / (a * a - b * b)
    )

    def lower(x: float, cx: float) -> float:
        logx = _stable_log(x, cx)
        return x * logx**k / ((x * x + a * a) * (x * x + b * b))

    def upper(y: float, cy: float) -> float:
        logy = _stable_log(y, cy)
        return y * (-logy) ** k / ((1.0 + a * a * y * y) * (1.0 + b * b * y * y))

    return _quadrature_check(closed, _KERNEL_TOLERANCE, lower, upper)


def power_kernel_check(a: float, b: float, alpha: float) -> CheckResult:
    """Compare the fractional-power kernel integral with its closed form, to 1e-9.

    The integral is ``int_0^inf x^alpha / ((x^2+a^2)(x^2+b^2)) dx`` and the
    closed form ``pi (a^(alpha-1) - b^(alpha-1)) / (2 cos(pi alpha / 2)
    (b^2 - a^2))``, valid for ``0 < alpha < 1`` and positive, distinct ``a``
    and ``b``.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if a == b:
        raise ValueError("a = b is rejected: the closed form divides by b^2 - a^2")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    closed = (
        math.pi
        * (a ** (alpha - 1.0) - b ** (alpha - 1.0))
        / (2.0 * math.cos(0.5 * math.pi * alpha) * (b * b - a * a))
    )

    def lower(x: float, cx: float) -> float:
        return x**alpha / ((x * x + a * a) * (x * x + b * b))

    def upper(y: float, cy: float) -> float:
        return y ** (2.0 - alpha) / ((1.0 + a * a * y * y) * (1.0 + b * b * y * y))

    return _quadrature_check(closed, _KERNEL_TOLERANCE, lower, upper)


def zeta_log_moment_check(j: int) -> CheckResult:
    """Quadrature check of ``int_0^1 log^j x / (x^2 - 1) dx`` for ``1 <= j <= 8``, to 1e-10."""
    if j > 8:
        raise ValueError("j must be at most 8 for the quadrature check")
    from .check.reduce import zeta_log_moment_closed

    closed = _closed_float(zeta_log_moment_closed(j))
    integrand = _log_moment(lambda x, logx: 1.0, False, j)
    return _quadrature_check(closed, _UNIT_MOMENT_TOLERANCE, integrand)


def lchi4_log_moment_check(j: int) -> CheckResult:
    """Quadrature check of ``int_0^1 log^j x / (x^2 + 1) dx`` for ``0 <= j <= 8``, to 1e-10."""
    if j > 8:
        raise ValueError("j must be at most 8 for the quadrature check")
    from .check.reduce import lchi4_log_moment_closed

    closed = _closed_float(lchi4_log_moment_closed(j))
    integrand = _log_moment(lambda x, logx: 1.0, True, j)
    return _quadrature_check(closed, _UNIT_MOMENT_TOLERANCE, integrand)


def log1p_moment_check(h: int) -> CheckResult:
    """Quadrature check of ``int_0^1 log(1+x) log^(2h-1) x / (x^2-1) dx``, to 1e-8.

    The half log power ``h`` is at least 1.
    """
    from .check.reduce import log1p_moment_closed

    closed = _closed_float(log1p_moment_closed(h))
    integrand = _log_moment(lambda x, logx: math.log1p(x), False, 2 * h - 1)
    return _quadrature_check(closed, _MOMENT_TOLERANCE, integrand)


def log_square_moment_check(h: int) -> CheckResult:
    """Quadrature check of ``int_0^inf log(1+x^2) log^(2h) x / (x^2+1) dx``, to 1e-8.

    The half log power ``h`` is at least 0.
    """
    from .check.reduce import log_square_moment_closed

    closed = _closed_float(log_square_moment_closed(h))
    lower = _log_moment(lambda x, logx: math.log1p(x * x), True, 2 * h)
    upper = _log_moment(lambda y, logy: math.log1p(y * y) - 2.0 * logy, True, 2 * h)
    return _quadrature_check(closed, _MOMENT_TOLERANCE, lower, upper)


def arctangent_moment_check(h: int) -> CheckResult:
    """Quadrature check of ``int_0^inf Ti_2(x) log^(2h) x / (x^2+1) dx``, to 1e-8.

    The half log power ``h`` is at least 0.
    """
    from .check.reduce import arctangent_moment_closed

    closed = _closed_float(arctangent_moment_closed(h))
    lower = _log_moment(lambda x, logx: _inverse_tangent_integral(x), True, 2 * h)
    upper = _log_moment(
        lambda y, logy: _inverse_tangent_integral(y) - 0.5 * math.pi * logy, True, 2 * h
    )
    return _quadrature_check(closed, _MOMENT_TOLERANCE, lower, upper)


# ---------------------------------------------------------------------------
# reduced one-dimensional representation
# ---------------------------------------------------------------------------

# The largest transform count at which every family's integrands stay finite
# at every node the quadrature reaches: from n = 115 on, the integrand
# S(x) log^(n-1) x overflows float64 at the smallest nodes it reaches.
REDUCED_MAX_TRANSFORMS = 114


def _symmetrized_measure(family: Family, odd: int) -> Callable[[float, float], float]:
    """Return ``S(x) = M(x) + M(1/x)`` on ``(0, 1)`` for the family's base measure.

    ``M`` is the (pi-scaled) base measure of the one-parameter polynomial the
    family reduces to; folding the tail through ``x -> 1/x`` turns the
    half-line log moments into single unit-interval integrals.  The closed
    combinations below avoid forming ``1/x`` so they stay finite for tiny
    ``x``; tests assert they equal ``M(x) + M(1/x)`` built directly from the
    ``base_measure_*`` functions.  Family ``iii``'s measure depends on the
    parity ``odd`` of the transform count; the other families' do not.
    """
    if family is Family.ONE:
        return lambda x, logx: -logx
    if family is Family.TWO:
        return lambda x, logx: 4.0 * _script_l3(x) - _PI_SQUARED * logx
    if not odd:
        # even transform count: the parameter is real and takes both signs
        # symmetrically, so the effective measure is the sign average
        return lambda x, logx: math.log1p(x) - logx
    # odd transform count: purely imaginary parameter mode
    return lambda x, logx: (
        0.5 * math.pi * math.log1p(x * x) + 2.0 * _inverse_tangent_integral(x) - math.pi * logx
    )


@lru_cache(maxsize=None)
def _reduced_moment(family: Family, odd: int, j: int) -> Tuple[float, float, int]:
    """``(value, error, evaluations)`` of ``int_0^1 S log^j x / (x^2 -+ 1)``.

    Each integral is computed once per process, by :func:`_tanh_sinh_unit`.
    """
    return _tanh_sinh_unit(_log_moment(_symmetrized_measure(family, odd), odd == 1, j))


@lru_cache(maxsize=None)
def _reduced_weights(odd: int, half: int) -> Tuple[Tuple[int, float], ...]:
    """``(j, weight)`` of every log power ``j`` in the row of ``n = 2 half + odd``.

    Log powers ``j = 1, 3, ..., n - 1`` over ``x^2 - 1`` for even ``n``, ``0,
    2, ..., n - 1`` over ``x^2 + 1`` for odd ``n``: weight ``h`` of the row
    belongs to ``j = 2h + 1 - odd`` and is ``coeff_* (2/pi)^(j + 1)`` in
    float.  A row depends only on the parity and ``n // 2``, so the three
    families share it, and it is built once per process.
    """
    from .check.identities import coeff_a_row, coeff_b_row

    weights = []
    for h, coefficient in enumerate((coeff_b_row if odd else coeff_a_row)(half)):
        j = 2 * h + 1 - odd
        weights.append((j, float(coefficient) * (2.0 / math.pi) ** (j + 1)))
    return tuple(weights)


def _measure_pi_scale(spec: FamilySpec) -> int:
    """Power of pi carried by the family's base measure."""
    if spec.family is Family.ONE:
        return 0
    if spec.family is Family.TWO:
        return 2
    return 1 if spec.parity else 0


def reduced_integral(spec: FamilySpec) -> IntegralEstimate:
    """Mahler measure via the reduced one-dimensional integral representation.

    The multi-variable torus integral collapses to rational combinations of
    ``int_0^inf S(x) log^j x / (x^2 -+ 1) dx`` with weights from the rows
    ``coeff_a_row`` / ``coeff_b_row`` of :mod:`.check.identities` (even/odd
    transform counts) and ``S`` the symmetrized base measure; each integral
    is folded onto ``(0, 1)`` and evaluated by adaptive tanh-sinh quadrature.  The integrals depend on the family, the
    parity of ``n`` and ``j`` only, so :func:`_reduced_moment` keeps each
    one for the process and a call computes only the integrals not seen
    before.  The weights depend on the parity and ``n // 2`` only, so
    :func:`_reduced_weights` keeps each row, in float, for the process, and
    the three families share it.  A warm process returns the same estimate,
    bit for bit, as a cold one.

    Parameters
    ----------
    spec : FamilySpec
        Family member with at most :data:`REDUCED_MAX_TRANSFORMS` transforms.

    Returns
    -------
    IntegralEstimate
        An estimate of the measure ``m`` itself (no pi normalization).  Its
        ``evaluations`` sums the integrand calls that each integral's
        quadrature took when the process computed it.

    Raises
    ------
    ValueError
        For more than :data:`REDUCED_MAX_TRANSFORMS` transforms, before any
        quadrature runs.
    """
    transforms = spec.n_transforms
    if transforms > REDUCED_MAX_TRANSFORMS:
        raise ValueError(
            "reduced_integral supports at most %d transforms, not %d"
            % (REDUCED_MAX_TRANSFORMS, transforms)
        )
    if spec.family is Family.TWO and transforms == 0:
        # transform-free base case: evaluate the pi^2-scaled base measure at 1
        return IntegralEstimate(
            base_measure_two(1.0) / _PI_SQUARED, 5e-15, "series", 1
        )
    odd = transforms % 2
    total = 0.0
    error = 0.0
    evaluations = 0
    for j, weight in _reduced_weights(odd, transforms // 2):
        value, err, count = _reduced_moment(spec.family, odd, j)
        total += weight * value
        error += abs(weight) * err
        evaluations += count
    scale = math.pi ** _measure_pi_scale(spec)
    return IntegralEstimate(
        total / scale, error / scale, "adaptive_quadrature", evaluations
    )


def closed_form_measure(spec: FamilySpec) -> float:
    """Float value of the closed-form measure ``m`` for comparison purposes.

    The one summation of :mod:`.values` expands each ``l3_ii(b)`` term
    through its fold into ``L(chi_-4, s)`` terms, so each ``L(chi_-4, s)``
    is computed once per member however many folds hold it.  By identity A
    the merged coefficients are all positive (family ``ii`` at odd ``n``
    maps family ``i``'s ``L(chi_-4, s)`` terms to ``L(chi_-4, s + 2)``
    ones), so the sum does not cancel.  It is summed at 25 working digits
    (35 significant digits, in :mod:`decimal`), divided by
    ``pi**pi_normalization`` in a 35-digit context and rounded to float64.

    Parameters
    ----------
    spec : FamilySpec
        Family member.

    Returns
    -------
    float
        The measure ``m``.
    """
    result = mahler_measure(spec)
    value = _combination_decimal(result.combination, _CLOSED_FORM_DIGITS, None)
    with localcontext() as context:
        context.prec = _CLOSED_FORM_DIGITS + 10
        return float(value / _pi(context.prec) ** result.pi_normalization)


# edgeworth_remainder_family_i reads 0.0091-0.0092 at every n from 20 to 1001.
EDGEWORTH_WINDOW = (0.005, 0.015)


def edgeworth_remainder_family_i(n: int) -> float:
    """``n (sqrt(n) (m_i(n) - sqrt(pi n / 8)) + sqrt(pi / 8) / 12)`` of the closed form.

    ``m_i(n) = E[S^+]`` for ``S`` the sum of ``n`` i.i.d. ``log|tan(theta/2)|``,
    whose cumulants are those of ``log sech(pi s / 2)`` (``pi^2 / 4``,
    ``pi^4 / 8``, ...).  The Edgeworth expansion of ``E[S^+]`` gives
    ``m_i(n) = sqrt(pi n / 8) (1 - 1/(12 n) + O(n^-2))``, so this remainder
    stays bounded in ``n``.  It is a tripwire for gross errors in the closed
    form at large ``n``, not an exact check: :data:`EDGEWORTH_WINDOW` admits
    a relative error in ``m_i`` of about ``1.6e-7`` at ``n = 200``, falling
    as ``n^-2``.
    """
    m = closed_form_measure(FamilySpec(Family.ONE, n))
    return n * ((m - math.sqrt(math.pi * n / 8)) * math.sqrt(n) + math.sqrt(math.pi / 8) / 12)


# ---------------------------------------------------------------------------
# direct torus integration
# ---------------------------------------------------------------------------

def _torus_polynomial_values(
    spec: FamilySpec, width: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``|P|`` at ``width`` torus points, as a function of their unit roots.

    The returned function takes a ``(dim, width)`` block of roots
    ``exp(2 pi i u)`` and reuses its own buffers on every call.  The
    rational families are cleared of denominators first (multiplying by
    ``prod (1 + x_i)`` changes the measure by ``m(prod (1 + x_i)) = 0``),
    so the integrand is a genuine polynomial with no poles on the torus.
    """
    import numpy as np

    n = spec.n_transforms
    plus = np.ones(width, dtype=complex)
    minus = np.ones(width, dtype=complex)
    scratch = np.empty((5, width))

    def values(roots: np.ndarray) -> np.ndarray:
        if n:
            _unit_factor_product(roots[:n], 1.0, plus, scratch)
            _unit_factor_product(roots[:n], -1.0, minus, scratch)
        # the plain kernel's expressions, with the same operands named
        if spec.family is Family.ONE:
            z = roots[n]
            return np.abs(plus + minus * z)
        if spec.family is Family.TWO:
            x, y, z = roots[n], roots[n + 1], roots[n + 2]
            return np.abs((1.0 + x) * plus + (1.0 + y) * z * minus)
        x, y = roots[n], roots[n + 1]
        return np.abs(plus + minus * x + (plus - minus) * y)

    return values


def _unit_factor_product(
    roots: np.ndarray, sign: float, out: np.ndarray, scratch: np.ndarray
) -> None:
    """``out = prod_k (1 + sign * roots[k])``, rounded as ``np.prod`` rounds.

    Reducing along a contiguous axis, ``np.prod`` multiplies in a scalar
    loop that rounds ``(a c - b d, a d + b c)`` term by term.  numpy's
    elementwise complex multiply fuses those terms and differs in the last
    bit, so the product is built here from real operations.  After the
    first factor, the sign of ``d = sign * root.imag`` goes into the add or
    subtract that takes each cross term, which rounds as the negated
    operand would (negation commutes with rounding, signed zeros
    included): 7 array passes per factor, and ``d`` is the row itself.
    """
    import numpy as np

    away, towards = (np.add, np.subtract) if sign > 0 else (np.subtract, np.add)
    real, imag, c, cross, twisted = scratch
    away(1.0, roots[0].real, out=real)
    np.multiply(roots[0].imag, sign, out=imag)
    for root in roots[1:]:
        away(1.0, root.real, out=c)
        np.multiply(real, root.imag, out=cross)
        np.multiply(real, c, out=real)
        np.multiply(imag, root.imag, out=twisted)
        towards(real, twisted, out=real)
        np.multiply(imag, c, out=imag)
        away(imag, cross, out=imag)
    out.real = real
    out.imag = imag


# Points per column chunk of a replicate: 256 KB of complex128, numpy's
# temporary elision size, so a chunk's temporaries are elided exactly when
# the whole block's would be (see the module docstring).
_CHUNK = 16_384

# Joe-Kuo (s, a, m) triples for Sobol dimensions 2..4; dimension 1 is the
# van der Corput sequence.
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)))
_SOBOL_BITS = 30


def _sobol_base2(dim: int, exponent: int) -> np.ndarray:
    """The first ``2**exponent`` unscrambled Sobol points in ``[0, 1)^dim``.

    Direction numbers are Joe and Kuo's (SIAM J. Sci. Comput. 30, 2008) at 30
    bits.  The points come in Gray-code order, built by reflected doubling,
    which is the order and scaling of the common unscrambled generators; the
    tests compare them bit for bit with one.
    """
    import numpy as np

    if not 1 <= dim <= 1 + len(_JOE_KUO):
        raise ValueError("Sobol points are built for 1 to %d dimensions" % (1 + len(_JOE_KUO)))
    rows = [[1] * _SOBOL_BITS]
    for s, a, m in _JOE_KUO[: dim - 1]:
        v = list(m)
        for j in range(s, _SOBOL_BITS):
            new = v[j - s] ^ (v[j - s] << s)
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    new ^= v[j - k] << k
            v.append(new)
        rows.append(v)
    directions = np.array(
        [[number << (_SOBOL_BITS - 1 - j) for j, number in enumerate(v)] for v in rows],
        dtype=np.uint32,
    )
    points = np.zeros((1, dim), dtype=np.uint32)
    for j in range(exponent):
        points = np.concatenate([points, points[::-1] ^ directions[:, j]])
    return points * 2.0**-_SOBOL_BITS


def _replicated_mean_log(
    kernel: Callable[[int], Callable[[np.ndarray], np.ndarray]], dim: int,
    samples: int, seed: int, replicates: int,
) -> IntegralEstimate:
    """Mean of ``log values(roots)`` over shifted Sobol point sets in ``[0, 1)^dim``.

    Each replicate shifts one fixed Sobol point set, of ``samples /
    replicates`` points rounded up to a power of two, by a seeded uniform
    vector modulo 1.  ``kernel(width)`` gives a ``values`` function with its
    own buffers, which maps a ``(dim, width)`` block of unit roots
    ``exp(2 pi i u)`` to ``|P|``.  Samples on zeros of ``values`` are
    skipped.  The error estimate is the standard error of the replicate
    means.  ``samples`` must lie in ``[1, 1e9]`` and ``replicates`` in
    ``[2, samples]``; both are checked before any point or shift is built.

    The shifts of all replicates are drawn up front, as one ``(replicates,
    dim)`` block from a PCG64 generator at the seed, which equals drawing
    them one replicate after the other.  The replicates run in shares, one
    per CPU this process may use: the calling thread runs the first, worker
    threads the rest (numpy releases the GIL inside its loops).  Each share
    allocates its buffers once, then takes the next replicate from a shared
    counter until none is left, so a share on a slower CPU takes fewer.  It
    works through each replicate in equal column chunks of at most
    ``_CHUNK`` points and writes its mean by index.  After the first
    exception no share takes another replicate, and that exception reaches
    the caller.
    """
    if not 1 <= samples <= 10**9:
        raise ValueError("samples must lie in [1, 1e9]")
    if not 2 <= replicates <= samples:
        raise ValueError("replicates must lie in [2, samples]: at least 2 for an error estimate")
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    per_replicate = -(-samples // replicates)
    base = _sobol_base2(dim, max(1, (per_replicate - 1).bit_length())).T.copy()
    count = base.shape[1]
    width = min(count, _CHUNK)
    means = [0.0] * replicates
    used = [0] * replicates
    pending = iter(range(replicates))
    lock = threading.Lock()
    errors: list = []

    shifts = np.random.default_rng(seed).random((replicates, dim))

    def run_share() -> None:
        try:
            values = kernel(width)
            angles = np.empty((dim, width))
            roots = np.empty((dim, width), dtype=complex)
            wrapped = np.empty((dim, width), dtype=bool)
            logs = np.empty(count)
            finite = np.empty(count, dtype=bool)
            while True:
                with lock:
                    replicate = None if errors else next(pending, None)
                if replicate is None:
                    return
                shift = shifts[replicate][:, None]
                for lo in range(0, count, width):
                    # (base + shift) % 1.0, exactly: the sum lies in [0, 2)
                    np.add(base[:, lo : lo + width], shift, out=angles)
                    np.greater_equal(angles, 1.0, out=wrapped)
                    np.subtract(angles, wrapped, out=angles)
                    angles *= 2.0 * math.pi
                    # np.exp(1j * angles) bit for bit, without its complex temporaries
                    np.cos(angles, out=roots.real)
                    np.sin(angles, out=roots.imag)
                    with np.errstate(divide="ignore"):
                        np.log(values(roots), out=logs[lo : lo + width])
                np.isfinite(logs, out=finite)
                kept = int(np.count_nonzero(finite))
                if kept == 0:
                    raise ValueError("all samples fell on zeros of the polynomial")
                means[replicate] = float(np.mean(logs if kept == count else logs[finite]))
                used[replicate] = kept
        except BaseException as error:
            with lock:
                errors.append(error)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shares = min(cpus or 1, replicates)
    with ThreadPoolExecutor(max(1, shares - 1)) as pool:
        for _ in range(shares - 1):
            pool.submit(run_share)
        run_share()
    if errors:
        raise errors[0]
    value = float(np.mean(means))
    sigma = float(np.std(means, ddof=1) / math.sqrt(replicates))
    return IntegralEstimate(value, max(sigma, 5e-17), "qmc", sum(used))


def torus_qmc(
    spec: FamilySpec,
    samples: int = 10_000_000,
    seed: int = 0,
    *,
    replicates: int = 10,
) -> IntegralEstimate:
    """Randomly shifted Sobol average of ``log |P|`` over the torus.

    Each replicate shifts one fixed Sobol point set by a seeded uniform
    vector modulo 1, so results are reproducible bit for bit given
    ``(seed, samples, replicates)``.  The error estimate is the standard
    error of the replicate means.

    Parameters
    ----------
    spec : FamilySpec
        Family member with torus dimension at most 4.
    samples : int
        Total sample budget across replicates, in ``[1, 1e9]``.  The
        per-replicate count is rounded up to a power of two.
    seed : int
        Seed for the shift generator.
    replicates : int
        Number of shifted replicates, in ``[2, samples]``.

    Returns
    -------
    IntegralEstimate
        An estimate of the measure ``m`` with a statistical error bar.
    """
    dim = spec.torus_dimension
    if dim > 4:
        raise ValueError(
            "torus dimension %d exceeds the supported maximum of 4" % (dim,)
        )
    return _replicated_mean_log(
        lambda width: _torus_polynomial_values(spec, width), dim, samples, seed, replicates
    )


def imaginary_measure_qmc(
    alpha: float,
    samples: int = 1 << 21,
    seed: int = 0,
    *,
    replicates: int = 8,
) -> IntegralEstimate:
    """QMC estimate of ``m(1 + i alpha x + (1 - i alpha) y)`` on the 2-torus.

    This is the polynomial behind :func:`base_measure_three_imaginary`;
    comparing estimates at ``alpha`` and ``-alpha`` checks numerically that
    the measure depends only on ``|alpha|`` (the sign-absorption property the
    odd reduced representation relies on).

    Parameters
    ----------
    alpha : float
        Real parameter (either sign).
    samples : int
        Total sample budget across replicates, in ``[1, 1e9]``.
    seed : int
        Seed for the shift generator.
    replicates : int
        Number of shifted replicates, in ``[2, samples]``.

    Returns
    -------
    IntegralEstimate
        An estimate of the measure with a statistical error bar.
    """
    import numpy as np

    def values(roots: np.ndarray) -> np.ndarray:
        x, y = roots
        return np.abs(1.0 + 1j * alpha * x + (1.0 - 1j * alpha) * y)

    return _replicated_mean_log(lambda width: values, 2, samples, seed, replicates)
