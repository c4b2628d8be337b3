"""The ``verify`` registry: every check in run order, named ``suite/check``.

A check's suite is the prefix of its name.  ``verify`` alone imports this
module, after it has validated its arguments; the oracle's own imports of
:mod:`.identities` and :mod:`.reduce` load none of it.
"""

from __future__ import annotations

import argparse
from typing import Callable, List, Tuple

from .. import oracle
from ..formulas import Family, FamilySpec, family_three, family_two, mahler_measure
from ..values import l3_ii_value, multiple_polylog
from . import identities, tables
from .identities import PolyQ, log_moment_poly


Check = Tuple[str, Callable[[argparse.Namespace], bool]]


def _each_n(first: int, holds: Callable[[int], bool]) -> Callable:
    """A check that ``holds(n)`` for every ``first <= n <= max_n``."""
    return lambda args: all(holds(n) for n in range(first, args.max_n + 1))


def _each_pair(first: int, holds: Callable[[int, int], bool]) -> Callable:
    """A check that ``holds(n, l)`` for every ``first <= l <= n <= max_n``."""
    return lambda args: all(
        holds(n, l) for n in range(first, args.max_n + 1) for l in range(first, n + 1)
    )


def _each_degree(first: int, holds: Callable[[int], bool]) -> Callable:
    """A check that ``holds(k)`` for every ``first <= k <= 2 max_n``."""
    return lambda args: all(holds(k) for k in range(first, 2 * args.max_n + 1))


def _monomial_recombines(degree: int) -> bool:
    rebuilt = PolyQ.zero()
    for k, coefficient in identities.monomial_from_log_moment_polys(degree):
        rebuilt = rebuilt + log_moment_poly(k) * coefficient
    return rebuilt == PolyQ.monomial(degree)


def _family_two_bernoulli_form_agrees(transforms: int) -> bool:
    spec = FamilySpec(Family.TWO, transforms)
    return transforms % 2 == 1 or identities.family_two_bernoulli_form(spec) == family_two(spec)


def _family_three_rewritings_agree(transforms: int) -> bool:
    spec = FamilySpec(Family.THREE, transforms)
    production = family_three(spec)
    return all(rewriting == production for rewriting in identities.family_three_rewritings(spec))


def _erratum_pinned(row: tables.TableRow) -> Callable:
    def run(args: argparse.Namespace) -> bool:
        evaluated = mahler_measure(row.spec).combination
        return evaluated == row.corrected and evaluated != row.printed

    return run


# Relative agreement of the reduced integral with the closed-form measure.
_REDUCED_TOLERANCE = 1e-12


def _reduced_matches_closed(family: Family, smallest: int) -> Callable:
    """Every ``n <= min(max_n, oracle.REDUCED_MAX_TRANSFORMS)`` of the family."""

    def run(args: argparse.Namespace) -> bool:
        for transforms in range(smallest, min(args.max_n, oracle.REDUCED_MAX_TRANSFORMS) + 1):
            spec = FamilySpec(family, transforms)
            estimate = oracle.reduced_integral(spec).value
            closed = oracle.closed_form_measure(spec)
            # written so that a NaN on either side fails
            if not abs(estimate - closed) <= _REDUCED_TOLERANCE * abs(closed):
                return False
        return True

    return run


def _kernel_cases(args: argparse.Namespace) -> bool:
    """20 seeded log-moment kernel cases, then 20 fractional-power kernel cases."""
    import numpy as np

    rng = np.random.default_rng(args.seed)
    for case in range(40):
        a, b = rng.uniform(0.1, 10.0, size=2)
        while abs(a - b) < 0.15:
            a, b = rng.uniform(0.1, 10.0, size=2)
        if case < 20:
            result = oracle.kernel_integral_check(float(a), float(b), int(rng.integers(0, 7)))
        else:
            result = oracle.power_kernel_check(float(a), float(b), float(rng.uniform(0.05, 0.95)))
        if not result.agree:
            return False
    return True


def _torus_sample(args: argparse.Namespace) -> bool:
    spec = FamilySpec(Family.ONE, 1)
    estimate = oracle.torus_qmc(spec, samples=200_000, seed=args.seed)
    closed = oracle.closed_form_measure(spec)
    return abs(estimate.value - closed) <= 4 * estimate.error_estimate + 1e-5


def _l3_ii_fold_matches_engine(b: int) -> bool:
    """``l3_ii_value(b)`` against ``i * scriptL_{3,b}(i, i)`` from ``multiple_polylog``."""
    import mpmath as mp

    with mp.workdps(30):
        engine = -2 * mp.fsum(
            e * multiple_polylog(3, b, e * 1j, f * 1j, 20).imag for e in (1, -1) for f in (1, -1)
        )
        return abs(mp.mpf(str(l3_ii_value(b, 20))) - engine) <= mp.mpf(10) ** -18 * abs(engine)


def _checks() -> List[Check]:
    """Every verification check in run order; a check's suite is its name's prefix.

    Each check reads ``max_n`` and ``seed`` from the parsed ``verify``
    arguments; its tolerance is its own.
    """
    checks: List[Check] = [
        ("identities/reduction-ab", _each_n(1, identities.reduction_ab)),
        ("identities/reduction-ba", _each_n(0, identities.reduction_ba)),
        ("identities/reduction-induction-ab", _each_n(1, identities.reduction_induction_ab)),
        ("identities/reduction-induction-ba", _each_n(0, identities.reduction_induction_ba)),
        (
            "identities/symmetric-transfer-first",
            _each_pair(1, identities.check_symmetric_transfer_first),
        ),
        (
            "identities/symmetric-transfer-second",
            _each_pair(0, identities.check_symmetric_transfer_second),
        ),
        (
            "identities/bernoulli-transfer-first",
            _each_pair(1, identities.check_bernoulli_transfer_first),
        ),
        (
            "identities/bernoulli-transfer-second",
            _each_n(1, identities.check_bernoulli_transfer_second),
        ),
        (
            "identities/bernoulli-transfer-third",
            _each_pair(0, identities.check_bernoulli_transfer_third),
        ),
        (
            "identities/bernoulli-euler-transfer",
            _each_pair(1, identities.check_bernoulli_euler_transfer),
        ),
        (
            "identities/weighted-factorial-sums",
            _each_n(
                0,
                lambda n: identities.check_euler_factorial_sum(n)
                and identities.check_euler_shifted_factorial_sum(n)
                and (n == 0 or identities.check_bernoulli_factorial_sum(n)),
            ),
        ),
        ("identities/bernoulli-recurrence", _each_degree(1, identities.check_bernoulli_recurrence)),
        ("identities/bernoulli-halving", _each_degree(0, identities.check_bernoulli_halving)),
        (
            "identities/log-moment-poly-properties",
            _each_degree(0, identities.check_log_moment_poly_properties),
        ),
        (
            "identities/log-moment-poly-bernoulli-form",
            _each_degree(
                0, lambda k: identities.log_moment_poly_bernoulli_form(k) == log_moment_poly(k)
            ),
        ),
        ("identities/monomial-decomposition", _each_degree(1, _monomial_recombines)),
        ("identities/family-two-bernoulli-form", _each_n(2, _family_two_bernoulli_form_agrees)),
        ("identities/family-three-rewritings", _each_n(1, _family_three_rewritings_agree)),
        (
            "tables/all-rows-match-canonical",
            lambda args: all(matches for _, matches in tables.reproduce_tables()),
        ),
    ]
    checks += [
        (
            "tables/erratum-family-%s-%d-transforms"
            % (row.spec.family.value, row.spec.n_transforms),
            _erratum_pinned(row),
        )
        for row in tables.errata_rows()
    ]
    checks += [
        ("oracle/reduced-vs-closed-family-i", _reduced_matches_closed(Family.ONE, 1)),
        ("oracle/reduced-vs-closed-family-ii", _reduced_matches_closed(Family.TWO, 0)),
        ("oracle/reduced-vs-closed-family-iii", _reduced_matches_closed(Family.THREE, 1)),
        ("oracle/kernel-integral-seeded-cases", _kernel_cases),
        (
            "oracle/unit-log-moments",
            lambda args: all(oracle.zeta_log_moment_check(j).agree for j in range(1, 7))
            and all(oracle.lchi4_log_moment_check(j).agree for j in range(7)),
        ),
        (
            "oracle/defining-integrals",
            lambda args: all(oracle.log1p_moment_check(h).agree for h in (1, 2, 3))
            and all(oracle.log_square_moment_check(h).agree for h in (0, 1, 2, 3))
            and all(oracle.arctangent_moment_check(h).agree for h in (0, 1, 2, 3)),
        ),
        ("oracle/torus-qmc-family-i", _torus_sample),
        (
            "oracle/l3-ii-fold",
            lambda args: all(_l3_ii_fold_matches_engine(b) for b in range(1, args.max_n + 1, 2)),
        ),
        (
            "oracle/edgeworth-family-i",
            lambda args: all(
                oracle.EDGEWORTH_WINDOW[0]
                <= oracle.edgeworth_remainder_family_i(n)
                <= oracle.EDGEWORTH_WINDOW[1]
                for n in (200, 201)
            ),
        ),
    ]
    return checks


def run_checks(args: argparse.Namespace) -> int:
    """Run the checks of ``args.suite``, one pass/FAIL line each; 1 if any fails."""
    failures: List[str] = []
    for name, run in _checks():
        if args.suite not in ("all", name.split("/")[0]):
            continue
        try:
            passed = bool(run(args))
        except Exception as exc:  # a crashed check is a failed check
            print("FAIL %s (raised %s: %s)" % (name, type(exc).__name__, exc))
            failures.append(name)
            continue
        if passed:
            print("pass %s" % name)
        else:
            print("FAIL %s" % name)
            failures.append(name)
    if failures:
        import json

        print(json.dumps({"failures": failures}))
        return 1
    return 0
