"""Command-line interface for evaluating and verifying the measure formulas.

Three subcommands are exposed:

* ``eval`` prints the closed-form combination and its numeric value for one
  family member, as text or schema-stable JSON;
* ``verify`` runs the exact identity suites, the table-reproduction fixture,
  and the numerical oracle cross-checks, one pass/fail line per check.  All
  checks sit in one ordered registry (``_checks``); a check's suite is the
  prefix of its name;
* ``constants`` lists or pre-computes the persistent constant store.

Exit codes are uniform across commands: 0 on success, 1 when a verification
check fails, 2 on usage errors, 3 when a numeric evaluation fails (a constant
does not reach the requested digits).  Commands raise; :func:`main` alone
turns an ``OSError``/``ValueError`` (2) or ``RuntimeError`` (3) into one
``error:`` line and its exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, List, Optional, Sequence, Tuple

import mpmath as mp

from .combinations import ZetaCombination
from .exact import PolyQ, log_moment_poly
from .formulas import Family, FamilySpec, family_three, mahler_measure
from .identities import (
    check_bernoulli_euler_transfer,
    check_bernoulli_factorial_sum,
    check_bernoulli_halving,
    check_bernoulli_recurrence,
    check_bernoulli_transfer_first,
    check_bernoulli_transfer_second,
    check_bernoulli_transfer_third,
    check_euler_factorial_sum,
    check_euler_shifted_factorial_sum,
    check_log_moment_poly_properties,
    check_symmetric_transfer_first,
    check_symmetric_transfer_second,
    family_three_rewriting,
    log_moment_poly_bernoulli_form,
    monomial_from_log_moment_polys,
    reduction_ab,
    reduction_ba,
    reduction_induction_ab,
    reduction_induction_ba,
)
from .oracle import (
    arctangent_moment_check,
    closed_form_measure,
    kernel_integral_check,
    lchi4_log_moment_check,
    log1p_moment_check,
    log_square_moment_check,
    reduced_integral,
    torus_qmc,
    zeta_log_moment_check,
)
from .store import ConstantStore
from .tables import TableRow, errata_rows, reproduce_tables
from .values import combination_value

__all__ = ["build_parser", "main"]


def _pi_label(power: int) -> str:
    if power == 0:
        return "m"
    if power == 1:
        return "pi * m"
    return "pi^%d * m" % power


def _open_store(path: Optional[str]) -> ConstantStore:
    return ConstantStore(path) if path else ConstantStore()


def cmd_eval(args: argparse.Namespace) -> int:
    """Evaluate one family member and print its closed form."""
    family = Family.from_label(args.family)
    spec = FamilySpec(family, args.n)
    if args.digits < 1:
        raise ValueError("digits must be positive")
    result = mahler_measure(spec)
    store = _open_store(args.store)
    with mp.workdps(args.digits + 10):
        value = combination_value(result.combination, digits=args.digits, store=store)
        numeric = mp.nstr(value, args.digits)
    if args.format == "json":
        record = {
            "family": family.value,
            "n_transforms": spec.n_transforms,
            "pi_normalization": spec.pi_normalization,
            "combination": [
                [element.kind, element.arg, element.pi_power, coeff.numerator, coeff.denominator]
                for element, coeff in result.combination.terms()
            ],
            "numeric_value": numeric,
            "digits": args.digits,
            # kept so that the schema stays stable; eval runs no oracle
            "oracle_value": None,
            "oracle_method": None,
            "agreement": None,
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        label = _pi_label(spec.pi_normalization)
        print("family %s with %d transform(s)" % (family.value, spec.n_transforms))
        print("%s = %s" % (label, result.combination.format_text()))
        print("%s = %s to %d digits" % (label, numeric, args.digits))
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

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
    for k, coefficient in monomial_from_log_moment_polys(degree):
        rebuilt = rebuilt + log_moment_poly(k) * coefficient
    return rebuilt == PolyQ.monomial(degree)


def _family_three_rewritings_agree(transforms: int) -> bool:
    spec = FamilySpec(Family.THREE, transforms)
    production = family_three(spec)
    return all(
        family_three_rewriting(spec, variant, reading) == production
        for variant in ("bernoulli", "euler")
        for reading in ("h", "l")
    )


def _erratum_pinned(row: TableRow) -> Callable:
    def run(args: argparse.Namespace) -> bool:
        evaluated = mahler_measure(row.spec).combination
        return evaluated == row.corrected and evaluated != row.printed

    return run


def _reduced_matches_closed(family: Family, smallest: int) -> Callable:
    def run(args: argparse.Namespace) -> bool:
        for transforms in range(smallest, min(args.max_n, 4) + 1):
            spec = FamilySpec(family, transforms)
            if abs(reduced_integral(spec).value - closed_form_measure(spec)) > args.tolerance:
                return False
        return True

    return run


def _kernel_cases(args: argparse.Namespace) -> bool:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    for _ in range(20):
        a, b = rng.uniform(0.1, 10.0, size=2)
        while abs(a - b) < 0.15:
            a, b = rng.uniform(0.1, 10.0, size=2)
        k = int(rng.integers(0, 7))
        if not kernel_integral_check(float(a), float(b), k).agree:
            return False
    return True


def _torus_sample(args: argparse.Namespace) -> bool:
    estimate = torus_qmc(FamilySpec(Family.ONE, 1), samples=200_000, seed=args.seed)
    with mp.workdps(30):
        truth = float(2 * mp.catalan / mp.pi)
    return abs(estimate.value - truth) <= 4 * estimate.error_estimate + 1e-5


def _checks() -> List[Check]:
    """Every verification check in run order; a check's suite is its name's prefix.

    Each check reads ``max_n``, ``tolerance`` and ``seed`` from the parsed
    ``verify`` arguments.
    """
    checks: List[Check] = [
        ("identities/reduction-ab", _each_n(1, reduction_ab)),
        ("identities/reduction-ba", _each_n(0, reduction_ba)),
        ("identities/reduction-induction-ab", _each_n(1, reduction_induction_ab)),
        ("identities/reduction-induction-ba", _each_n(0, reduction_induction_ba)),
        ("identities/symmetric-transfer-first", _each_pair(1, check_symmetric_transfer_first)),
        ("identities/symmetric-transfer-second", _each_pair(0, check_symmetric_transfer_second)),
        ("identities/bernoulli-transfer-first", _each_pair(1, check_bernoulli_transfer_first)),
        ("identities/bernoulli-transfer-second", _each_n(1, check_bernoulli_transfer_second)),
        ("identities/bernoulli-transfer-third", _each_pair(0, check_bernoulli_transfer_third)),
        ("identities/bernoulli-euler-transfer", _each_pair(1, check_bernoulli_euler_transfer)),
        (
            "identities/weighted-factorial-sums",
            _each_n(
                0,
                lambda n: check_euler_factorial_sum(n)
                and check_euler_shifted_factorial_sum(n)
                and (n == 0 or check_bernoulli_factorial_sum(n)),
            ),
        ),
        ("identities/bernoulli-recurrence", _each_degree(1, check_bernoulli_recurrence)),
        ("identities/bernoulli-halving", _each_degree(0, check_bernoulli_halving)),
        (
            "identities/log-moment-poly-properties",
            _each_degree(0, check_log_moment_poly_properties),
        ),
        (
            "identities/log-moment-poly-bernoulli-form",
            _each_degree(0, lambda k: log_moment_poly_bernoulli_form(k) == log_moment_poly(k)),
        ),
        ("identities/monomial-decomposition", _each_degree(1, _monomial_recombines)),
        ("identities/family-three-rewritings", _each_n(1, _family_three_rewritings_agree)),
        (
            "tables/all-rows-match-canonical",
            lambda args: all(matches for _, _, matches in reproduce_tables()),
        ),
    ]
    checks += [
        (
            "tables/erratum-family-%s-%d-transforms"
            % (row.spec.family.value, row.spec.n_transforms),
            _erratum_pinned(row),
        )
        for row in errata_rows()
    ]
    checks += [
        ("oracle/reduced-vs-closed-family-i", _reduced_matches_closed(Family.ONE, 1)),
        ("oracle/reduced-vs-closed-family-ii", _reduced_matches_closed(Family.TWO, 0)),
        ("oracle/reduced-vs-closed-family-iii", _reduced_matches_closed(Family.THREE, 1)),
        ("oracle/kernel-integral-seeded-cases", _kernel_cases),
        (
            "oracle/unit-log-moments",
            lambda args: all(zeta_log_moment_check(j).agree for j in range(1, 7))
            and all(lchi4_log_moment_check(j).agree for j in range(7)),
        ),
        (
            "oracle/defining-integrals",
            lambda args: all(log1p_moment_check(h).agree for h in (1, 2, 3))
            and all(log_square_moment_check(h).agree for h in (0, 1, 2, 3))
            and all(arctangent_moment_check(h).agree for h in (0, 1, 2, 3)),
        ),
        ("oracle/torus-qmc-family-i", _torus_sample),
    ]
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the selected verification suites and report per-check results."""
    if args.max_n < 1:
        raise ValueError("--max-n must be positive")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError("--tolerance must be positive and finite")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
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
        print(json.dumps({"failures": failures}))
        return 1
    return 0


# ---------------------------------------------------------------------------
# constant store management
# ---------------------------------------------------------------------------

_WARM_TARGETS: Tuple[Tuple[str, int], ...] = (
    tuple(("zeta", s) for s in range(3, 22, 2))
    + tuple(("lchi4", s) for s in range(2, 21, 2))
    + (("log2", 0),)
    + tuple(("l3_ii", b) for b in (1, 3, 5))
)


def cmd_constants(args: argparse.Namespace) -> int:
    """List the constant store or warm it to a requested precision."""
    store = _open_store(args.store)
    if args.action == "list":
        for kind, arg, digits, value in store.entries():
            print("%s %d %d %s" % (kind, arg, digits, value))
        return 0
    # warm
    if args.digits < 1:
        raise ValueError("--digits must be positive")
    computed = 0
    for kind, arg in _WARM_TARGETS:
        if store.get(kind, arg, args.digits) is not None:
            continue
        combination_value(ZetaCombination.term(kind, arg), digits=args.digits, store=store)
        computed += 1
    print(
        "store %s holds %d constants (%d computed at %d digits)"
        % (store.path, len(store), computed, args.digits)
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahlerzeta",
        description="Closed-form multi-variable Mahler measures with numerical verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--store",
        default=None,
        help="path of the constant store (default: MAHLERZETA_STORE or ~/.cache/mahlerzeta/constants.txt)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    eval_parser = subparsers.add_parser(
        "eval", parents=[common], help="print the closed form of one family member"
    )
    eval_parser.add_argument("--family", required=True, choices=("i", "ii", "iii"))
    eval_parser.add_argument("--n", required=True, type=int, help="number of transforms")
    eval_parser.add_argument("--digits", type=int, default=30)
    eval_parser.add_argument("--format", choices=("text", "json"), default="text")
    eval_parser.set_defaults(handler=cmd_eval)

    verify_parser = subparsers.add_parser(
        "verify", parents=[common], help="run verification suites"
    )
    verify_parser.add_argument(
        "--suite", choices=("identities", "tables", "oracle", "all"), default="all"
    )
    verify_parser.add_argument("--max-n", dest="max_n", type=int, default=20)
    verify_parser.add_argument("--tolerance", type=float, default=1e-7)
    verify_parser.add_argument("--seed", type=int, default=42)
    verify_parser.set_defaults(handler=cmd_verify)

    constants_parser = subparsers.add_parser(
        "constants", parents=[common], help="list or warm the constant store"
    )
    constants_parser.add_argument("action", choices=("list", "warm"))
    constants_parser.add_argument("--digits", type=int, default=30)
    constants_parser.set_defaults(handler=cmd_constants)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; every error it raises becomes one line and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
