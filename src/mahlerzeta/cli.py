"""Command-line interface for evaluating and verifying the measure formulas.

Three subcommands are exposed:

* ``eval`` prints the closed-form combination and its numeric value for one
  family member, as text or schema-stable JSON;
* ``verify`` runs the exact identity suites, the table-reproduction fixture,
  and the numerical oracle cross-checks, one pass/fail line per check;
* ``constants`` lists or pre-computes the persistent constant store.

Exit codes are uniform across commands: 0 on success, 1 when a verification
check fails, 2 on usage errors, 3 when a numeric evaluation fails (a constant
does not reach the requested digits).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Sequence, Tuple

import mpmath as mp
from dataclasses import dataclass

from .combinations import ZetaCombination
from .formulas import (
    Family,
    FamilySpec,
    mahler_measure,
    reduction_identity,
)
from .identities import (
    check_bernoulli_euler_transfer,
    check_bernoulli_halving,
    check_bernoulli_recurrence,
    check_bernoulli_transfer,
    check_log_moment_poly_properties,
    check_symmetric_transfer,
    check_weighted_factorial_sum,
    log_moment_poly_bernoulli_form,
    monomial_from_log_moment_polys,
    reduction_induction_identity,
)
from .exact import PolyQ, log_moment_poly
from .oracle import (
    closed_form_measure,
    kernel_integral_check,
    log1p_moment_check,
    log_square_moment_check,
    arctangent_moment_check,
    reduced_integral,
    torus_qmc,
    unit_log_moment_check,
)
from .store import ConstantStore
from .tables import errata_rows, reproduce_tables
from .values import combination_value

__all__ = ["OutputRecord", "build_parser", "main"]


@dataclass(frozen=True)
class OutputRecord:
    """Machine-readable result of one closed-form evaluation.

    The ``combination`` field stores the symbolic result as
    ``(kind, arg, pi_power, coeff_numerator, coeff_denominator)`` tuples and
    round-trips losslessly through :meth:`to_combination`.
    """

    family: str
    n_transforms: int
    pi_normalization: int
    combination: Tuple[Tuple[str, int, int, int, int], ...]
    numeric_value: str
    digits: int
    oracle_value: Optional[str] = None
    oracle_method: Optional[str] = None
    agreement: Optional[bool] = None

    @classmethod
    def from_evaluation(
        cls,
        spec: FamilySpec,
        combination: ZetaCombination,
        numeric_value: str,
        digits: int,
        oracle_value: Optional[str] = None,
        oracle_method: Optional[str] = None,
        agreement: Optional[bool] = None,
    ) -> "OutputRecord":
        terms = tuple(
            (element.kind, element.arg, element.pi_power, coeff.numerator, coeff.denominator)
            for element, coeff in combination.terms()
        )
        return cls(
            family=spec.family.value,
            n_transforms=spec.n_transforms,
            pi_normalization=spec.pi_normalization,
            combination=terms,
            numeric_value=numeric_value,
            digits=digits,
            oracle_value=oracle_value,
            oracle_method=oracle_method,
            agreement=agreement,
        )

    def to_combination(self) -> ZetaCombination:
        """Rebuild the exact symbolic combination from the serialized terms."""
        records = [
            {
                "kind": kind,
                "arg": arg,
                "pi_power": pi_power,
                "coeff": "%d/%d" % (numerator, denominator),
            }
            for kind, arg, pi_power, numerator, denominator in self.combination
        ]
        return ZetaCombination.from_records(records)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n_transforms": self.n_transforms,
            "pi_normalization": self.pi_normalization,
            "combination": [list(term) for term in self.combination],
            "numeric_value": self.numeric_value,
            "digits": self.digits,
            "oracle_value": self.oracle_value,
            "oracle_method": self.oracle_method,
            "agreement": self.agreement,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OutputRecord":
        return cls(
            family=data["family"],
            n_transforms=data["n_transforms"],
            pi_normalization=data["pi_normalization"],
            combination=tuple(
                (term[0], int(term[1]), int(term[2]), int(term[3]), int(term[4]))
                for term in data["combination"]
            ),
            numeric_value=data["numeric_value"],
            digits=data["digits"],
            oracle_value=data.get("oracle_value"),
            oracle_method=data.get("oracle_method"),
            agreement=data.get("agreement"),
        )


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
    try:
        family = Family.from_label(args.family)
        spec = FamilySpec(family, args.n)
        if args.digits < 1:
            raise ValueError("digits must be positive")
        result = mahler_measure(spec)
        store = _open_store(args.store)
        with mp.workdps(args.digits + 10):
            value = combination_value(result.combination, digits=args.digits, store=store)
            numeric = mp.nstr(value, args.digits)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    record = OutputRecord.from_evaluation(spec, result.combination, numeric, args.digits)
    if args.format == "json":
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        label = _pi_label(spec.pi_normalization)
        print("family %s with %d transform(s)" % (family.value, spec.n_transforms))
        print("%s = %s" % (label, result.combination.format_text()))
        print("%s = %s to %d digits" % (label, numeric, args.digits))
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

Check = Tuple[str, Callable[[], bool]]


def _identity_checks(max_n: int) -> List[Check]:
    degree = 2 * max_n

    def monomials_recombine() -> bool:
        for d in range(1, degree + 1):
            rebuilt = PolyQ.zero()
            for k, coefficient in monomial_from_log_moment_polys(d):
                rebuilt = rebuilt + log_moment_poly(k) * coefficient
            if rebuilt != PolyQ.monomial(d):
                return False
        return True

    return [
        (
            "identities/reduction-ab",
            lambda: all(reduction_identity(n, "ab") for n in range(1, max_n + 1)),
        ),
        (
            "identities/reduction-ba",
            lambda: all(reduction_identity(n, "ba") for n in range(max_n + 1)),
        ),
        (
            "identities/reduction-induction-ab",
            lambda: all(reduction_induction_identity(n, "ab") for n in range(1, max_n + 1)),
        ),
        (
            "identities/reduction-induction-ba",
            lambda: all(reduction_induction_identity(n, "ba") for n in range(max_n + 1)),
        ),
        (
            "identities/symmetric-transfer-first",
            lambda: all(
                check_symmetric_transfer(n, l, "first")
                for n in range(1, max_n + 1)
                for l in range(1, n + 1)
            ),
        ),
        (
            "identities/symmetric-transfer-second",
            lambda: all(
                check_symmetric_transfer(n, l, "second")
                for n in range(max_n + 1)
                for l in range(n + 1)
            ),
        ),
        (
            "identities/bernoulli-transfer-first",
            lambda: all(
                check_bernoulli_transfer(n, l, variant="first")
                for n in range(1, max_n + 1)
                for l in range(1, n + 1)
            ),
        ),
        (
            "identities/bernoulli-transfer-second",
            lambda: all(
                check_bernoulli_transfer(n, variant="second") for n in range(1, max_n + 1)
            ),
        ),
        (
            "identities/bernoulli-transfer-third",
            lambda: all(
                check_bernoulli_transfer(n, l, variant="third")
                for n in range(max_n + 1)
                for l in range(n + 1)
            ),
        ),
        (
            "identities/bernoulli-euler-transfer",
            lambda: all(
                check_bernoulli_euler_transfer(n, l)
                for n in range(1, max_n + 1)
                for l in range(1, n + 1)
            ),
        ),
        (
            "identities/weighted-factorial-sums",
            lambda: all(
                check_weighted_factorial_sum(n, variant)
                for variant in ("euler", "euler_shifted")
                for n in range(max_n + 1)
            )
            and all(
                check_weighted_factorial_sum(n, "bernoulli") for n in range(1, max_n + 1)
            ),
        ),
        (
            "identities/bernoulli-recurrence",
            lambda: all(check_bernoulli_recurrence(k) for k in range(1, degree + 1)),
        ),
        (
            "identities/bernoulli-halving",
            lambda: all(check_bernoulli_halving(k) for k in range(degree + 1)),
        ),
        (
            "identities/log-moment-poly-properties",
            lambda: all(check_log_moment_poly_properties(k) for k in range(degree + 1)),
        ),
        (
            "identities/log-moment-poly-bernoulli-form",
            lambda: all(
                log_moment_poly_bernoulli_form(k) == log_moment_poly(k)
                for k in range(degree + 1)
            ),
        ),
        ("identities/monomial-decomposition", monomials_recombine),
    ]


def _table_checks() -> List[Check]:
    def rows_reproduce() -> bool:
        return all(matches for _, _, matches in reproduce_tables())

    checks: List[Check] = [("tables/all-rows-match-canonical", rows_reproduce)]
    for row in errata_rows():
        name = "tables/erratum-family-%s-%d-transforms" % (
            row.spec.family.value,
            row.spec.n_transforms,
        )

        def erratum_pinned(row=row) -> bool:
            evaluated = mahler_measure(row.spec).combination
            return evaluated == row.corrected and evaluated != row.printed

        checks.append((name, erratum_pinned))
    return checks


def _oracle_checks(max_n: int, tolerance: float, seed: int) -> List[Check]:
    transforms_cap = min(max_n, 4)

    def reduced_family(family: Family, smallest: int) -> Callable[[], bool]:
        def run() -> bool:
            for transforms in range(smallest, transforms_cap + 1):
                spec = FamilySpec(family, transforms)
                estimate = reduced_integral(spec)
                if abs(estimate.value - closed_form_measure(spec)) > tolerance:
                    return False
            return True

        return run

    def kernel_cases() -> bool:
        import numpy as np

        rng = np.random.default_rng(seed)
        for _ in range(20):
            a, b = rng.uniform(0.1, 10.0, size=2)
            while abs(a - b) < 0.15:
                a, b = rng.uniform(0.1, 10.0, size=2)
            k = int(rng.integers(0, 7))
            if not kernel_integral_check(float(a), float(b), k).agree:
                return False
        return True

    def unit_moments() -> bool:
        return all(unit_log_moment_check(j, "minus").agree for j in range(1, 7)) and all(
            unit_log_moment_check(j, "plus").agree for j in range(7)
        )

    def defining_integrals() -> bool:
        return (
            all(log1p_moment_check(h).agree for h in (1, 2, 3))
            and all(log_square_moment_check(h).agree for h in (0, 1, 2, 3))
            and all(arctangent_moment_check(h).agree for h in (0, 1, 2, 3))
        )

    def torus_sample() -> bool:
        estimate = torus_qmc(FamilySpec(Family.ONE, 1), samples=200_000, seed=seed)
        with mp.workdps(30):
            truth = float(2 * mp.catalan / mp.pi)
        return abs(estimate.value - truth) <= 4 * estimate.error_estimate + 1e-5

    return [
        ("oracle/reduced-vs-closed-family-i", reduced_family(Family.ONE, 1)),
        ("oracle/reduced-vs-closed-family-ii", reduced_family(Family.TWO, 0)),
        ("oracle/reduced-vs-closed-family-iii", reduced_family(Family.THREE, 1)),
        ("oracle/kernel-integral-seeded-cases", kernel_cases),
        ("oracle/unit-log-moments", unit_moments),
        ("oracle/defining-integrals", defining_integrals),
        ("oracle/torus-qmc-family-i", torus_sample),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the selected verification suites and report per-check results."""
    if args.max_n < 1:
        print("error: --max-n must be positive", file=sys.stderr)
        return 2
    if args.tolerance <= 0:
        print("error: --tolerance must be positive", file=sys.stderr)
        return 2
    checks: List[Check] = []
    if args.suite in ("identities", "all"):
        checks.extend(_identity_checks(args.max_n))
    if args.suite in ("tables", "all"):
        checks.extend(_table_checks())
    if args.suite in ("oracle", "all"):
        checks.extend(_oracle_checks(args.max_n, args.tolerance, args.seed))
    failures: List[str] = []
    for name, run in checks:
        try:
            passed = bool(run())
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


def _combination_for(kind: str, arg: int) -> ZetaCombination:
    if kind == "zeta":
        return ZetaCombination.zeta(arg)
    if kind == "lchi4":
        return ZetaCombination.lchi4(arg)
    if kind == "l3_ii":
        return ZetaCombination.l3_ii(arg)
    if kind == "log2":
        return ZetaCombination.log2()
    raise ValueError("unknown constant kind %r" % (kind,))


def cmd_constants(args: argparse.Namespace) -> int:
    """List the constant store or warm it to a requested precision."""
    try:
        store = _open_store(args.store)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.action == "list":
        for kind, arg, digits, value in store.entries():
            print("%s %d %d %s" % (kind, arg, digits, value))
        return 0
    # warm
    if args.digits < 1:
        print("error: --digits must be positive", file=sys.stderr)
        return 2
    computed = 0
    for kind, arg in _WARM_TARGETS:
        if store.get(kind, arg, args.digits) is not None:
            continue
        try:
            combination_value(_combination_for(kind, arg), digits=args.digits, store=store)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except RuntimeError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 3
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
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
