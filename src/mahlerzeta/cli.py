"""Command-line interface for evaluating and verifying the measure formulas.

Three subcommands are exposed:

* ``eval`` prints the closed-form combination and its numeric value for one
  family member, as text or schema-stable JSON;
* ``verify`` runs the exact identity suites, the table-reproduction fixture,
  and the numerical oracle cross-checks, one pass/fail line per check.  All
  checks sit in one ordered registry, :mod:`mahlerzeta.check.registry`,
  which only ``verify`` imports; a check's suite is the prefix of its name;
* ``constants`` lists or pre-computes the persistent constant store.

Exit codes are uniform across commands: 0 on success, 1 when a verification
check fails, 2 on usage errors, 3 when a numeric evaluation fails (a constant
does not reach the requested digits), 4 when a third-party package that the
command needs is not installed (``verify``'s oracle suite imports numpy and
mpmath).  Commands raise; :func:`main` alone turns an ``OSError``/
``ValueError`` (2), ``RuntimeError`` (3) or ``ModuleNotFoundError`` (4) into
one ``error:`` line and its exit code.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .combinations import ConstantBasisElement, ZetaCombination, _digits
from .formulas import Family, FamilySpec, mahler_measure
from .store import ConstantStore
from .values import _combination_decimal, _nstr

__all__ = ["build_parser", "main"]


def _pi_label(power: int) -> str:
    if power == 0:
        return "m"
    if power == 1:
        return "pi * m"
    return "pi^%d * m" % power


def cmd_eval(args: argparse.Namespace) -> int:
    """Evaluate one family member and print its closed form."""
    family = Family.from_label(args.family)
    spec = FamilySpec(family, args.n)
    if args.digits < 1:
        raise ValueError("digits must be positive")
    result = mahler_measure(spec)
    store = ConstantStore(args.store)
    numeric = _nstr(_combination_decimal(result.combination, args.digits, store), args.digits)
    if args.format == "json":
        import json
        import re

        # json prints integers with str(), which refuses more than 4,300
        # digits (coefficients pass that from n = 1857): each coefficient goes
        # in as the placeholder string "\0<j>", which no other value holds,
        # and the digits of the j-th integer replace it
        integers: List[str] = []

        def placeholder(value: int) -> str:
            integers.append(_digits(value))
            return "\0%d" % (len(integers) - 1)

        record = {
            "family": family.value,
            "n_transforms": spec.n_transforms,
            "pi_normalization": spec.pi_normalization,
            "combination": [
                [
                    element.kind,
                    element.arg,
                    element.pi_power,
                    placeholder(coeff.numerator),
                    placeholder(coeff.denominator),
                ]
                for element, coeff in result.combination.terms()
            ],
            "numeric_value": numeric,
            "digits": args.digits,
            # kept so that the schema stays stable; eval runs no oracle
            "oracle_value": None,
            "oracle_method": None,
            "agreement": None,
        }
        text = json.dumps(record, indent=2, sort_keys=True)
        print(re.sub(r'"\\u0000(\d+)"', lambda match: integers[int(match.group(1))], text))
    else:
        label = _pi_label(spec.pi_normalization)
        print("family %s with %d transform(s)" % (family.value, spec.n_transforms))
        print("%s = %s" % (label, result.combination.format_text()))
        print("%s = %s to %d digits" % (label, numeric, args.digits))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the selected verification suites and report per-check results."""
    if args.max_n < 1:
        raise ValueError("--max-n must be positive")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    from .check.registry import run_checks

    return run_checks(args)


# ---------------------------------------------------------------------------
# constant store management
# ---------------------------------------------------------------------------

_WARM_TARGETS: Tuple[Tuple[str, int], ...] = (
    tuple(("zeta", s) for s in range(3, 22, 2))
    + tuple(("lchi4", s) for s in range(2, 21, 2))
    + (("log2", 0),)
)


def cmd_constants(args: argparse.Namespace) -> int:
    """List the constant store or warm it to a requested precision."""
    store = ConstantStore(args.store)
    if args.action == "list":
        for kind, arg, digits, value in store.entries():
            print("%s %d %d %s" % (kind, arg, digits, value))
        return 0
    # warm
    if args.digits < 1:
        raise ValueError("--digits must be positive")
    # one combination of the missing targets, so the store is saved once
    missing = [
        (ConstantBasisElement(kind, arg, 0), 1)
        for kind, arg in _WARM_TARGETS
        if store.get(kind, arg, args.digits) is None
    ]
    _combination_decimal(ZetaCombination(missing), args.digits, store)
    print(
        "store %s holds %d constants (%d computed at %d digits)"
        % (store.path, len(store), len(missing), args.digits)
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
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument(
        "--store",
        default=None,
        help="path of the constant store (default: MAHLERZETA_STORE or ~/.cache/mahlerzeta/constants.txt)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    eval_parser = subparsers.add_parser(
        "eval", parents=[store], help="print the closed form of one family member"
    )
    eval_parser.add_argument("--family", required=True, choices=("i", "ii", "iii"))
    eval_parser.add_argument("--n", required=True, type=int, help="number of transforms")
    eval_parser.add_argument("--digits", type=int, default=30)
    eval_parser.add_argument("--format", choices=("text", "json"), default="text")
    eval_parser.set_defaults(handler=cmd_eval)

    verify_parser = subparsers.add_parser("verify", help="run verification suites")
    verify_parser.add_argument(
        "--suite", choices=("identities", "tables", "oracle", "all"), default="all"
    )
    verify_parser.add_argument("--max-n", dest="max_n", type=int, default=20)
    verify_parser.add_argument("--seed", type=int, default=42)
    verify_parser.set_defaults(handler=cmd_verify)

    constants_parser = subparsers.add_parser(
        "constants", parents=[store], help="list or warm the constant store"
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
    except ModuleNotFoundError as exc:
        print(
            "error: %s needs the package %s, which is not installed"
            % (args.command, exc.name or exc),
            file=sys.stderr,
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
