"""Output checks: every result is compared with data from outside its code path.

* ``exact`` results against golden ``to_records()`` output (``data/golden.json``);
* ``eval`` output: the combination against the golden records, and the value
  at the requested digits against a reference evaluated here with mpmath's
  own ``zeta``, ``dirichlet`` and ``log``, and with the ``l3_ii`` values of
  ``data/l3_ii.json`` (made without ``values.multiple_polylog``);
* oracle estimates with the agreement rules of ``mahlerzeta verify``: four
  standard errors (plus 1e-5) for QMC and an absolute tolerance of 1e-7 for
  quadrature.

Each check returns ``None`` when the output is right, else the reason.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import mpmath as mp

DATA = Path(__file__).resolve().parent / "data"
QMC_SIGMAS = 4.0
QMC_SLACK = 1e-5
QUAD_TOLERANCE = 1e-7
# A value passes when it is within half a unit in its last requested digit;
# the small excess allows the program's own rounding of a value within its
# guard digits.
ULP_SHARE = 0.5001

Term = Tuple[str, int, int, int, int]


def member_key(family: str, n: int) -> str:
    return "%s/%d" % (family, n)


def records_digest(records) -> str:
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def records_terms(records) -> List[Term]:
    """Records as sorted ``(kind, arg, pi_power, numerator, denominator)`` terms."""
    terms = []
    for record in records:
        coeff = Fraction(record["coeff"])
        terms.append((record["kind"], int(record["arg"]), int(record["pi_power"]),
                      coeff.numerator, coeff.denominator))
    return sorted(terms)


class References:
    """Golden exact results and reference constants."""

    def __init__(self) -> None:
        golden = json.loads((DATA / "golden.json").read_text())
        self.digests: Dict[str, str] = golden["digests"]
        self.records: Dict[str, list] = golden["records"]
        l3_ii = json.loads((DATA / "l3_ii.json").read_text())
        self.l3_ii_digits: int = l3_ii["digits"]
        self.l3_ii: Dict[int, str] = {int(b): v for b, v in l3_ii["values"].items()}

    def constant(self, kind: str, arg: int, digits: int):
        """A base constant at the current mpmath precision (``digits`` checked for ``l3_ii``)."""
        if kind == "one":
            return mp.mpf(1)
        if kind == "zeta":
            return mp.zeta(arg)
        if kind == "lchi4":
            return mp.dirichlet(arg, [0, 1, 0, -1])
        if kind == "log2":
            return mp.log(2)
        if kind == "l3_ii":
            if arg not in self.l3_ii or digits + 5 > self.l3_ii_digits:
                raise LookupError("no l3_ii(%d) reference to %d digits" % (arg, digits))
            return mp.mpf(self.l3_ii[arg])
        raise LookupError("unknown constant kind %r" % (kind,))

    def value(self, terms: List[Term], digits: int):
        """The reference value of a combination, to ``digits + 20`` digits."""
        with mp.workdps(digits + 20):
            total = mp.mpf(0)
            for kind, arg, pi_power, numerator, denominator in terms:
                total += mp.mpf(numerator) / denominator * mp.pi ** pi_power * self.constant(kind, arg, digits)
            return +total

    def check_exact(self, family: str, n: int, records) -> Optional[str]:
        key = member_key(family, n)
        if key not in self.digests:
            return "no golden result for %s" % key
        if records_digest(records) != self.digests[key]:
            return "%s: records differ from the golden output" % key
        return None

    def check_eval(self, family: str, n: int, digits: int, output: str) -> Optional[str]:
        """Check the JSON printed by ``mahlerzeta eval --format json``."""
        key = member_key(family, n)
        try:
            record = json.loads(output)
            terms = sorted(tuple(term) for term in record["combination"])
            printed = record["numeric_value"]
            header = (record["family"], record["n_transforms"], record["digits"])
        except (ValueError, KeyError, TypeError) as exc:
            return "%s: unreadable output (%s)" % (key, exc)
        if header != (family, n, digits):
            return "%s: output is for %r" % (key, header)
        if key not in self.records:
            return "no golden records for %s" % key
        expected = records_terms(self.records[key])
        if terms != expected:
            return "%s: combination differs from the golden records" % key
        return self.check_value(expected, digits, printed, key)

    def check_value(self, terms: List[Term], digits: int, printed: str, label: str = "") -> Optional[str]:
        try:
            reference = self.value(terms, digits)
        except LookupError as exc:
            return "%s: %s" % (label, exc)
        with mp.workdps(digits + 20):
            try:
                value = mp.mpf(printed)
            except (ValueError, TypeError):
                return "%s: value %r is not a number" % (label, printed)
            ulp = mp.mpf(10) ** (int(mp.floor(mp.log10(abs(reference)))) - digits + 1)
            if abs(value - reference) > ULP_SHARE * ulp:
                return "%s: value %s is off by %s units in digit %d" % (
                    label, printed, mp.nstr(abs(value - reference) / ulp, 3), digits)
        return None


def check_qmc(value: float, sigma: float, closed: float) -> Optional[str]:
    if not abs(value - closed) <= QMC_SIGMAS * sigma + QMC_SLACK:
        return "qmc %.12g is %.3g sigma from the closed form %.12g" % (value, abs(value - closed) / sigma, closed)
    return None


def check_quad(value: float, closed: float) -> Optional[str]:
    if not abs(value - closed) <= QUAD_TOLERANCE:
        return "quadrature %.15g differs from the closed form %.15g by %.3g" % (value, closed, abs(value - closed))
    return None
