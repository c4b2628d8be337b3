"""Self-tests of the benchmark's request streams, output checks and statistics.

Run from the repository root (takes a few seconds)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath as mp  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 12


def take(workload: str, seed: int, count: int):
    requests = workloads.stream(workload, seed)
    return [next(requests) for _ in range(count)]


def eval_output(family: str, n: int, digits: int, value: str, terms) -> str:
    """What ``mahlerzeta eval --format json`` prints, reduced to the checked fields."""
    return json.dumps({
        "family": family,
        "n_transforms": n,
        "digits": digits,
        "numeric_value": value,
        "combination": [list(term) for term in terms],
    })


def bump_last_digit(value: str) -> str:
    mantissa, sep, exponent = value.partition("e")
    last = max(i for i, ch in enumerate(mantissa) if ch.isdigit())
    digit = (int(mantissa[last]) + 1) % 10
    return mantissa[:last] + str(digit) + mantissa[last + 1:] + sep + exponent


class RequestStreams(unittest.TestCase):
    def test_a_seed_always_gives_the_same_requests(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(take(workload, 7, 300), take(workload, 7, 300))
            self.assertNotEqual(take(workload, 7, 300), take(workload, 8, 300))

    def test_every_seed_keeps_each_rounds_shares(self):
        for workload in workloads.WORKLOADS:
            classes, heavy = workloads.round_classes(workload)
            per_round = Counter(cls.name for cls in classes)
            for seed in range(25):
                requests = [r for r, _ in take(workload, seed, ROUNDS * len(classes))]
                for start in range(0, len(requests), len(classes)):
                    chunk = requests[start:start + len(classes)]
                    self.assertEqual(Counter(r.cls for r in chunk), per_round, (workload, seed))
                    self.assertEqual([r.cls for r in chunk[:heavy]], [c.name for c in classes[:heavy]])

    def test_rounds_are_numbered_in_order(self):
        for workload in workloads.WORKLOADS:
            size = len(workloads.round_classes(workload)[0])
            requests = [r for r, _ in take(workload, 5, 4 * size)]
            self.assertEqual([r.round for r in requests], [i // size for i in range(4 * size)])

    def test_requests_stay_within_their_class(self):
        for workload in workloads.WORKLOADS:
            classes, _ = workloads.round_classes(workload)
            by_name = {cls.name: cls for cls in classes}
            for seed in range(10):
                for request, deadline in take(workload, seed, 200):
                    cls = by_name[request.cls]
                    self.assertIn((request.family, request.n), [m for g in cls.groups for m in g])
                    self.assertEqual(deadline, cls.deadline_s)
                    if request.kind == "eval":
                        self.assertTrue(cls.digits[0] <= request.digits <= cls.digits[1])

    def test_whole_pool_classes_cover_their_pool_each_round(self):
        cases = (("crosscheck", "torus-qmc", workloads.QMC_MEMBERS),
                 ("crosscheck", "reduced-integral", workloads.QUAD_MEMBERS),
                 ("exact-sweep", "small", workloads.SMALL.groups[0]))
        for workload, name, pool in cases:
            size = len(workloads.round_classes(workload)[0])
            for seed in range(5):
                requests = [r for r, _ in take(workload, seed, 3 * size)]
                for start in range(0, len(requests), size):
                    drawn = [(r.family, r.n) for r in requests[start:start + size] if r.cls == name]
                    self.assertEqual(sorted(drawn), sorted(pool), (workload, name, seed))


class OutputChecks(unittest.TestCase):
    refs = checks.References()
    cases = (("i", 4, 30), ("ii", 3, 30), ("ii", 5, 12), ("iii", 7, 60), ("ii", 20, 100), ("iii", 1, 10))

    def right_value(self, family, n, digits):
        terms = checks.records_terms(self.refs.records[checks.member_key(family, n)])
        with mp.workdps(digits + 20):
            return terms, mp.nstr(self.refs.value(terms, digits), digits)

    def test_right_values_pass(self):
        for family, n, digits in self.cases:
            terms, value = self.right_value(family, n, digits)
            self.assertIsNone(self.refs.check_eval(family, n, digits, eval_output(family, n, digits, value, terms)))

    def test_a_value_off_in_its_last_requested_digit_fails(self):
        for family, n, digits in self.cases:
            terms, value = self.right_value(family, n, digits)
            wrong = bump_last_digit(value)
            self.assertIsNotNone(self.refs.check_eval(family, n, digits, eval_output(family, n, digits, wrong, terms)))

    def test_a_short_value_fails(self):
        terms, value = self.right_value("i", 4, 30)
        self.assertIsNotNone(self.refs.check_eval("i", 4, 30, eval_output("i", 4, 30, value[:20], terms)))

    def test_a_changed_coefficient_fails(self):
        family, n, digits = "iii", 7, 30
        terms, value = self.right_value(family, n, digits)
        kind, arg, pi_power, numerator, denominator = terms[0]
        changed = [(kind, arg, pi_power, numerator + 1, denominator)] + terms[1:]
        self.assertIsNotNone(self.refs.check_eval(family, n, digits, eval_output(family, n, digits, value, changed)))
        records = self.refs.records[checks.member_key(family, n)]
        self.assertIsNone(self.refs.check_exact(family, n, records))
        edited = [dict(record) for record in records]
        edited[0]["coeff"] = str(Fraction(edited[0]["coeff"]) + 1)
        self.assertIsNotNone(self.refs.check_exact(family, n, edited))

    def test_golden_records_match_the_package(self):
        from mahlerzeta import Family, FamilySpec, mahler_measure

        for family, n in (("i", 1), ("ii", 0), ("ii", 9), ("iii", 20), ("i", 100)):
            records = mahler_measure(FamilySpec(Family.from_label(family), n)).combination.to_records()
            self.assertIsNone(self.refs.check_exact(family, n, records))

    def test_oracle_rules(self):
        self.assertIsNone(checks.check_qmc(1.0 + 3.9e-3, 1e-3, 1.0))
        self.assertIsNotNone(checks.check_qmc(1.0 + 4.2e-3, 1e-3, 1.0))
        self.assertIsNone(checks.check_quad(1.0 + 9e-8, 1.0))
        self.assertIsNotNone(checks.check_quad(1.0 + 2e-7, 1.0))


class Statistics(unittest.TestCase):
    def test_latencies_scale_by_the_probes_around_them(self):
        # reference 1 s; the mean of up to two probes on each side counts
        probes = [1.0, 2.0, 4.0, 5.0, 8.0]
        scaled = run.host_scaled([6.0] * 4, probes, [0, 1, 2, 5], 1.0)
        self.assertEqual(scaled, [6.0 / 1.5, 6.0 / (7.0 / 3), 6.0 / 3.0, 6.0 / 6.5])

    def test_tail_has_ten_samples_beyond_it(self):
        summary = run.latency_summary([float(i) for i in range(40, 0, -1)])
        self.assertEqual(summary["count"], 40)
        self.assertEqual(summary["p50"], 20.0)
        self.assertEqual(summary["tail"], 30.0)
        self.assertEqual(summary["tail_beyond"], 10)
        self.assertEqual(summary["tail_percentile"], 75.0)

    def test_tail_of_few_samples_has_one_beyond_it(self):
        summary = run.latency_summary([3.0, 1.0, 2.0, 4.0])
        self.assertEqual((summary["p50"], summary["tail"], summary["tail_beyond"]), (2.0, 3.0, 1))
        self.assertEqual(summary["tail_percentile"], 75.0)
        self.assertEqual(run.latency_summary([5.0])["tail"], 5.0)


if __name__ == "__main__":
    unittest.main()
