"""Write ``data/golden.json``: the exact results the benchmark checks against.

For every family member a workload can request, the file holds the SHA-256
digest of ``mahler_measure(spec).combination.to_records()`` in canonical JSON
(see ``checks.records_digest``).  For ``n <= 20`` it also holds the records
themselves, which the eval workloads use to evaluate reference values.

The golden output was produced by the package itself and is a regression
oracle: it pins the exact layer as it stands, whose formulas the package's
own identity suites and numeric oracles check.

Run from the repository root:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mahlerzeta import Family, FamilySpec, mahler_measure  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    digests = {}
    records = {}
    for family, n in workloads.all_family_members():
        key = checks.member_key(family, n)
        combo = mahler_measure(FamilySpec(Family.from_label(family), n)).combination
        digests[key] = checks.records_digest(combo.to_records())
        if n <= workloads.SMALL_N_MAX:
            records[key] = combo.to_records()
    out = {"digests": digests, "records": records}
    (HERE / "data" / "golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests, %d record sets" % (len(digests), len(records)))


if __name__ == "__main__":
    main()
