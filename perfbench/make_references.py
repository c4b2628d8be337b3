"""Write ``data/l3_ii.json``: reference values of the ``l3_ii`` constants.

The package evaluates ``l3_ii(b) = i * scriptL_{3,b}(i, i)`` from the double
series in ``mahlerzeta.values.multiple_polylog``.  The benchmark checks those
values against this file, so it is computed here by a route that shares no
code with the package: the Mellin-type integral

    Li_{r,s}(x1, x2) = 1/Gamma(r) * int_0^inf t^(r-1)
                       (x1 e^-t Li_s(x2) - Li_s(x1 x2 e^-t)) / (1 - x1 e^-t) dt

for ``Li_{r,s}(x1, x2) = sum_{0<k1<k2} x1^k1 x2^k2 / (k1^r k2^s)``, evaluated
with ``mpmath.quad`` and ``mpmath.polylog``.  Each value is computed at two
working precisions, and the file keeps only the digits on which they agree.

Run from the repository root (takes several minutes):

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

INDICES = (1, 3, 5)
DIGITS = 60
OUT = Path(__file__).resolve().parent / "data" / "l3_ii.json"


def double_polylog(r: int, s: int, x1, x2):
    def integrand(t):
        damped = x1 * mp.exp(-t)
        return t ** (r - 1) * (damped * mp.polylog(s, x2) - mp.polylog(s, x2 * damped)) / (1 - damped)

    return mp.quad(integrand, [0, 1, 4, 16, mp.inf]) / mp.gamma(r)


def l3_ii(b: int):
    i = mp.mpc(0, 1)
    script_l = 2 * (
        double_polylog(3, b, i, i)
        - double_polylog(3, b, -i, i)
        + double_polylog(3, b, i, -i)
        - double_polylog(3, b, -i, -i)
    )
    return i * script_l


def main() -> None:
    values = {}
    for b in INDICES:
        estimates = []
        for dps in (DIGITS + 10, DIGITS + 25):
            with mp.workdps(dps):
                estimates.append(l3_ii(b))
        with mp.workdps(DIGITS + 25):
            low, high = estimates
            if abs(high.imag) > mp.mpf(10) ** (-DIGITS) or abs(high - low) > mp.mpf(10) ** (-DIGITS) * abs(high):
                raise SystemExit("l3_ii(%d): precisions disagree beyond %d digits" % (b, DIGITS))
            values[str(b)] = mp.nstr(high.real, DIGITS)
        print("l3_ii(%d) = %s" % (b, values[str(b)]), flush=True)
    OUT.write_text(json.dumps({"digits": DIGITS, "values": values}, indent=2) + "\n")


if __name__ == "__main__":
    main()
