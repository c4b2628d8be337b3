"""Benchmark worker: runs an in-process workload in a fresh interpreter.

``run.py`` starts it as ``python3 perfbench/worker.py CONFIG_JSON`` with the
package on ``PYTHONPATH``.  The worker imports the package, does the
workload's set-up and prints ``{"ready": true}``.  It then reads one job line
from stdin (end of input means set-up only) and runs the job's requests one at
a time until the first round boundary past the job's time limit, printing one
JSON line per request and a final ``{"done": true, ...}`` line.  When the
job names a probe of ``PROBES``, it also times that fixed piece of work
before the first request, between requests at least every ``PROBE_EVERY_S``
seconds and after the last, printing ``{"probe": seconds}``.
With a spans path in the config, the calls into the package are traced and
the spans written there at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction

# 2**21 samples in 128 shifted replicates: a fifth of the acceptance test's
# 1e7, so a run completes enough QMC requests for a tail percentile.  The
# integrands are singular, so replicate means are skewed and a few
# replicates give an error bar that is too small: with 32, two of 520
# estimates of family ii at n = 0 and 1 fell 4.5 and 4.7 error bars from the
# closed form, and the 4-sigma rule of ``verify`` failed.  With 128, 240
# estimates stayed within 3.2.
QMC_SAMPLES = 2**21
QMC_REPLICATES = 128
CLOSED_FORM_DIGITS = 25
PROBE_EVERY_S = 0.2


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def rationals_probe() -> float:
    """Time a fixed sum of rationals in pure Python, the shape of exact-layer work.

    The package is not involved, so the time measures only the host's speed,
    which on a shared machine drifts by a fifth or more within seconds.
    """
    start = time.perf_counter()
    for _ in range(5):
        total = Fraction(0)
        for k in range(1, 400):
            total += Fraction(1, k)
    return time.perf_counter() - start


def numpy_probe() -> float:
    """Time a fixed numpy average over 16384 torus points, the shape of QMC work.

    The sums of rationals of ``rationals_probe`` track the oracle's numpy work
    badly; this does not call the package either.
    """
    import numpy as np

    points = np.random.default_rng(0).random((16384, 3))
    start = time.perf_counter()
    for shift in range(6):
        z = np.exp(2j * np.pi * (points + shift / 7.0))
        float(np.log(np.abs((1 + z).prod(axis=1)) + 1e-300).mean())
    return time.perf_counter() - start


PROBES = {"rationals": rationals_probe, "numpy": numpy_probe}


def closed_forms(mz, store_path: str) -> dict:
    """Closed-form measures of every crosscheck member, from a store warmed here."""
    import mpmath as mp

    import workloads

    store = mz.ConstantStore(store_path)
    closed = {}
    for family, n in set(workloads.QMC_MEMBERS + workloads.QUAD_MEMBERS):
        result = mz.mahler_measure(mz.FamilySpec(mz.Family.from_label(family), n))
        with mp.workdps(CLOSED_FORM_DIGITS + 10):
            value = mz.combination_value(result.combination, digits=CLOSED_FORM_DIGITS, store=store)
            closed[(family, n)] = float(value / mp.pi ** result.pi_normalization)
    return closed


def serve(mz, request: dict, closed: dict) -> dict:
    """Run one request; the latency covers only the call into the package."""
    spec = mz.FamilySpec(mz.Family.from_label(request["family"]), request["n"])
    start = time.perf_counter()
    if request["kind"] == "exact":
        result = mz.mahler_measure(spec)
        latency = time.perf_counter() - start
        return {"latency": latency, "records": result.combination.to_records()}
    if request["kind"] == "qmc":
        estimate = mz.torus_qmc(spec, samples=QMC_SAMPLES, seed=request["qmc_seed"], replicates=QMC_REPLICATES)
    else:
        estimate = mz.reduced_integral(spec)
    latency = time.perf_counter() - start
    return {
        "latency": latency,
        "value": estimate.value,
        "sigma": estimate.error_estimate,
        "evaluations": estimate.evaluations,
        "closed": closed[(request["family"], request["n"])],
    }


def main() -> None:
    started = time.perf_counter()
    config = json.loads(sys.argv[1])
    import mahlerzeta as mz

    imported = time.perf_counter()
    tracer = None
    if config["spans"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.request = -1
        tracer.record("process.import", started, imported)
    closed = closed_forms(mz, config["store"]) if config["workload"] == "crosscheck" else {}
    if tracer is not None:
        tracer.install()
    emit({"ready": True})
    line = sys.stdin.readline()
    if not line:
        return
    job = json.loads(line)
    probe = PROBES[job["probe"]] if job["probe"] else None
    if probe:
        emit({"probe": probe()})
    loop_start = last_probe = time.perf_counter()
    current_round = None
    for index, request in enumerate(job["requests"]):
        # a run stops only between rounds
        if request["round"] != current_round:
            if job["seconds"] is not None and time.perf_counter() - loop_start >= job["seconds"]:
                break
            current_round = request["round"]
        if probe and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            emit({"probe": probe()})
            last_probe = time.perf_counter()
        if tracer is not None:
            tracer.request = index
        request_start = time.perf_counter()
        try:
            out = serve(mz, request, closed)
        except Exception:  # a request that raises is a failed request
            out = {"latency": time.perf_counter() - request_start, "error": traceback.format_exc(limit=3)}
        out["i"] = index
        emit(out)
    if probe:
        emit({"probe": probe()})
    emit({"done": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    if tracer is not None:
        tracer.write(config["spans"])


if __name__ == "__main__":
    main()
