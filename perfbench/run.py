"""Benchmark of mahlerzeta: closed-loop workloads that each load one layer.

Run from the repository root::

    python3 perfbench/run.py --workload eval-warm --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``eval-warm``   - ``mahlerzeta eval`` processes against a warm store (process layer);
* ``eval-cold``   - the same with a fresh empty store per request (constant layer);
* ``exact-sweep`` - ``mahler_measure`` calls in a fresh interpreter (exact layer);
* ``crosscheck``  - quadrature and torus QMC oracles (oracle layer).

One client issues one request at a time, in whole rounds, until ``--seconds``
have passed and checks every output.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same requests are run untraced and then traced, and the JSON holds the
per-layer metrics and the tracing overhead.  The exit code is 0 when every
output was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import mpmath as mp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_PARENT = HERE / "_work"
SETUP_REPEATS = 3
WARM_COMMAND = ["constants", "warm", "--digits", "30"]
ENTRY = [sys.executable, "-c", "import sys; from mahlerzeta.cli import main; sys.exit(main())"]
# Time limit of one request list handed to a worker, beyond its own deadlines.
WORKER_GRACE_S = 60.0
WORKER_BATCH = 20000
# Latencies are reported at a reference host speed: each one is multiplied by
# a reference time over the mean of the host-speed probes taken around it
# (see ``host_scaled``).  The worker workloads probe inside their worker with
# a fixed piece of work shaped like their requests (``worker.PROBES``); the
# probe's name and reference time are given here.
# The CLI workloads probe with a fresh interpreter that imports the package's
# third-party dependencies, most of what an ``eval`` process does besides the
# package's own work.  See README.md, "Host speed".
WORKER_PROBES = {"exact-sweep": ("rationals", 0.010), "crosscheck": ("numpy", 0.015)}
HOST_PROBE = [sys.executable, "-c", "import mpmath, numpy, scipy.stats"]
HOST_PROBE_REFERENCE_S = 1.5
# Probes on each side of a request that set its scale.  One probe is noisy;
# two on each side gave steadier medians and tails in test runs of every
# workload.
PROBE_WINDOW = 2

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402

Issued = List[Tuple[Request, float]]


@dataclass
class Pass:
    """What one pass over a request list measured."""

    issued: Issued = field(default_factory=list)
    # reported latencies: wall time, or at the reference host speed
    latencies: List[float] = field(default_factory=list)
    wall: List[float] = field(default_factory=list)
    # host-speed probes in the order taken, and for each request how many
    # of them came before it
    probes: List[float] = field(default_factory=list)
    probe_index: List[int] = field(default_factory=list)
    probe_reference_s: Optional[float] = None
    # factor that brings set-up times to the reference host speed, where the
    # probe tracks set-up work
    setup_scale: Optional[float] = None
    failures: List[str] = field(default_factory=list)
    # Faults of the run as a whole, such as a store that was not warm.
    problems: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    maxrss_kb: int = 0
    spans: List[dict] = field(default_factory=list)


def host_scaled(wall: List[float], probes: List[float], probe_index: List[int], reference: float) -> List[float]:
    """Latencies at the reference host speed.

    Each latency is multiplied by ``reference`` over the mean of the
    ``PROBE_WINDOW`` probes taken last before it and the ``PROBE_WINDOW``
    taken first after it (fewer at either end of a run).
    """
    scaled = []
    for latency, index in zip(wall, probe_index):
        near = probes[max(index - PROBE_WINDOW, 0):index + PROBE_WINDOW]
        scaled.append(latency * reference / statistics.fmean(near))
    return scaled


def seed_store(refs: checks.References, path: Path) -> None:
    """Write a store holding only the reference l3_ii values at 30 digits.

    The series engine of mahlerzeta 0.1.0 takes seconds per l3_ii constant, which would
    make every set-up of eval-warm and crosscheck cost most of a run.
    """
    lines = ["mahlerzeta-constants 1"]
    digits = workloads.WARM_DIGITS
    for b, value in sorted(refs.l3_ii.items()):
        # the digit count and five guard digits, as the package writes them
        with mp.workdps(refs.l3_ii_digits):
            lines.append("l3_ii %d %d %s" % (b, digits, mp.nstr(mp.mpf(value), digits + 5)))
    path.write_text("\n".join(lines) + "\n")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    latency: float
    maxrss_kb: int
    timed_out: bool


def run_child(argv: List[str], env: dict, deadline_s: float, work: Path) -> Outcome:
    """Run one process to completion, killing it at its deadline."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(deadline_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        out_path.read_text(),
        err_path.read_text(),
        latency,
        usage.ru_maxrss,
        latency >= deadline_s,
    )


class CliWorkload:
    """eval-warm and eval-cold: one ``mahlerzeta eval`` process per request."""

    def __init__(self, name: str, work: Path, env: dict, refs: checks.References):
        self.name, self.work, self.env, self.refs = name, work, env, refs
        self.warm = name == "eval-warm"
        self.store: Optional[Path] = None
        self.setups = 0
        self.passes = 0

    def setup(self) -> float:
        """Warm a fresh store (eval-warm) or import the CLI once (eval-cold)."""
        self.setups += 1
        start = time.perf_counter()
        if self.warm:
            self.store = self.work / ("warm-%d.txt" % self.setups)
            seed_store(self.refs, self.store)
            argv = ENTRY + WARM_COMMAND + ["--store", str(self.store)]
        else:
            argv = [sys.executable, "-c", "import mahlerzeta.cli"]
        outcome = run_child(argv, self.env, 300.0, self.work)
        if outcome.returncode != 0:
            raise RuntimeError("set-up failed: %s" % outcome.stderr.strip()[-500:])
        return time.perf_counter() - start

    def probe(self, result: Pass) -> None:
        outcome = run_child(HOST_PROBE, self.env, 120.0, self.work)
        if outcome.returncode != 0:
            raise RuntimeError("host probe failed: %s" % outcome.stderr.strip()[-500:])
        result.probes.append(outcome.latency)

    def run(self, requests: Iterator[Tuple[Request, float]], seconds: Optional[float], traced: bool,
            probing: bool = True) -> Pass:
        """Run requests in whole rounds, with a host probe before the first request and after each when probing."""
        self.passes += 1
        result = Pass()
        before = file_digest(self.store) if self.warm else None
        start = time.perf_counter()
        if probing:
            self.probe(result)
        current_round = None
        for index, (request, deadline) in enumerate(requests):
            if request.round != current_round:
                if seconds is not None and time.perf_counter() - start >= seconds:
                    break
                current_round = request.round
            result.issued.append((request, deadline))
            store = self.store if self.warm else self.work / ("cold-%d-%d.txt" % (self.passes, index))
            args = ["eval", "--family", request.family, "--n", str(request.n), "--digits", str(request.digits),
                    "--format", "json", "--store", str(store)]
            spans_path = self.work / ("spans-%d.jsonl" % index)
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(index)] + args
            else:
                argv = ENTRY + args
            outcome = run_child(argv, self.env, deadline, self.work)
            result.wall.append(outcome.latency)
            result.probe_index.append(len(result.probes))
            if probing:
                self.probe(result)
            result.maxrss_kb = max(result.maxrss_kb, outcome.maxrss_kb)
            if outcome.timed_out:
                failure = "missed its %.0f s deadline" % deadline
            elif outcome.returncode != 0:
                last = (outcome.stderr.strip().splitlines() or ["no output"])[-1]
                failure = "exit code %d: %s" % (outcome.returncode, last)
            else:
                failure = self.refs.check_eval(request.family, request.n, request.digits, outcome.stdout)
            if failure:
                result.failures.append("%s %s: %s" % (request.cls, describe(request), failure))
            if traced and spans_path.exists():
                result.spans.extend(spans.read_spans(spans_path))
                spans_path.unlink()
            if not self.warm and store.exists():
                store.unlink()
        result.elapsed = time.perf_counter() - start
        if probing:
            result.probe_reference_s = HOST_PROBE_REFERENCE_S
            result.latencies = host_scaled(result.wall, result.probes, result.probe_index, HOST_PROBE_REFERENCE_S)
            result.setup_scale = HOST_PROBE_REFERENCE_S / statistics.median(result.probes)
        else:
            result.latencies = list(result.wall)
        if self.warm and file_digest(self.store) != before:
            result.problems.append("the warm store changed: a request missed it, so the workload was not warm")
        return result

    def close(self) -> None:
        pass


class WorkerWorkload:
    """exact-sweep and crosscheck: library calls inside one worker interpreter."""

    def __init__(self, name: str, work: Path, env: dict, refs: checks.References):
        self.name, self.work, self.env, self.refs = name, work, env, refs
        self.proc: Optional[subprocess.Popen] = None
        self.spans_path: Optional[str] = None
        self.setups = 0

    def setup(self, traced: bool = False) -> float:
        """Start a fresh worker and wait until it has imported the package and set up."""
        self.close()
        self.setups += 1
        start = time.perf_counter()
        store = self.work / ("closed-forms-%d.txt" % self.setups)
        if self.name == "crosscheck":
            seed_store(self.refs, store)
        config = {
            "workload": self.name,
            "store": str(store),
            "spans": str(self.work / ("worker-spans-%d.jsonl" % self.setups)) if traced else None,
        }
        self.spans_path = config["spans"]
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line or not json.loads(line).get("ready"):
            self.close()
            raise RuntimeError("worker set-up failed")
        return time.perf_counter() - start

    def run(self, requests: Iterator[Tuple[Request, float]], seconds: Optional[float], traced: bool,
            probing: bool = True) -> Pass:
        if traced:
            self.setup(traced=True)
        batch: Issued = [item for _, item in zip(range(WORKER_BATCH), requests)]
        result = Pass()
        longest = max(deadline for _, deadline in batch)
        watchdog = threading.Timer((seconds or sum(d for _, d in batch)) + longest + WORKER_GRACE_S, self.proc.kill)
        watchdog.start()
        try:
            job = {"seconds": seconds, "requests": [r.to_dict() for r, _ in batch],
                   "probe": WORKER_PROBES[self.name][0] if probing else None}
            self.proc.stdin.write(json.dumps(job) + "\n")
            self.proc.stdin.close()
            start = time.perf_counter()
            for line in self.proc.stdout:
                out = json.loads(line)
                if "probe" in out:
                    result.probes.append(out["probe"])
                    continue
                if out.get("done"):
                    result.maxrss_kb = out["maxrss_kb"]
                    break
                request, deadline = batch[out["i"]]
                result.issued.append((request, deadline))
                result.wall.append(out["latency"])
                result.probe_index.append(len(result.probes))
                failure = self.check(request, out)
                if failure is None and out["latency"] > deadline:
                    failure = "missed its %.0f s deadline" % deadline
                if failure:
                    result.failures.append("%s %s: %s" % (request.cls, describe(request), failure))
            else:
                raise RuntimeError("worker stopped before finishing its requests")
            result.elapsed = time.perf_counter() - start
            self.proc.wait()
        finally:
            watchdog.cancel()
        if result.probes:
            result.probe_reference_s = WORKER_PROBES[self.name][1]
            result.latencies = host_scaled(result.wall, result.probes, result.probe_index, result.probe_reference_s)
        else:
            result.latencies = list(result.wall)
        if traced:
            result.spans = spans.read_spans(self.spans_path)
        return result

    def check(self, request: Request, out: dict) -> Optional[str]:
        if "error" in out:
            return "raised " + out["error"].strip().splitlines()[-1]
        if request.kind == "exact":
            return self.refs.check_exact(request.family, request.n, out["records"])
        if request.kind == "qmc":
            return checks.check_qmc(out["value"], out["sigma"], out["closed"])
        return checks.check_quad(out["value"], out["closed"])

    def close(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for stream in (self.proc.stdin, self.proc.stdout):
                if stream is not None and not stream.closed:
                    stream.close()
            self.proc = None


def describe(request: Request) -> str:
    text = "family %s n=%d" % (request.family, request.n)
    if request.kind == "eval":
        text += " digits=%d" % request.digits
    return text


def latency_summary(latencies: List[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would sit under the median, so the tail
    is then the highest one with at least one sample beyond it: the
    second-largest, which is steadier than the maximum.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    beyond = 10 if count >= 20 else min(1, count - 1)
    tail = ordered[count - 1 - beyond]
    percentile = 100.0 * (count - beyond) / count
    return {
        "count": count,
        "p50": ordered[(count + 1) // 2 - 1],
        "tail": tail,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
    }


def machine() -> str:
    return "nproc %d, Python %s, mpmath %s (%s backend), numpy %s, scipy %s" % (
        os.cpu_count() or 0,
        sys.version.split()[0],
        mp.__version__,
        mp.libmp.BACKEND,
        metadata.version("numpy"),
        metadata.version("scipy"),
    )


def child_env(work: Path) -> dict:
    """The environment of every process the benchmark starts.

    Stores are always passed explicitly; ``MAHLERZETA_STORE`` points at a
    path inside the work directory that must never be created.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["MAHLERZETA_STORE"] = str(work / "default-store-must-stay-unused.txt")
    return env


def end_to_end(setup_times: List[float], measured: Pass) -> Tuple[dict, List[str]]:
    summary = latency_summary(measured.latencies)
    wall = latency_summary(measured.wall)
    completed = len(measured.latencies) - len(measured.failures)
    busy = sum(measured.latencies)
    setup = statistics.median(setup_times)
    if measured.setup_scale is not None:
        setup *= measured.setup_scale
    metrics = {
        "setup_s": (setup, "s"),
        "latency_p50_s": (summary["p50"], "s"),
        "latency_tail_s": (summary["tail"], "s"),
        "throughput_rps": (completed / busy, "1/s"),
        "peak_rss_mb": (measured.maxrss_kb / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "median of %d set-ups (wall clock %.6f s)" % (len(setup_times), statistics.median(setup_times)),
        "latency_p50_s": "p50 of %d requests (wall clock %.6f s)" % (summary["count"], wall["p50"]),
        "latency_tail_s": "p%.1f of %d requests, %d beyond it (wall clock %.6f s)" % (
            summary["tail_percentile"], summary["count"], summary["tail_beyond"], wall["tail"]),
        "throughput_rps": "%d completed in %.2f s of requests (%.2f s loop), one in flight" % (
            completed, busy, measured.elapsed),
        "peak_rss_mb": "largest process that served a request",
    }
    lines = ["%-16s %14.6f %-4s %s" % (name, value, unit, notes[name]) for name, (value, unit) in metrics.items()]
    lines.append("%-16s %14.6f %-4s %d failed of %d attempted (not in the JSON: it is 0 on a correct run)" % (
        "failed_ratio", len(measured.failures) / len(measured.latencies), "", len(measured.failures),
        len(measured.latencies)))
    if measured.probe_reference_s is not None:
        lines.append("latencies are at the reference host speed: %d host probes, median %.3f ms, reference %.3f ms" % (
            len(measured.probes), 1000 * statistics.median(measured.probes), 1000 * measured.probe_reference_s))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, lines


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio"))


def per_layer(untraced: Pass, traced: Pass) -> Tuple[dict, List[str]]:
    values = spans.layer_metrics(traced.spans)
    count = len(traced.latencies)
    values["trace.requests"] = count
    values["trace.overhead_s"] = (sum(traced.latencies) - sum(untraced.latencies)) / count
    values["trace.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies) - 1.0
    metrics, lines = {}, []
    for name, value in values.items():
        unit = next((u for suffix, u in UNITS if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
        lines.append("%-36s %16.6f %s" % (name, value, unit))
    return metrics, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "mahlerzeta" / "__init__.py").is_file():
        print("error: no mahlerzeta package under %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2

    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK_PARENT))
    env = child_env(work)
    refs = checks.References()
    kind = CliWorkload if args.workload.startswith("eval-") else WorkerWorkload
    bench = kind(args.workload, work, env, refs)
    try:
        requests = workloads.stream(args.workload, args.seed)
        if args.trace:
            bench.setup()
            untraced = bench.run(requests, args.seconds / 2, traced=False, probing=False)
            traced = bench.run(iter(untraced.issued), None, traced=True, probing=False)
            metrics, lines = per_layer(untraced, traced)
            passes = [untraced, traced]
            if args.workload == "eval-warm" and metrics["store.hit_ratio"]["value"] != 1.0:
                traced.problems.append("store.hit_ratio is not 1.0, so the workload was not warm")
        else:
            setup_times = [bench.setup() for _ in range(SETUP_REPEATS)]
            measured = bench.run(requests, args.seconds, traced=False)
            metrics, lines = end_to_end(setup_times, measured)
            passes = [measured]
        if Path(env["MAHLERZETA_STORE"]).exists():
            passes[-1].problems.append("a process used the default constant store")
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    problems = [f for p in passes for f in p.problems]
    attempted = sum(len(p.latencies) for p in passes)
    print("workload %s, seed %d, %.0f s, trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: %s" % machine())
    for line in lines:
        print("  " + line)
    for failure in problems + failures[:10]:
        print("  FAILED " + failure)
    correct = not failures and not problems
    result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
