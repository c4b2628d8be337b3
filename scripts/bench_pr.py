"""Run the benchmark over workloads and seeds and write ``BENCH_<pr>.json``.

Run from the repository root::

    python3 scripts/bench_pr.py --pr 10 --workloads crosscheck --seeds 1-10 \\
        [--baseline ../parent-checkout] [--trace 1]

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace X`` started in a checkout's root, where ``T`` is the ``run_seconds``
of ``BENCHMARK.json``, the same on every run and both sides.  The script reads the run's
``machine:`` line and its last stdout line, the JSON result, and writes per
metric the median and quartiles of the runs, together with the machine and
every run's ``correct`` flag (a run is correct when every output it checked
was right).  With ``--baseline``, every seed runs once in that checkout
too, the two sides alternating which goes first, and the file also counts
for each metric the pairs in which this checkout was better; ``BENCHMARK.json``
says which direction is better.  Results of other workloads or trace
settings already in the file are kept.

Each run gets a fresh empty ``PYTHONPYCACHEPREFIX``, removed when the run
ends, so no process of either side reads a checkout's ``__pycache__``: a
``.pyc`` left by an older edit of a module cannot make one side import
faster or slower than the other.  Bytecode that a run's processes write goes
to that prefix and serves only the same run; with ``PYTHONDONTWRITEBYTECODE=1``
every process of both sides compiles what it imports from source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    """``1-10`` or ``1,3,5`` (or a mix) as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
        done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s seed %d in %s printed no result:\n%s" % (workload, seed, checkout, done.stderr))
    result = json.loads(lines[-1])
    machine = next((line[len("machine: "):] for line in lines if line.startswith("machine: ")), "")
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "machine": machine,
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def summary(runs: List[dict]) -> dict:
    medians, quartiles = {}, {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        medians[name] = statistics.median(values)
        if len(values) > 1:
            low, _, high = statistics.quantiles(values, n=4, method="inclusive")
            quartiles[name] = [low, high]
    return {
        "correct": all(run["correct"] for run in runs),
        "median": medians,
        "quartiles": quartiles,
        "runs": [{key: value for key, value in run.items() if key != "machine"} for run in runs],
    }


def pair_wins(change: List[dict], baseline: List[dict], directions: Dict[str, str]) -> dict:
    """Per metric, how many pairs this checkout won; ties count for neither side."""
    wins = {}
    for name in change[0]["metrics"]:
        sign = -1.0 if directions.get(name) == "lower" else 1.0
        won = sum(
            sign * (ours["metrics"][name] - theirs["metrics"][name]) > 0
            for ours, theirs in zip(change, baseline)
        )
        wins[name] = {"change_better": won, "pairs": len(change)}
    return wins


def main(argv: Optional[List[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {metric["name"]: metric["better"] for metric in declared["end_to_end"] + declared["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="for example 1-10 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="a checkout of the parent commit to pair with")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = declared["run_seconds"]
    output = ROOT / ("BENCH_%s.json" % args.pr)

    command = "python3 perfbench/run.py --workload %%s --seed S --seconds %g --trace %d" % (seconds, args.trace)
    machines = set()
    entries = {}
    for workload in args.workloads.split(","):
        change, baseline = [], []
        for index, seed in enumerate(seeds):
            sides = [(ROOT, change)]
            if args.baseline is not None:
                sides.append((args.baseline.resolve(), baseline))
                if index % 2:
                    sides.reverse()
            for checkout, runs in sides:
                run = run_once(checkout, workload, seed, seconds, args.trace)
                machines.add(run["machine"])
                runs.append(run)
                print("%s seed %d in %s: correct %s" % (workload, seed, checkout, run["correct"]), file=sys.stderr)
        entry = {"command": command % workload, "seeds": seeds, "change": summary(change)}
        if baseline:
            entry["baseline"] = summary(baseline)
            entry["pairs"] = pair_wins(change, baseline, directions)
        entries[workload + (" --trace 1" if args.trace else "")] = entry

    # entries of other workloads or trace settings written earlier stay
    report = json.loads(output.read_text()) if output.exists() else {"pr": args.pr, "machine": [], "runs": {}}
    report["runs"].update(entries)
    report["machine"] = sorted(set(report["machine"]) | machines)
    report["correct"] = all(
        entry[side]["correct"] for entry in report["runs"].values() for side in ("change", "baseline") if side in entry
    )
    output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
