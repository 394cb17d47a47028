"""Run alternating `bench/run.py` pairs of two checkouts and compare them.

Usage:
    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seed S] [--seconds T] --scratch DIR

Each tree is copied, without caches, build output or `.git`, into a new
directory under DIR, so that neither run writes into the trees given, and
timings do not depend on what either checkout happens to hold.  Each copy
then makes one discarded warm-up run, so that both carry the same
`__pycache__`.  N pairs follow; the side that runs first alternates from
pair to pair.  Every run's values are printed as it ends, from the JSON
object on the last line of its stdout.  At the end each end-to-end metric
of the change's `BENCHMARK.json` gets one line: each side's median and
quartile spread, and in how many pairs the change did better.

Exit code 0 when every run succeeded with no failed operation, 1 when any
run failed or reported failed operations, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".bench_out", ".hypothesis",
                              ".pytest_cache")
RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """(result, problem): the JSON result of one `bench/run.py` run in tree,
    and why the run failed, or None."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no result within {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}, no JSON result: {proc.stderr.strip()[-300:]}"
    if proc.returncode or result["failed"] or not result["correct"]:
        return result, (f"exit {proc.returncode}, {result['failed']} of "
                        f"{result['attempted']} operations failed")
    return result, None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, metrics) -> list[str]:
    """One line per metric of `metrics` (BENCHMARK.json's end-to-end
    entries) over `pairs`, a list of {side: result} for both sides: each
    side's median and quartile spread, and the change's wins."""
    lines = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        wins = sum(sign * (change - parent) < 0
                   for parent, change in zip(values["parent"], values["change"]))
        sides = []
        for side in SIDES:
            q1, q3 = _quartiles(values[side])
            sides.append(f"{side} {statistics.median(values[side]):.6g} "
                         f"(q3-q1 {q3 - q1:.3g})")
        lines.append(f"{name} [{metric['unit']}, {metric['better']} is better]: "
                     f"{', '.join(sides)}; change better in {wins}/{len(pairs)} pairs")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)
    scratch = args.scratch.resolve()
    for tree in (args.parent, args.change):
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} holds no bench/run.py")
        if scratch.is_relative_to(tree.resolve()):
            parser.error(f"--scratch {scratch} lies inside {tree}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch.mkdir(parents=True, exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="bench_pairs_", dir=scratch))
    trees = {side: base / side for side in SIDES}
    for side, source in zip(SIDES, (args.parent, args.change)):
        shutil.copytree(source, trees[side], ignore=SKIP)
    print(f"copies in {base}", flush=True)
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    problems = []

    def run(side, label):
        result, problem = run_once(trees[side], args.workload, args.seed, args.seconds)
        values = problem or ", ".join(f"{name} {m['value']:.6g}"
                                      for name, m in result["metrics"].items())
        print(f"{label} {side}: {values}", flush=True)
        if problem:
            problems.append(problem)
        return result

    for side in SIDES:
        run(side, "warm-up")
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run(side, f"pair {i + 1}") for side in order}
        if None not in pair.values():
            pairs.append(pair)
    if pairs:
        print(f"{args.workload} seed {args.seed}, {len(pairs)} pairs:")
        for line in summarize(pairs, metrics):
            print(f"  {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
