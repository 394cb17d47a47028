"""Run the benchmark over several seeds and record two sets of results.

    python3 bench/record.py --seeds 1-10 --out bench/results

For each workload this makes two sets of runs of the same code, set1 and
set2, each with one untraced run per seed and two traced runs of the first
seed.  The sets are interleaved: for each seed in turn one run goes to each
set, and which set runs first alternates from seed to seed, so that a slow
or fast spell of the machine falls on both sets alike.  It writes
<out>/<set>/BENCH_<workload>.json: every run's metrics, and for each
end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is the
distance between the quartiles as a share of the median.  All four traced
runs must report the same counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import TAIL_PERCENTILE

ROOT = Path(__file__).resolve().parent.parent
SETS = ("set1", "set2")


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} gave wrong answers:\n{proc.stderr}")
    print(proc.stdout.splitlines()[0], flush=True)
    run = {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    if not trace:
        # op_tail_ms is this percentile (nearest rank) of `attempted` operations.
        run["op_tail_percentile"] = TAIL_PERCENTILE
    return run


def summarize(runs) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median}
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "results")
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform()}
    for w in spec["workloads"]:
        workload = w["name"]
        runs = {name: [] for name in SETS}
        traced = {name: [] for name in SETS}
        for i, seed in enumerate(seeds):
            for name in (SETS if i % 2 == 0 else SETS[::-1]):
                runs[name].append(_run(spec["command"], workload, seed, seconds, 0))
        for i in range(2):
            for name in (SETS if i % 2 == 0 else SETS[::-1]):
                traced[name].append(_run(spec["command"], workload, seeds[0], seconds, 1))
        counts = [{k: v for k, v in t["metrics"].items() if not k.endswith(("_ms", "_delta"))}
                  for name in SETS for t in traced[name]]
        if any(c != counts[0] for c in counts):
            raise SystemExit(f"{workload}: counts differ between traced runs")
        summaries = {}
        for name in SETS:
            summaries[name] = summarize(runs[name])
            record = {"workload": workload, "set": name, "run_seconds": seconds,
                      "machine": machine, "summary": summaries[name],
                      "runs": runs[name], "traced": traced[name]}
            path = args.out / name / f"BENCH_{workload}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(record, indent=1) + "\n")
        for metric, first in summaries[SETS[0]].items():
            second = summaries[SETS[1]][metric]
            print(f"{workload} {metric}: {first['median']:.4g} ({first['spread']:.3f}) "
                  f"vs {second['median']:.4g} ({second['spread']:.3f}), "
                  f"{second['median'] / first['median'] - 1:+.1%}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
