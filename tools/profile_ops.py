"""Time and profile the first operations of a benchmark workload, in process.

Usage:
    python tools/profile_ops.py --workload W --ops N [--seed S] [--sort KEY]

The first N operations of `bench/workloads.stream(W, S)` are run through
`partwaves.cli.main` from this checkout's `src/`, with stdout and stderr
captured and every partwaves `lru_cache` cleared before each operation, so
that each starts cold, as the benchmark's forked children do.  The pass is
timed five times; the best gives ms/op.  Then one more pass runs under
cProfile, and its 15 top functions by KEY (a `pstats` sort key, default
`cumulative`) are printed.  Nothing is checked against the oracle: this
shows where the time goes, and `bench/run.py` stays the measurement.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import itertools
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import run  # noqa: E402  (bench/run.py: imports partwaves from src/)
import workloads  # noqa: E402


def run_ops(cli, caches, ops) -> None:
    """Every operation once, each from cold caches, its output discarded."""
    for op in ops:
        for cache in caches:
            cache.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(op.argv))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--sort", default="cumulative")
    args = parser.parse_args(argv)
    ops = list(itertools.islice(workloads.stream(args.workload, args.seed), args.ops))
    cli, caches = run.load_cli()
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        run_ops(cli, caches, ops)
        best = min(best, time.perf_counter() - start)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{1000 * best / max(len(ops), 1):.3f} ms/op (best of 5)")
    profile = cProfile.Profile()
    profile.runcall(run_ops, cli, caches, ops)
    pstats.Stats(profile, stream=sys.stdout).sort_stats(args.sort).print_stats(15)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
