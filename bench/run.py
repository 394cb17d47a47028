"""partwaves benchmark: seeded CLI operations, checked, timed and traced.

    python3 bench/run.py --workload wave-sweep --seed 1 --seconds 28 --trace 0

One client runs a closed loop: each operation is one `partwaves.cli.main(argv)`
call in a child process forked from a parent that has imported partwaves
and computed nothing, so every operation starts with the package's caches
empty, as a fresh `partwaves` process does.  One child is alive at a time.
The child times `main` with stdout captured, notes its peak resident set,
and then checks the output against the benchmark's oracle.  Every quarter
second, before an operation, another child times a fixed reference
computation that does not use partwaves; the end-to-end timings are scaled
by REFERENCE_MS over the run's median reference time, to the power
REFERENCE_POWER, which takes much of the machine's drifting speed out of
them.  A run stops at the end of a
block of the workload's stream.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.
--trace 1 runs a fixed list of operations from the same stream, alternating
traced and untraced passes, and prints the per-layer metrics; call counts
must repeat exactly between passes, or the run fails.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import itertools
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

TAIL_PERCENTILE = 90
MIN_OPS = 100  # so that at least ten operations lie beyond the tail percentile
MAX_RUN_S = 150.0  # stop starting operations after this, whatever --seconds says
OP_TIMEOUT_S = 25.0
SETUP_REPEATS = 25
DEFAULT_SEED = 1
REFERENCE_MS = 20.0  # the nominal time of reference_work(); timings are scaled to it
# Operations slow down by about three quarters as much as the reference does
# (0.5-0.8 in a twelve-minute test), so the scale is damped by this power.
REFERENCE_POWER = 0.75
REFERENCE_EVERY_S = 0.25  # time the reference before an operation this often
TRACE_BLOCKS = 2  # the traced list is this many blocks of the workload's stream

SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import partwaves\n"
    "print(time.perf_counter() - start)\n"
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid result."""


def reference_work():
    """Fixed pure-Python work in the style of partwaves, with none of its
    code: a coin-counting table of 60,001 entries, as the oracles build."""
    ways = [1] + [0] * 60_000
    for part in (1, 3, 7, 10):
        for n in range(part, len(ways)):
            ways[n] += ways[n - part]
    return ways


def load_cli():
    """Import partwaves from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import partwaves
        from partwaves import cli
    except ImportError as exc:
        raise BenchmarkError(f"cannot import partwaves from {SRC}: {exc}") from None
    if Path(partwaves.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchmarkError(f"partwaves was imported from {partwaves.__file__}, not {SRC}")
    caches = [obj for layer in tracing.LAYERS
              for obj in vars(getattr(partwaves, layer)).values()
              if hasattr(obj, "cache_info")]
    return cli, caches


def import_time_s() -> float:
    """Time to import partwaves in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise BenchmarkError(f"importing partwaves failed: {proc.stderr.strip()}")
    return float(proc.stdout)


class Runner:
    """Runs operations one at a time, each in a fresh forked child."""

    def __init__(self, cli, caches):
        self.cli = cli
        self.caches = caches

    def run(self, op, op_id: int, traced: bool = False) -> dict:
        return self._fork(lambda: self._child(op, op_id, traced))

    def reference_ms(self) -> float:
        """Time of reference_work() in a forked child, as an operation runs."""
        def child():
            start = time.perf_counter()
            reference_work()
            return {"latency_s": time.perf_counter() - start, "problem": None}
        result = self._fork(child)
        if result["problem"]:
            raise BenchmarkError(f"reference computation: {result['problem']}")
        return result["latency_s"] * 1000

    def _fork(self, child) -> dict:
        """The JSON answer of `child()` run in a forked child process."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            status = 1
            try:
                payload = json.dumps(child()).encode()
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        try:
            data = self._collect(read_fd, pid)
        finally:
            os.close(read_fd)
        if data is None:
            return {"latency_s": OP_TIMEOUT_S, "rss_kb": 0,
                    "problem": f"no answer within {OP_TIMEOUT_S} s"}
        if not data:
            return {"latency_s": 0.0, "rss_kb": 0, "problem": "operation process died"}
        return json.loads(data)

    @staticmethod
    def _collect(read_fd: int, pid: int):
        """Everything the child writes, or None if it overruns the timeout."""
        chunks = []
        deadline = time.monotonic() + OP_TIMEOUT_S
        try:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                    os.kill(pid, signal.SIGKILL)
                    return None
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)

    def _child(self, op, op_id: int, traced: bool) -> dict:
        warm = [cache for cache in self.caches if cache.cache_info().currsize]
        if warm:
            return {"latency_s": 0.0, "rss_kb": 0,
                    "problem": f"caches not empty at operation start: {warm}"}
        tracer = None
        if traced:
            tracer = tracing.Tracer(op_id)
            tracing.install(tracer)
        out, err = io.StringIO(), io.StringIO()
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception:
                code, problem = None, traceback.format_exc()
            latency_s = time.perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if problem is None:
            try:
                problem = oracle.check(op, code, out.getvalue(), err.getvalue())
            except Exception:
                problem = "output check raised:\n" + traceback.format_exc()
        result = {"latency_s": latency_s, "rss_kb": rss_kb, "problem": problem}
        if tracer:
            result.update(calls=tracer.calls, self_ns=tracer.self_ns, spans=tracer.spans)
        return result


def end_to_end(results, scale: float = 1.0) -> dict:
    """End-to-end metrics, with every latency multiplied by `scale`."""
    latencies = sorted(r["latency_s"] * 1000 * scale for r in results)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(latencies))
    return {
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": latencies[rank - 1],
        "ops_per_s": 1000 * len(latencies) / sum(latencies),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
    }


def timed_run(runner, ops, block: int, seconds: float):
    """Run a closed loop over `ops` for `seconds`, in whole blocks of
    `block` operations, so that every run has the workload's exact mix.

    Returns the results, the failed (operation, result) pairs, the reference
    times, taken before an operation every REFERENCE_EVERY_S, and the import
    times: SETUP_REPEATS of them, spread evenly over the run so that they do
    not all fall into one slow or fast spell of the machine.  Passed
    operations are not kept: their inputs would grow the parent, and every
    child's resident set with it."""
    results, failures, references, imports = [], [], [], []
    import_time_s()  # the first import may write bytecode
    start = next_reference = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(imports) < SETUP_REPEATS and elapsed >= len(imports) * seconds / SETUP_REPEATS:
            imports.append(import_time_s())
        elif len(results) % block == 0 and (
                elapsed >= MAX_RUN_S or (elapsed >= seconds and len(results) >= MIN_OPS)):
            return results, failures, references, imports
        else:
            if time.monotonic() >= next_reference:
                references.append(runner.reference_ms())
                next_reference = time.monotonic() + REFERENCE_EVERY_S
            op = next(ops)
            results.append(runner.run(op, len(results)))
            if results[-1]["problem"]:
                failures.append((op, results[-1]))


def traced_run(runner, op_list, seconds: float):
    """Alternate traced and untraced passes over `op_list` for `seconds`,
    with at least two traced passes; returns the two lists of passes.
    Only the first traced pass keeps its spans."""
    passes = {"traced": [], "plain": []}
    start = time.monotonic()
    for mode in itertools.cycle(passes):
        results = [runner.run(op, i, mode == "traced") for i, op in enumerate(op_list)]
        if passes[mode] and mode == "traced":
            for r in results:
                r.pop("spans", None)
        passes[mode].append(results)
        elapsed = time.monotonic() - start
        if elapsed >= MAX_RUN_S or (elapsed >= seconds and len(passes["traced"]) >= 2
                                    and passes["plain"]):
            return passes["traced"], passes["plain"]


def _counts(traced_pass):
    return [r.get("calls", {}) for r in traced_pass]


def _pass_totals(traced_pass, key):
    totals = {}
    for r in traced_pass:
        for name, value in r.get(key, {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def check_counts_repeat(traced_passes) -> None:
    """Raise unless call counts repeat across the traced passes of this run."""
    first = _counts(traced_passes[0])
    for other in traced_passes[1:]:
        if _counts(other) != first:
            raise BenchmarkError("call counts differ between traced passes of one run")


def layer_metrics(names, traced_passes, plain_passes) -> dict:
    """Per-layer metrics by name: counts from the first traced pass (all
    passes agree), self times as the median over traced passes, and the
    tracing overhead as traced minus untraced end-to-end numbers."""
    calls = _pass_totals(traced_passes[0], "calls")
    per_pass = [_pass_totals(p, "self_ns") for p in traced_passes]
    self_ms = {name: statistics.median(t.get(name, 0) for t in per_pass) / 1e6
               for name in set().union(*per_pass)}
    overhead = {f"trace.{key}_delta": value - plain
                for (key, value), plain in zip(
                    end_to_end([r for p in traced_passes for r in p]).items(),
                    end_to_end([r for p in plain_passes for r in p]).values())}
    known = tracing.traced_names()

    def value(name):
        if name in overhead:
            return overhead[name]
        if name in known or name == tracing.DP_CELLS:
            return calls.get(name, 0)
        base, _, suffix = name.rpartition(".")
        if base in tracing.LAYERS:
            members = [k for k in known if k.split(".")[0] == base]
        elif base in known:
            members = [base]
        else:
            members = []
        if members and suffix == "calls":
            return sum(calls.get(k, 0) for k in members)
        if members and suffix == "self_ms":
            return sum(self_ms.get(k, 0.0) for k in members)
        raise BenchmarkError(f"BENCHMARK.json names an unknown per-layer metric {name!r}")

    return {name: value(name) for name in names}


def write_spans(traced_pass, workload: str, seed: int) -> Path:
    """Write one traced pass's spans, one JSON list per line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as out:
        for r in traced_pass:
            for span in r.get("spans", []):
                out.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    try:
        runner = Runner(*load_cli())
        ops = workloads.stream(args.workload, args.seed)
        if args.trace:
            size = TRACE_BLOCKS * len(workloads.BLOCKS[args.workload])
            op_list = [next(ops) for _ in range(size)]
            traced_passes, plain_passes = traced_run(runner, op_list, args.seconds)
            results = [r for p in traced_passes + plain_passes for r in p]
            failures = [(op, r) for p in traced_passes + plain_passes
                        for op, r in zip(op_list, p) if r["problem"]]
            check_counts_repeat(traced_passes)
            values = layer_metrics([m["name"] for m in metrics], traced_passes, plain_passes)
            spans = write_spans(traced_passes[0], args.workload, args.seed)
            print(f"{args.workload} seed {args.seed}: {size} operations, "
                  f"{len(traced_passes)} traced and {len(plain_passes)} untraced passes, "
                  f"spans in {spans.relative_to(ROOT)}")
        else:
            block = len(workloads.BLOCKS[args.workload])
            results, failures, references, imports = timed_run(runner, ops, block, args.seconds)
            scale = (REFERENCE_MS / statistics.median(references)) ** REFERENCE_POWER
            values = {**end_to_end(results, scale),
                      "setup_s": statistics.median(imports) * scale}
            raw = end_to_end(results)
            unscaled = (f"  unscaled: op_p50_ms {raw['op_p50_ms']:.6g}, op_tail_ms "
                        f"{raw['op_tail_ms']:.6g}, ops_per_s {raw['ops_per_s']:.6g}, "
                        f"setup_s {statistics.median(imports):.6g}; reference median "
                        f"{statistics.median(references):.4g} ms, scale {scale:.4f}")
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for op, r in failures[:5]:
        print(f"FAILED {op.kind}: {' '.join(op.argv)[:120]}\n  {r['problem']}",
              file=sys.stderr)
    if not args.trace:
        print(f"{args.workload} seed {args.seed}: {len(results)} operations, "
              f"failed_frac {len(failures) / len(results):.4g}, op_tail_ms is "
              f"p{TAIL_PERCENTILE} of {len(results)}, setup_s is the median of "
              f"{SETUP_REPEATS} imports")
        print(unscaled)
    for m in metrics:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
