"""Smoke run of the benchmark workloads: the first block of each seeded
stream goes through the CLI in-process and is checked by the benchmark's own
oracle, so the benchmark cannot fall out of step with the program."""

import contextlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from partwaves import cli
from partwaves.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
oracle = _load("oracle")


@pytest.mark.parametrize("name", sorted(workloads.BLOCKS))
def test_first_block_passes_the_oracle(name):
    ops = workloads.stream(name, 1)
    for _ in workloads.BLOCKS[name]:
        op = next(ops)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
        problem = oracle.check(op, code, out.getvalue(), err.getvalue())
        assert problem is None, f"{' '.join(op.argv)[:120]}: {problem}"


def test_every_per_layer_name_resolves(monkeypatch):
    # BENCHMARK.json names functions of the package; removing or renaming one
    # of them makes the benchmark's traced runs fail.
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"]]
    fake = [{"latency_s": 0.01, "rss_kb": 1000, "problem": None, "calls": {}, "self_ns": {}}]
    assert set(run.layer_metrics(names, [fake, fake], [fake])) == set(names)


@pytest.mark.parametrize("name", sorted(workloads.BLOCKS))
def test_every_operation_is_read_without_argparse(name):
    # The benchmark's argv is well-formed, so each operation skips argparse;
    # the namespace read is the one argparse parses.  Five blocks read every
    # kind of operation five times.
    ops = workloads.stream(name, 1)
    parser = cli._build_parser()
    for _ in range(5 * len(workloads.BLOCKS[name])):
        argv = list(next(ops).argv)
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv))


def test_profile_ops_times_and_profiles_a_workload():
    # tools/profile_ops.py runs the first operations of a stream in process
    # and prints their ms/op and a cProfile table.
    proc = subprocess.run([sys.executable, str(BENCH.parent / "tools" / "profile_ops.py"),
                           "--workload", "wave-sweep", "--ops", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, *rest = proc.stdout.splitlines()
    assert re.fullmatch(r"wave-sweep seed 1: 2 ops, \d+\.\d{3} ms/op \(best of 5\)", first)
    assert any("cli.py" in line and "(main)" in line for line in rest)
