import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partwaves
from partwaves import cli
from partwaves.cli import main

CLI_DIFF = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
# A subprocess finds the package under test wherever pytest found it.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(partwaves.__file__).parents[1])}


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--format", "json"])
    assert err == ""
    return rc, json.loads(out)


def test_count_json_golden(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,3", "--n", "8", "--format", "json"])
    assert rc == 0
    assert out == (
        '{"command":"count","inputs":{"parts":[1,3],"n":8},"result":3,'
        '"metadata":{"D":3,"formula":3,"oracle":3},"agreement":true}\n'
    )


def test_count_zero_result(capsys):
    rc, record = run_json(capsys, ["count", "--parts", "2,4", "--n", "5"])
    assert rc == 0
    assert record["result"] == 0
    assert record["agreement"] is True


def test_dary_count_golden(capsys):
    rc, record = run_json(capsys, ["dary-count", "--d", "3", "--n", "8"])
    assert rc == 0
    assert record["result"] == 3
    assert record["metadata"] == {"k": 1, "parts": [1, 3], "formula": 3, "oracle": 3}

    rc, record = run_json(capsys, ["dary-count", "--d", "3", "--n", "20"])
    assert rc == 0
    assert record["result"] == 12
    assert record["metadata"]["parts"] == [1, 3, 9]


def test_json_round_trips_byte_identical(capsys):
    commands = [
        ["count", "--parts", "1,3", "--n", "8"],
        ["dary-count", "--d", "2", "--n", "37"],
        ["poly-part", "--parts", "1,2,4", "--at", "10"],
        ["waves", "--parts", "1,2,4", "--n", "9"],
        ["presym", "--partition", "4,3,1", "--j", "2"],
        ["reconstruct", "--products", "1,2:27;1,3:9;2,3:3", "--d", "3", "--j", "2"],
        ["verify", "--mode", "circulant", "--n-max", "5"],
    ]
    for argv in commands:
        rc, out, err = run(capsys, argv + ["--format", "json"])
        assert rc == 0
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"


def test_poly_part_window_golden(capsys):
    rc, record = run_json(capsys, ["poly-part", "--d", "3", "--k", "1", "--at", "8"])
    assert rc == 0
    assert record["result"] == {"coefficients": ["2/3", "1/3"]}
    assert record["metadata"]["value_at"] == {"n": 8, "value": "10/3"}
    assert record["metadata"]["average"] == record["metadata"]["bernoulli"]
    assert record["agreement"] is True


def test_poly_part_parts_golden(capsys):
    rc, record = run_json(capsys, ["poly-part", "--parts", "1,2"])
    assert rc == 0
    assert record["result"] == {"coefficients": ["3/4", "1/2"]}
    assert record["metadata"]["degree"] == 1


def test_poly_part_input_validation(capsys):
    rc, out, err = run(capsys, ["poly-part", "--parts", "1,3", "--d", "3", "--k", "1"])
    assert rc == 2
    assert "not both" in err
    rc, out, err = run(capsys, ["poly-part"])
    assert rc == 2
    assert "need --parts" in err


def test_waves_json_golden(capsys):
    rc, record = run_json(capsys, ["waves", "--parts", "1,3", "--n", "8"])
    assert rc == 0
    assert record["result"] == [
        {"j": 1, "value": "10/3"},
        {"j": 3, "value": "-1/3"},
    ]
    assert record["metadata"]["sum"] == 3
    assert record["metadata"]["oracle"] == 3
    assert record["metadata"]["variant"] == "twisted"
    assert record["agreement"] is True


def test_waves_csv_golden(capsys):
    rc, out, err = run(capsys, ["waves", "--parts", "1,3", "--n", "8", "--format", "csv"])
    assert rc == 0
    assert out == (
        "n,j,value,sum,oracle,agreement\n"
        "8,1,10/3,3,3,true\n"
        "8,3,-1/3,3,3,true\n"
    )
    assert "\r" not in out


def test_waves_literal_variant_reports_failure(capsys):
    rc, out, err = run(
        capsys,
        ["waves", "--parts", "1,3", "--n", "8", "--variant", "literal", "--format", "json"],
    )
    assert rc == 1
    record = json.loads(out)
    assert record["agreement"] is False
    assert record["result"][0] == {"j": 1, "value": "10/3"}
    assert record["result"][1]["value"] is None
    assert "irrational" in record["result"][1]["error"]
    assert record["metadata"]["sum"] is None


def test_count_text_golden(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,3", "--n", "8"])
    assert rc == 0
    assert out == (
        "command: count\n"
        "inputs.parts: 1,3\n"
        "inputs.n: 8\n"
        "result: 3\n"
        "metadata.D: 3\n"
        "metadata.formula: 3\n"
        "metadata.oracle: 3\n"
        "agreement: true\n"
    )


def test_count_csv_golden(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,3", "--n", "8", "--format", "csv"])
    assert rc == 0
    assert out == 'parts,n,count,oracle,agreement\n"1,3",8,3,3,true\n'


def test_dary_count_csv_golden(capsys):
    rc, out, err = run(capsys, ["dary-count", "--d", "3", "--n", "20", "--format", "csv"])
    assert rc == 0
    assert out == "d,n,k,count,oracle,agreement\n3,20,2,12,12,true\n"


def test_presym_golden(capsys):
    rc, record = run_json(capsys, ["presym", "--partition", "3,2,1,1", "--j", "2"])
    assert rc == 0
    assert record["result"] == {"value": 17, "parts": [6, 3, 3, 2, 2, 1]}
    assert record["metadata"]["products"] == {
        "1,2": 6, "1,3": 3, "1,4": 3, "2,3": 2, "2,4": 2, "3,4": 1,
    }


def test_presym_text_lists_products(capsys):
    rc, out, err = run(capsys, ["presym", "--partition", "3,2,1,1", "--j", "2"])
    assert rc == 0
    assert "result.parts: 6,3,3,2,2,1\n" in out
    assert "metadata.products.1,2: 6\n" in out


def test_reconstruct_golden(capsys):
    rc, record = run_json(
        capsys,
        ["reconstruct", "--products", "1,2:27;1,3:9;2,3:3", "--d", "3", "--j", "2"],
    )
    assert rc == 0
    assert record["result"] == {"parts": [9, 3, 1]}
    assert record["metadata"] == {"exponents": [2, 1, 0], "length": 3, "size": 13}


def test_reconstruct_not_power_of_d_exits_1(capsys):
    rc, out, err = run(
        capsys,
        ["reconstruct", "--products", "1,2:27;1,3:9;2,3:3", "--d", "2", "--j", "2"],
    )
    assert rc == 1
    assert "not a power of 2" in err


def test_reconstruct_inconsistent_data_exits_1(capsys):
    rc, out, err = run(
        capsys,
        ["reconstruct", "--products", "1,2:2;1,3:1;2,3:1", "--d", "2", "--j", "2"],
    )
    assert rc == 1
    assert "error" in err


def test_reconstruct_incomplete_products_exit_2(capsys):
    rc, out, err = run(
        capsys, ["reconstruct", "--products", "1,2:27", "--d", "3", "--j", "2"]
    )
    assert rc == 2
    # A large index or order is refused without enumerating C(length, order).
    for products, j in (("1:2;60:1", "30"), ("1:2;1000000000:1", "1")):
        rc, out, err = run(
            capsys, ["reconstruct", "--products", products, "--d", "2", "--j", j]
        )
        assert rc == 2


def test_reconstruct_repeated_index_tuple_exit_2(capsys):
    rc, out, err = run(
        capsys,
        ["reconstruct", "--products", "1,2:27;1,3:9;2,3:3; 1, 2:81",
         "--d", "3", "--j", "2"],
    )
    assert rc == 2
    assert out == ""
    assert "repeats index tuple 1,2" in err


def test_verify_circulant(capsys):
    rc, record = run_json(capsys, ["verify", "--mode", "circulant", "--n-max", "6"])
    assert rc == 0
    assert record["result"] == {"ok": True, "checked": 15}
    assert record["metadata"]["failures"] == []


def test_verify_uniqueness(capsys):
    rc, record = run_json(
        capsys,
        ["verify", "--mode", "uniqueness", "--d", "2", "--ell", "4",
         "--max-exp", "2", "--j", "2"],
    )
    assert rc == 0
    assert record["result"] == {"ok": True, "vectors_checked": 15, "violations": 0}


def test_verify_waves(capsys):
    rc, record = run_json(
        capsys, ["verify", "--mode", "waves", "--parts", "1,2,4", "--n-max", "12"]
    )
    assert rc == 0
    assert record["result"] == {"ok": True, "checked": 13}
    assert record["metadata"]["failures"] == []


def test_verify_waves_literal_fails(capsys):
    rc, out, err = run(
        capsys,
        ["verify", "--mode", "waves", "--parts", "1,3", "--n-max", "10",
         "--variant", "literal", "--format", "json"],
    )
    assert rc == 1
    record = json.loads(out)
    assert record["result"]["ok"] is False
    assert len(record["metadata"]["failures"]) == 11


def test_verify_missing_mode_args(capsys):
    rc, out, err = run(capsys, ["verify", "--mode", "uniqueness"])
    assert rc == 2
    rc, out, err = run(capsys, ["verify", "--mode", "waves"])
    assert rc == 2


def test_seed_is_rejected(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,3", "--n", "8", "--seed", "5"])
    assert rc == 2
    assert "--seed is not supported" in err


def test_bad_parts_exit_2(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,x", "--n", "8"])
    assert rc == 2
    assert "--parts" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["count", "--parts", "1,3"])[0] == 2


def test_variant_is_only_an_option_of_the_wave_commands(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,3", "--n", "8", "--variant", "literal"])
    assert rc == 2
    assert "--variant" in err


def test_help_exits_0(capsys):
    rc, out, err = run(capsys, ["--help"])
    assert rc == 0
    for command in ("count", "dary-count", "poly-part", "waves", "presym",
                    "reconstruct", "verify"):
        assert f"\n    {command} " in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "partwaves.cli",
         "dary-count", "--d", "3", "--n", "20", "--format", "json"],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == 12


def test_package_module_entry_point():
    # `python -m partwaves` calls main() with no argv, which reads sys.argv.
    proc = subprocess.run(
        [sys.executable, "-m", "partwaves",
         "waves", "--d", "2", "--n", "100", "--format", "json"],
        capture_output=True, text=True, env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["inputs"] == {"d": 2, "n": 100}
    assert record["metadata"]["sum"] == record["metadata"]["oracle"] == 9828
    assert record["agreement"] is True


def _load_cli_diff():
    spec = importlib.util.spec_from_file_location("cli_diff", CLI_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _subparsers(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _parse(parser, argv):
    """The parsed Namespace of argv, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


cli_diff = _load_cli_diff()


@pytest.mark.parametrize("command", cli_diff.SUBCOMMANDS)
def test_one_command_parser_matches_the_full_parser(command):
    one = cli._build_parser([command])
    full = cli._build_parser([])
    assert list(_subparsers(one).choices) == [command]
    assert list(_subparsers(full).choices) == list(cli_diff.SUBCOMMANDS)
    assert (_subparsers(one).choices[command].format_help()
            == _subparsers(full).choices[command].format_help())
    assert one.format_usage() == full.format_usage()
    argvs = [argv for argv in cli_diff.argv_list() if argv[:1] == [command]]
    assert argvs
    for argv in argvs:
        assert _parse(cli._build_parser(argv), argv) == _parse(full, argv), argv


def test_named_command_builds_one_subparser(monkeypatch, capsys):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert main(["waves", "--d", "2", "--n", "100"]) == 0
    assert calls == ["waves"]
    calls.clear()
    assert run(capsys, ["--help"])[0] == 0
    assert calls == list(cli_diff.SUBCOMMANDS)


def test_top_level_error_after_a_command_shows_the_full_usage(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,3", "--n", "8", "extra"])
    assert rc == 2
    assert out == ""
    usage = cli._build_parser([]).format_usage()
    assert "{count,dary-count,poly-part,waves,presym,reconstruct,verify}" in usage
    assert err == usage + "partwaves: error: unrecognized arguments: extra\n"
