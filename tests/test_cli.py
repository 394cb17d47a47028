import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partwaves
from partwaves import cli
from partwaves.cli import main
from partwaves.partitions import PartsList, SubsetProductMap, denumerant_dp
from partwaves.quasipoly import denumerant_formula
from partwaves.reconstruct import (
    CirculantRow,
    InconsistentData,
    UniquenessReport,
    circulant_det_check,
    reconstruct_exponents,
)
from partwaves.reconstruct import _subsystem_tuples
from partwaves.waves import LITERAL, TWISTED, wave_decomposition_check

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


def test_dary_commands_take_n_zero(capsys):
    rc, record = run_json(capsys, ["dary-count", "--d", "2", "--n", "0"])
    assert (rc, record["result"]) == (0, 1)
    assert record["metadata"] == {"k": 0, "parts": [1], "formula": 1, "oracle": 1}
    rc, record = run_json(capsys, ["waves", "--d", "2", "--n", "0"])
    assert (rc, record["result"]) == (0, [{"j": 1, "value": 1}])
    for command in ("dary-count", "waves"):
        rc, out, err = run(capsys, [command, "--d", "2", "--n", "-1"])
        assert (rc, out) == (2, "")
        assert "n must be non-negative" in err


def test_dp_oracle_refuses_n_past_sys_maxsize(capsys):
    # n // G + 1 list entries cannot be indexed: a usage error raised before
    # the DP allocates anything, not an OverflowError from the allocation
    rc, out, err = run(capsys, ["count", "--parts", "2,3,5,7", "--n", str(10**30)])
    assert (rc, out) == (2, "")
    assert err == ("partwaves: error: the DP oracle's n // 1 + 1 entries "
                   "exceed sys.maxsize\n")


def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    # An input too large for memory but under every refusal is not a failed
    # check (exit 1) and prints no traceback.
    def exhausted(a, n):
        raise MemoryError

    monkeypatch.setattr(cli, "denumerant_dp", exhausted)
    rc, out, err = run(capsys, ["count", "--parts", "2,3,5,7", "--n", "300000000"])
    assert (rc, out, err) == (2, "", "partwaves: error: out of memory\n")


def test_formula_refuses_a_fold_past_sys_maxsize():
    # The window (1, 2, ..., 2**99) would fold 10**30 // 2 + 1 sums.  The
    # refusal must come before the fold allocates, so the call runs under a
    # 1 GB address-space cap and a timeout: a missing check fails fast with
    # a MemoryError instead of taking the machine's memory.
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from partwaves.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "dary-count", "--d", "2", "--n", str(10**30)],
        capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("partwaves: error: the closed formula's box entries "
                           "exceed sys.maxsize\n")


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_values_past_the_digit_limit_exit_2(capsys):
    # Each part is within the limit, their product is not, so the parse
    # passes and the output is what hits the limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        nines = "9" * 400
        outputs = {fmt: run(capsys, ["presym", "--partition", f"{nines},{nines}",
                                     "--j", "2", "--format", fmt])
                   for fmt in ("text", "json", "csv")}
    finally:
        sys.set_int_max_str_digits(limit)
    for fmt, (rc, out, err) in outputs.items():
        assert rc == 2, fmt
        assert out == ("indices,product\n" if fmt == "csv" else ""), fmt
        assert err.startswith("partwaves: error: Exceeds the limit (640 digits)"), fmt
        assert err.count("\n") == 1, fmt


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


def _main_io(argv):
    """Exit code, stdout and stderr of one `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _chunks(ell, j, values):
    """The canonical 'i1,...,ij:value' chunks of a product map, in
    combinations order."""
    return [f"{','.join(map(str, tup))}:{value}"
            for tup, value in zip(combinations(range(1, ell + 1), j), values)]


def _perturb(kind, chunks, j, draw):
    """Canonical chunks, and j, spoiled by one perturbation of the given kind."""
    chunks = list(chunks)
    i = draw(st.integers(0, len(chunks) - 1))
    head, _, value = chunks[i].partition(":")
    if kind == "space in a head":
        at = draw(st.integers(0, len(head)))
        chunks[i] = f"{head[:at]} {head[at:]}:{value}"
    elif kind == "leading zero":
        indices = head.split(",")
        k = draw(st.integers(0, len(indices) - 1))
        indices[k] = "0" + indices[k]
        chunks[i] = f"{','.join(indices)}:{value}"
    elif kind == "two chunks swapped":
        k = draw(st.integers(0, len(chunks) - 2))
        k += k >= i
        chunks[i], chunks[k] = chunks[k], chunks[i]
    elif kind == "one chunk dropped":
        del chunks[i]
    elif kind == "one chunk duplicated":
        chunks.insert(draw(st.integers(0, len(chunks))), chunks[i])
    elif kind == "trailing semicolon":
        chunks.append("")
    elif kind == "non-numeric value":
        chunks[i] = f"{head}:nine"
    elif kind == "separators swapped":  # the same tokens, ';' before ':'
        k = min(i, len(chunks) - 2)
        head, _, value = chunks[k].partition(":")
        chunks[k : k + 2] = [f"{head};{value}:{chunks[k + 1]}"]
    elif kind == "extra colon":
        at = draw(st.integers(0, len(chunks[i])))
        chunks[i] = f"{chunks[i][:at]}:{chunks[i][at:]}"
    else:  # "--j off by one"
        j += draw(st.sampled_from((-1, 1)))
    return ";".join(chunks), j


class _ChunkRoute(Exception):
    pass


def _canonical_route(text, j):
    """Whether `_parse_products` reads the text without `_parse_chunks`."""
    def refuse(text):
        raise _ChunkRoute

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_chunks", refuse)
        try:
            cli._parse_products(text, j)
        except _ChunkRoute:
            return False
    return True


def _chunk_route(text, j):
    """`_parse_products` of the text read chunk by chunk and validated by
    `SubsetProductMap`, as the CLI reads any text that is not canonical."""
    ell, raw, echo = cli._parse_chunks(text)
    return ell, list(SubsetProductMap(ell, j, raw).products.values()), echo


PERTURBATIONS = ("space in a head", "leading zero", "two chunks swapped",
                 "one chunk dropped", "one chunk duplicated", "trailing semicolon",
                 "non-numeric value", "separators swapped", "extra colon",
                 "--j off by one")


@settings(deadline=None)
@given(data=st.data(), ell=st.integers(2, 12), d=st.integers(2, 4),
       fmt=st.sampled_from(("text", "json", "csv")),
       kind=st.sampled_from(PERTURBATIONS))
def test_canonical_products_parse_as_chunk_by_chunk(data, ell, d, fmt, kind):
    j = data.draw(st.integers(1, ell - 1))
    count = math.comb(ell, j)
    # The products of a d-ary partition, or any positive values.
    dary = data.draw(st.booleans())
    if dary:
        exponents = sorted(data.draw(st.lists(st.integers(0, 6), min_size=ell,
                                              max_size=ell)), reverse=True)
        values = [d ** sum(exponents[i - 1] for i in tup)
                  for tup in combinations(range(1, ell + 1), j)]
    else:
        values = data.draw(st.lists(st.integers(1, 10**30), min_size=count,
                                    max_size=count))
    chunks = _chunks(ell, j, values)
    text = ";".join(chunks)
    assert _canonical_route(text, j)
    if dary:  # presym writes the products table in the same canonical text
        partition = ",".join(str(d**e) for e in exponents)
        code, out, _ = _main_io(["presym", "--partition", partition, "--j", str(j),
                                 "--format", "json"])
        table = json.loads(out)["metadata"]["products"]
        assert code == 0 and ";".join(f"{k}:{v}" for k, v in table.items()) == text
    ell_read, read, echo = cli._parse_products(text, j)
    chunk_ell, chunk_raw, chunk_echo = cli._parse_chunks(text)
    assert list(chunk_echo.items()) == list(echo.items())
    assert ell_read == chunk_ell == ell
    assert read == list(SubsetProductMap(ell, j, chunk_raw).products.values())
    assert list(echo.items()) == list(zip(cli._index_texts(ell, j), chunk_raw.values()))

    spoiled, spoiled_j = _perturb(kind, chunks, j, data.draw)
    if kind != "one chunk dropped":  # dropping the last chunk of j = 1 is canonical
        assert not _canonical_route(spoiled, spoiled_j)
    argvs = [["reconstruct", "--products", products, "--d", str(d), "--j", str(order),
              "--format", fmt] for products, order in ((text, j), (spoiled, spoiled_j))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_products", _chunk_route)
        chunk_by_chunk = [_main_io(argv) for argv in argvs]
    assert [_main_io(argv) for argv in argvs] == chunk_by_chunk


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ell=st.integers(2, 12), d=st.sampled_from((2, 3, 5)))
def test_canonical_text_with_one_product_times_d_fails_as_the_map(data, ell, d):
    j = data.draw(st.integers(1, ell - 1))
    tuples = list(combinations(range(1, ell + 1), j))
    exponents = sorted(data.draw(st.lists(st.integers(0, 6), min_size=ell,
                                          max_size=ell)), reverse=True)
    values = [d ** sum(exponents[i - 1] for i in tup) for tup in tuples]
    # The first and the last tuple are drawn as often as all others together.
    at = data.draw(st.sampled_from((0, len(tuples) - 1)) | st.integers(0, len(tuples) - 1))
    values[at] *= d
    text = ";".join(_chunks(ell, j, values))
    assert _canonical_route(text, j)
    try:
        mu = reconstruct_exponents(SubsetProductMap(ell, j, dict(zip(tuples, values))), d)
        expected = (0, "")
    except InconsistentData as exc:
        expected = (1, f"partwaves: error: {exc}\n")
    code, out, err = _main_io(["reconstruct", "--products", text, "--d", str(d),
                               "--j", str(j), "--format", "json"])
    assert (code, err) == expected
    if tuples[at] not in _subsystem_tuples(ell, j):  # the solve reads it only in the check
        assert err == f"partwaves: error: product equation violated at indices {tuples[at]}\n"
    if not code:  # one product times d can still be a d-ary map, of one other λ
        assert json.loads(out)["metadata"]["exponents"] == list(mu.exponents)


def test_canonical_route_reads_a_benchmark_sized_map(monkeypatch, capsys):
    read = []
    parse_chunks = cli._parse_chunks

    def spy(text):
        read.append(text)
        return parse_chunks(text)

    built = []
    init = SubsetProductMap.__init__

    def spy_init(self, length, order, products):
        built.append((length, order))
        init(self, length, order, products)

    monkeypatch.setattr(cli, "_parse_chunks", spy)
    monkeypatch.setattr(SubsetProductMap, "__init__", spy_init)
    rng = random.Random(24)
    d, ell, j = 5, 40, 3
    exponents = sorted((rng.randint(0, 12) for _ in range(ell)), reverse=True)
    values = [d ** sum(exponents[i - 1] for i in tup)
              for tup in combinations(range(1, ell + 1), j)]
    chunks = _chunks(ell, j, values)
    assert len(chunks) == 9880
    argv = ["reconstruct", "--d", str(d), "--j", str(j), "--products", ";".join(chunks)]
    rc, record = run_json(capsys, argv)
    assert rc == 0
    assert record["metadata"]["exponents"] == exponents
    assert list(record["inputs"]["products"].items()) == [
        (chunk.partition(":")[0], value) for chunk, value in zip(chunks, values)]
    assert built == []
    # The same map with a space after each ';' goes chunk by chunk, through
    # one map.
    argv[-1] = "; ".join(chunks)
    rc, spaced = run_json(capsys, argv)
    assert (rc, spaced["metadata"], built) == (0, record["metadata"], [(ell, j)])
    assert read == [argv[-1]]
    read.clear()
    # One product times d: canonical keys, no solution.
    values[rng.randrange(len(values))] *= d
    with pytest.raises(InconsistentData) as exc:
        reconstruct_exponents(SubsetProductMap(
            ell, j, dict(zip(combinations(range(1, ell + 1), j), values))), d)
    built.clear()
    argv[-1] = ";".join(_chunks(ell, j, values))
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (1, "", f"partwaves: error: {exc.value}\n")
    assert read == [] and built == []


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


def _verify_outputs(capsys, argv):
    """Exit code and output of `verify` in json and in csv."""
    return [run(capsys, ["verify", *argv, "--format", fmt]) for fmt in ("json", "csv")]


def test_verify_circulant_failure_record(monkeypatch, capsys):
    # No circulant determinant misses its j, so a failed row is made up here.
    rows = (CirculantRow(2, 1, 1, 1, True), CirculantRow(2, 2, 3, 2, False))
    monkeypatch.setattr(cli, "circulant_det_check", lambda n_max: rows)
    assert _verify_outputs(capsys, ["--mode", "circulant", "--n-max", "2"]) == [
        (1, '{"command":"verify","inputs":{"mode":"circulant","n_max":2},'
            '"result":{"ok":false,"checked":2},'
            '"metadata":{"failures":[{"n":2,"j":2,"det":3,"expected":2}]}}\n', ""),
        (1, "n,j,det,expected,ok\n2,1,1,1,true\n2,2,3,2,false\n", ""),
    ]


def test_verify_uniqueness_violation_record(monkeypatch, capsys):
    # The theorem leaves no violation to find, so one is made up here.
    report = UniquenessReport(10, (((1, 0, 0), (0, 1, 0)),), (((2, 0, 0), (1, 1, 0)),))
    monkeypatch.setattr(cli, "verify_uniqueness", lambda d, ell, max_exp, j: report)
    argv = ["--mode", "uniqueness", "--d", "2", "--ell", "3", "--max-exp", "2", "--j", "2"]
    assert _verify_outputs(capsys, argv) == [
        (1, '{"command":"verify","inputs":{"mode":"uniqueness","d":2,"ell":3,'
            '"max_exp":2,"j":2},"result":{"ok":false,"vectors_checked":10,'
            '"violations":1},"metadata":{"multiset_only":1,"multiset_examples":'
            '[{"first":[2,0,0],"second":[1,1,0]}]}}\n', ""),
        (1, "mode,d,ell,max_exp,j,vectors_checked,violations,ok\n"
            "uniqueness,2,3,2,2,10,1,false\n", ""),
    ]


def _per_cell(value):
    """The csv cell rule applied one cell at a time: booleans as true/false,
    None empty, a list comma-joined, anything else its str()."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(_per_cell(v) for v in value)
    return str(value)


def _per_cell_csv(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_per_cell(cell) for cell in row])
    return out.getvalue()


@pytest.mark.parametrize("parts, n_max, variant", [
    ("1,2,3,4,5,6", 40, TWISTED),
    # literal rows with a total, failing at odd n (j = 2), and rows with
    # none (j = 3, 5, 7)
    ("1,2", 12, LITERAL),
    ("3,5,7", 12, LITERAL),
    # benchmark-sized sweeps: lcm 60 and 24, 6 waves, negative terms
    ("2,3,4,5,6,12", 200, TWISTED),
    ("1,2,3,4,6,8", 116, TWISTED),
])
def test_sweep_csv_equals_the_per_cell_rendering(capsys, parts, n_max, variant):
    a = PartsList(tuple(map(int, parts.split(","))))
    rows = [[row.n, term.j, term.value if term.value is not None else term.error,
             row.total, row.expected, row.ok]
            for row in wave_decomposition_check(a, n_max, variant) for term in row.terms]
    expected = _per_cell_csv(["n", "j", "value", "total", "expected", "ok"], rows)
    rc, out, err = run(capsys, ["verify", "--mode", "waves", "--parts", parts,
                                "--n-max", str(n_max), "--variant", variant,
                                "--format", "csv"])
    assert rc == (0 if variant == TWISTED else 1)
    assert out == expected


@st.composite
def _sweep_parts(draw):
    """Up to four distinct parts whose lcm is at most 36."""
    D = draw(st.integers(1, 36))
    return draw(st.lists(st.sampled_from([p for p in range(1, D + 1) if D % p == 0]),
                         min_size=1, max_size=4, unique=True))


@settings(deadline=None, max_examples=40)
@given(parts=_sweep_parts(), n_max=st.integers(0, 30),
       variant=st.sampled_from((TWISTED, LITERAL)))
def test_sweep_csv_lines_are_the_library_rows(parts, n_max, variant):
    # The sweep writes its terms from numerator pairs; every line must read
    # as the library's row does with str(Fraction): negative and integral
    # values, totals, NotRational errors and the ok column.
    lines = ["n,j,value,total,expected,ok"]
    for row in wave_decomposition_check(PartsList(parts), n_max, variant):
        for term in row.terms:
            cells = [row.n, term.j, term.error if term.value is None else str(term.value),
                     "" if row.total is None else str(row.total), row.expected,
                     "true" if row.ok else "false"]
            out = io.StringIO()
            csv.writer(out, lineterminator="").writerow(cells)
            lines.append(out.getvalue())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", "--mode", "waves", "--parts", ",".join(map(str, parts)),
              "--n-max", str(n_max), "--variant", variant, "--format", "csv"])
    assert out.getvalue().splitlines() == lines


def test_small_tables_csv_equal_the_per_cell_rendering(capsys):
    rows = [[row.n, row.j, row.det, row.expected, row.ok]
            for row in circulant_det_check(8)]
    rc, out, err = run(capsys, ["verify", "--mode", "circulant", "--n-max", "8",
                                "--format", "csv"])
    assert (rc, out) == (0, _per_cell_csv(["n", "j", "det", "expected", "ok"], rows))
    a = PartsList((2, 3, 7))
    rows = [[[2, 3, 7], 40, denumerant_formula(a, 40), denumerant_dp(a, 40), True]]
    rc, out, err = run(capsys, ["count", "--parts", "2,3,7", "--n", "40",
                                "--format", "csv"])
    assert (rc, out) == (
        0, _per_cell_csv(["parts", "n", "count", "oracle", "agreement"], rows))


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


def test_cli_outputs_match_the_digests():
    # Every argv of tools/cli_diff.py against tests/cli_digests.txt, run in
    # two subprocesses side by side; an output changed on purpose is
    # rewritten with `python tools/cli_diff.py --write-digests`.
    argvs = cli_diff.argv_list()
    src = str(Path(partwaves.__file__).parents[1])
    results = [None] * len(argvs)
    with ThreadPoolExecutor(2) as pool:
        results[::2], results[1::2] = pool.map(lambda part: cli_diff.run_tree(src, part),
                                               (argvs[::2], argvs[1::2]))
    problems = cli_diff.compare_digests(argvs, results, cli_diff.read_digests())
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("command", cli_diff.SUBCOMMANDS)
def test_reader_agrees_with_argparse_on_the_listed_argv(command):
    # The direct reader either leaves an argv to argparse or reads the
    # namespace argparse parses, defaults, command and handler included.
    parser = cli._build_parser()
    assert list(_subparsers(parser).choices) == list(cli_diff.SUBCOMMANDS)
    read = [argv for argv in cli_diff.argv_list()
            if argv[:1] == [command] and cli._read_argv(argv) is not None]
    assert read
    for argv in read:
        assert vars(cli._read_argv(argv)) == _parse(parser, argv), argv


def test_only_argv_left_to_argparse_builds_the_subparsers(monkeypatch, capsys):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    # Well-formed argv is read directly; any other argv builds all seven.
    assert run(capsys, ["waves", "--d", "2", "--n", "100"])[0] == 0
    assert calls == []
    for argv in (["waves", "--d", "2", "--n", "100", "--format=json"],
                 ["count", "--parts", "1,3", "--n", "8", "-h"], ["--help"]):
        assert run(capsys, argv)[0] == 0
        assert calls == list(cli_diff.SUBCOMMANDS), argv
        calls.clear()


def test_digests_skip_argparse_output_recorded_for_other_pythons():
    argvs = [["--help"], ["count"], ["count", "--n", "8"]]
    results = [["usage: a\n", "", 0], ["", "usage: b\n", 2], ["n: 8\n", "", 0]]
    lines = cli_diff.digests(argvs, results)
    assert [python for _, python, _ in lines] == [cli_diff.PYTHON] * 2 + ["any"]
    # The argparse lines as another Python wrote them.
    expected = {key: {"2.0" if python != "any" else python: fields}
                for key, python, fields in lines}
    assert cli_diff.compare_digests(argvs, results, expected) == []
    results[1] = ["", "partwaves: error: b\n", 2]
    results[2] = ["n: 9\n", "", 0]
    assert cli_diff.compare_digests(argvs, results, expected) == [
        '["count"]: no line for python any',
        '["count", "--n", "8"]: stdout differ',
    ]
    assert cli_diff.compare_digests(argvs[1:], results[1:], expected)[-1].endswith(
        "names no argv")


def _echo(args):
    """A handler that prints the namespace it was given."""
    fields = {key: value for key, value in vars(args).items() if key != "handler"}
    return {"args": fields}, sorted(fields), [[fields[key] for key in sorted(fields)]], 0


def _values(option):
    """Values for one option: valid ones and what int(), the choices or the
    reader's '-' rule refuse."""
    odd = st.sampled_from((" 7", "1_000", "-5", "", "x", "2.5", "--n", "-h"))
    if option.choices is not None:
        return st.sampled_from(option.choices) | odd
    if option.type is int:
        return st.integers(0, 99).map(str) | odd
    return st.sampled_from(("1,3", "2,3,5", " 1, 2")) | odd


@st.composite
def _argvs(draw):
    """A command, its required options and some others with values, and up
    to two pieces of noise, all in any order."""
    command = draw(st.sampled_from(cli_diff.SUBCOMMANDS))
    options = cli._COMMANDS[command][2]
    pieces = [[option.flag, draw(_values(option))] for option in options
              if option.required or draw(st.booleans())]
    option = st.sampled_from(options)
    noise = st.one_of(
        option.flatmap(lambda o: _values(o).map(lambda value: [o.flag, value])),
        option.flatmap(lambda o: _values(o).map(lambda value: [f"{o.flag}={value}"])),
        option.map(lambda o: [o.flag[:-1], "1"]),
        st.sampled_from((["--bogus", "1"], ["--"], ["-h"], ["extra"], ["--n"])),
    )
    pieces += draw(st.lists(noise, max_size=2))
    return [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@pytest.fixture(scope="module")
def parser():
    """One comparison parser for every example; `main` builds its own."""
    return cli._build_parser()


@settings(deadline=None, max_examples=300)
@given(argv=_argvs())
def test_reader_agrees_with_argparse(parser, argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == _parse(parser, argv)
    # Handlers that echo their namespace keep any drawn value cheap to run;
    # the rest of main, its errors and exit codes, runs as it is.
    with pytest.MonkeyPatch.context() as mp:
        for name, (help_line, _, options) in list(cli._COMMANDS.items()):
            mp.setitem(cli._COMMANDS, name, (help_line, _echo, options))
        direct = _main_io(argv)
        # A declined argv already went to argparse, so only a read one is
        # run again through argparse.
        if args is not None:
            mp.setattr(cli, "_read_argv", lambda argv: None)
            assert _main_io(argv) == direct


def test_top_level_error_after_a_command_shows_the_full_usage(capsys):
    rc, out, err = run(capsys, ["count", "--parts", "1,3", "--n", "8", "extra"])
    assert rc == 2
    assert out == ""
    usage = cli._build_parser().format_usage()
    assert "{count,dary-count,poly-part,waves,presym,reconstruct,verify}" in usage
    assert err == usage + "partwaves: error: unrecognized arguments: extra\n"
