"""Compare the CLI of two partwaves source trees, argv by argv.

Usage:
    python tools/cli_diff.py PARENT_SRC CHANGE_SRC
    python tools/cli_diff.py --write-digests [SRC]

Each SRC is a directory holding the `partwaves` package (a checkout's
`src/`).  To compare the working tree with its last commit, check the
commit out with `git worktree add <dir> HEAD` and pass `<dir>/src` and
`src`.  A fixed list of argv vectors, `argv_list`, is run through
`partwaves.cli.main` once per tree, each tree in its own subprocess, and
every argv whose stdout, stderr or exit code differ between the trees is
listed.  The list covers every subcommand in all three formats and both
wave variants, their usage and data errors and `--help`; the comment on
each group of argv says which code path or edge it reaches.

With `--write-digests` the argv lists are run once under SRC (default: the
checkout's `src/`) and `tests/cli_digests.txt` is rewritten from the results,
which `tests/test_cli.py` checks the package against.  A line holds
a digest of the argv, the Python the line holds for, the exit code and
digests of stdout and stderr.  Output that argparse renders (help and usage
errors, which start 'usage: ') differs across Python versions, so its lines
are keyed by the interpreter's minor version, and the lines of other
versions already in the file are kept; every other line holds for `any`.

Exit code 0 when every argv agrees, 1 when any differs, 2 on bad usage.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys

FORMATS = ("text", "json", "csv")
VARIANTS = ("twisted", "literal")
SUBCOMMANDS = ("count", "dary-count", "poly-part", "waves", "presym",
               "reconstruct", "verify")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "cli_digests.txt")
PYTHON = "%d.%d" % sys.version_info[:2]


def _reconstruct(products: str, d: int = 3, j: int = 2) -> list[str]:
    return ["reconstruct", "--products", products, "--d", str(d), "--j", str(j)]


def _full_products(ell: int, j: int, d: int) -> str:
    """Every positional j-fold product of a d-ary partition of length ell."""
    exponents = [(ell - i) // 3 for i in range(1, ell + 1)]
    return ";".join(
        f"{','.join(map(str, tup))}:{d ** sum(exponents[i - 1] for i in tup)}"
        for tup in itertools.combinations(range(1, ell + 1), j)
    )


def _canonical_edges() -> list[tuple[str, int]]:
    """(products, j) just off the canonical text of a full j = 3 map."""
    full = _full_products(40, 3, 2)
    head, sep, _ = full.rpartition(":")
    return [
        (head + sep + "nine", 3),
        ("0" + full, 3),
        (full + ";", 3),
        (full, 2),
        (head + sep + " 1_024", 3),
        (head + sep + "0", 3),
    ]


def _canonical_defects() -> list[str]:
    """The canonical text of a full j = 3 map with a defective product: times
    2 at its first and at its last tuple, and 0 in the middle."""
    chunks = [chunk.partition(":") for chunk in _full_products(40, 3, 2).split(";")]
    texts = []
    for at, factor in ((0, 2), (len(chunks) - 1, 2), (len(chunks) // 2, 0)):
        head, sep, value = chunks[at]
        spoiled = chunks[:at] + [(head, sep, str(factor * int(value)))] + chunks[at + 1:]
        texts.append(";".join(map("".join, spoiled)))
    return texts


def argv_list() -> list[list[str]]:
    """Every argv the comparison runs, in a fixed order."""
    formatted = [
        ["count", "--parts", "1,3", "--n", "8"],
        ["count", "--parts", "2,3,5", "--n", "0"],
        ["count", "--parts", "2,4", "--n", "7"],
        ["dary-count", "--d", "3", "--n", "20"],
        ["dary-count", "--d", "2", "--n", "100"],
        ["poly-part", "--parts", "1,2,3"],
        ["poly-part", "--parts", "2,3,5", "--at", "17"],
        ["poly-part", "--d", "2", "--k", "3"],
        ["poly-part", "--d", "3", "--k", "2", "--at", "10"],
        ["presym", "--partition", "4,2,1,1", "--j", "2"],
        ["presym", "--partition", "3,2,1", "--j", "3"],
        _reconstruct("1,2:27;1,3:9;2,3:3"),
        _reconstruct("1,2:8;1,3:4;1,4:2;2,3:4;2,4:2;3,4:1", d=2),
        _reconstruct("1,2,3:8;1,2,4:8;1,3,4:4;2,3,4:4", d=2, j=3),
        _reconstruct("1:25;2:5;3:1", d=5, j=1),
        # The combinations pass: a full map of 9880 products, a valid map in
        # reversed order (the echo keeps input order), and heads written
        # with whitespace and leading zeros (the echo writes the integers).
        _reconstruct(_full_products(40, 3, 2), d=2, j=3),
        _reconstruct("2,3:3;1,3:9;1,2:27"),
        _reconstruct(" 1, 02:27;1,3:9;2,3:3"),
        # A canonical text whose value has a leading zero.
        _reconstruct("1:08;2:1", d=2, j=1),
        ["verify", "--mode", "circulant", "--n-max", "6"],
        # Uniqueness sweeps with no multiset-only pairs, with 7 (5 of them
        # shown) and with 2.
        ["verify", "--mode", "uniqueness", "--d", "2", "--ell", "4",
         "--max-exp", "2", "--j", "2"],
        ["verify", "--mode", "uniqueness", "--d", "2", "--ell", "4",
         "--max-exp", "5", "--j", "2"],
        ["verify", "--mode", "uniqueness", "--d", "2", "--ell", "6",
         "--max-exp", "3", "--j", "3"],
    ]
    wave_commands = [
        ["waves", "--parts", "1,2,4", "--n", "9"],
        ["waves", "--parts", "1,3", "--n", "10"],
        ["waves", "--parts", "2,3,5", "--n", "31"],
        ["waves", "--d", "2", "--n", "12"],
        ["waves", "--d", "3", "--n", "20"],
        ["verify", "--mode", "waves", "--parts", "1,2,4", "--n-max", "12"],
        ["verify", "--mode", "waves", "--parts", "1,3", "--n-max", "10"],
    ]
    # One wave evaluation expands only the residue class of n; these reach
    # that path at D = 64, 512 and 125, at n below j, and in the literal
    # variant, which expands every class and reduces modulo Phi_j at
    # D = 512 and D = 60.
    single_waves = [
        ["waves", "--d", "2", "--n", "100", "--format", fmt] for fmt in FORMATS
    ] + [
        ["waves", "--d", "2", "--n", "1000"],
        ["waves", "--d", "5", "--n", "300"],
        ["waves", "--d", "3", "--n", "50", "--variant", "literal"],
        ["waves", "--d", "2", "--n", "1000", "--variant", "literal"],
        ["waves", "--parts", "3,4,10", "--n", "700", "--variant", "literal"],
        ["waves", "--parts", "3,6,7", "--n", "700"],
        ["waves", "--parts", "2,3,9", "--n", "0"],
        ["waves", "--parts", "2,3,9", "--n", "5"],
    ]
    # Large windows, where the largest wave has j = D and its fold holds
    # about (k+1)*D values: k = 14, 15, 16, 9 and 7.
    large_windows = [
        ["waves", "--d", "2", "--n", str(n)] for n in (20000, 40000, 100000)
    ] + [
        ["waves", "--d", "3", "--n", "20000"],
        ["waves", "--d", "5", "--n", "100000"],
    ]
    # The running gcd of the folded strides drops in several steps: 30, 15,
    # 5 for the formula on 6,10,15, and 180, 45, 5, 1 on 12,18,20,45.  The
    # literal d-ary window at k = 4 folds its defective specs.
    gcd_drops = [
        ["waves", "--parts", "6,10,15", "--n", "500"],
        ["count", "--parts", "12,18,20,45", "--n", "4000"],
        ["verify", "--mode", "waves", "--parts", "4,6,9", "--n-max", "40"],
        ["waves", "--d", "2", "--n", "20", "--variant", "literal"],
    ]
    # The DP oracle keeps only the classes of n modulo the gcd of the parts
    # still to add: gcd 2 not dividing n, a gcd that grows 1, 5, 15, one
    # part on and off its multiples, six parts, the k = 15 and k = 0
    # windows, and a wave table whose last parts share gcd 3.
    dp_classes = [
        ["count", "--parts", "4,6,10", "--n", "1001"],
        ["count", "--parts", "6,10,15", "--n", "3000"],
        *(["count", "--parts", "7", "--n", n] for n in ("0", "49", "50")),
        ["count", "--parts", "8,9,10,11,12,14", "--n", "20000"],
        ["dary-count", "--d", "2", "--n", "65535"],
        ["dary-count", "--d", "7", "--n", "0"],
        ["waves", "--parts", "4,6,9", "--n", "1000"],
    ]
    # The polynomial parts and waves at the scale the fold reaches: r = 8
    # parts with D = 27720, the r = 8 window of d = 2 at n near 10**6, and
    # wave tables of six parts and of five pairwise coprime parts.
    folded_scale = [
        ["poly-part", "--parts", "1,2,3,5,7,8,9,11", "--at", "1000"],
        ["poly-part", "--d", "2", "--k", "7", "--at", "999999"],
        ["waves", "--parts", "1,2,3,4,5,6", "--n", "200"],
        ["waves", "--parts", "2,3,5,7,11", "--n", "1000"],
    ]
    # A polynomial part past the r = 8 the benchmark draws: r = 13, where the
    # Bernoulli route's common denominator takes the von Staudt primes 11 and
    # 13.
    large_poly_parts = [
        ["poly-part", "--parts", ",".join(map(str, range(1, 14))), "--at", "1000000"],
    ]
    # The literal extraction at larger orders: 15, 21, 35 and 105, where
    # Phi_105 is the first cyclotomic polynomial with a coefficient outside
    # {-1, 0, 1}; 125 on the d = 5 window; and a sweep where at n = 30 the
    # j = 3 term happens to be rational while j = 5 and j = 7 fail.
    literal_orders = [
        ["waves", "--parts", "3,5,7,105", "--n", "300", "--variant", "literal"],
        ["waves", "--d", "5", "--n", "130", "--variant", "literal"],
        ["verify", "--mode", "waves", "--parts", "3,5,7", "--n-max", "30",
         "--variant", "literal"],
    ]
    # Phi_j for the 24 divisors of 360 and of 420, which have long chains of
    # proper divisors; one format each.
    literal_chains = [
        ["waves", "--parts", "7,360", "--n", "50", "--variant", "literal",
         "--format", "csv"],
        ["waves", "--parts", "11,420", "--n", "30", "--variant", "literal"],
    ]
    # The --d table: its base and n errors, and the literal window at k = 0,
    # 1 and 2, the first defective window.
    dary_route = [
        ["waves", "--d", "1", "--n", "5"],
        ["waves", "--d", "2", "--n", "-1"],
        *(["waves", "--d", d, "--n", n, "--variant", "literal"]
          for d, n in (("2", "1"), ("3", "8"), ("3", "9"))),
    ]
    failing = [
        # not a power of d
        _reconstruct("1,2:27;1,3:9;2,3:3", d=2),
        _reconstruct("1,2:8;1,3:24;2,3:2", d=2),
        # corrupted: no d-ary partition has these products
        _reconstruct("1,2:2;1,3:1;2,3:1", d=2),
        _reconstruct("1,2:1;1,3:1;2,3:4", d=2),
        _reconstruct("1,2:2;1,3:2;2,3:4", d=2),
        _reconstruct("1,2:8;1,3:4;1,4:2;2,3:4;2,4:4;3,4:1", d=2),
        # malformed products
        _reconstruct("1,2:27"),
        _reconstruct("1,2:27;1,3:9;2,3:0"),
        _reconstruct("1,2:27;1,3:9;2,3:3;2,1:5"),
        _reconstruct("1,2:27;1,3:9;2,3:3;1,1:5"),
        _reconstruct("1,2:27;1,3:9;2,3:3;1,2,3:5"),
        _reconstruct("1,2:27;1,3:9;2,3:3;0,1:5"),
        _reconstruct("1,2:27;1,3:9;2,3:3;1,2:81"),
        # the right number of keys, one of them bad: the per-key check names it
        _reconstruct("1,2:27;2,1:9;1,3:3"),
        _reconstruct("1,2:27;1,3:9;2,3:3; 1, 2:27"),
        # the order of refusals: a zero value before and after a stray key,
        # and a stray key on a map of the wrong size
        _reconstruct("1,2:27;1,3:0;2,1:5"),
        _reconstruct("2,1:5;1,2:27;1,3:0"),
        _reconstruct("2,1:9;1,2:27"),
        _reconstruct("1,2:27;1,3:9;x"),
        _reconstruct("1,2:27;1,3:nine;2,3:3"),
        _reconstruct(";;"),
        _reconstruct("1,2:27;1,3:9;2,3:3", d=1),
        _reconstruct("1,2:27;1,3:9;2,3:3", j=3),
        _reconstruct("1,2:27;1,3:9;2,3:3", j=0),
        # just off the canonical text, which is read in one pass
        *(_reconstruct(products, d=2, j=j) for products, j in _canonical_edges()),
        # the canonical text with a product that breaks it
        *(_reconstruct(products, d=2, j=3) for products in _canonical_defects()),
        # large index, order and product
        _reconstruct("1:2;60:1", d=2, j=30),
        _reconstruct("1:2;1000000000:1", d=2, j=1),
        _reconstruct(f"1:{2**3000};2:1", d=2, j=1),
        _reconstruct(f"1:{2**3000 + 1};2:1", d=2, j=1),
        # other usage and data errors
        ["count", "--parts", "1,x", "--n", "8"],
        ["count", "--parts", "1,1", "--n", "8"],
        ["count", "--parts", "1,3", "--n", "-1"],
        ["waves", "--parts", "1,3", "--n", "-1"],
        ["poly-part", "--parts", "1,2", "--at", "-1"],
        ["verify", "--mode", "circulant"],
        _reconstruct("1:5", d=5, j=1),
        ["dary-count", "--d", "1", "--n", "5"],
        ["poly-part"],
        ["poly-part", "--parts", "1,2", "--d", "2", "--k", "1"],
        ["poly-part", "--d", "2", "--k", "-1"],
        ["waves", "--n", "5"],
        ["waves", "--parts", "1,2", "--d", "2", "--n", "5"],
        ["presym", "--partition", "1,2", "--j", "1"],
        ["presym", "--partition", "2,1", "--j", "3"],
        ["verify", "--mode", "uniqueness"],
        ["verify", "--mode", "waves"],
        ["verify", "--mode", "circulant", "--n-max", "1"],
    ]
    usage = [
        [],
        ["--help"],
        *([command, "--help"] for command in SUBCOMMANDS),
        ["no-such-command"],
        ["count", "--parts", "1,3"],
        ["count", "--parts", "1,3", "--n", "8", "--seed", "5"],
        ["count", "--parts", "1,3", "--n", "8", "--variant", "literal"],
        ["count", "--parts", "1,3", "--n", "8", "--format", "xml"],
        ["waves", "--parts", "1,3", "--n", "8", "--variant", "other"],
    ]
    # Argv that do or do not begin with a command name, left to argparse.
    boundary = [
        ["count", "--parts", "1,3", "--n", "8", "extra"],
        ["--format", "json", "count", "--parts", "1,3", "--n", "8"],
        ["-h", "count"],
        ["coun", "--parts", "1,3"],
        ["count"],
        ["verify"],
        ["--", "count", "--parts", "1,3", "--n", "8"],
        ["count", "--parts", "1,3", "--n", "8", "--", "x"],
        ["count", "--pa", "1,3", "--n", "8"],
        ["verify", "--mode", "waves", "--parts", "1,2", "--n-max", "5",
         "--var", "literal"],
        ["count", "--parts", "1,3", "--n", "8", "--format"],
    ]
    # Around the direct argv reader: argv it reads (a repeat, values int()
    # reads with a space or an underscore, an empty --parts, --variant on a
    # verify mode that ignores it) and argv it leaves to argparse.
    reader_edges = [
        ["count", "--parts", "1,3", "--n=8"],
        ["count", "--parts", "1,3", "--n", "1", "--n", "8"],
        ["count", "--parts", "1,3", "--n", " 8"],
        ["count", "--parts", "1,3", "--n", "1_000"],
        ["count", "--parts", "", "--n", "8"],
        ["verify", "--mode=waves", "--parts", "1,3", "--n-max", "10"],
        ["verify", "--mode", "circulant", "--n-max", "6", "--variant", "literal"],
    ]
    # Plain only: argv the reader leaves to argparse ('--format=json', '-h'
    # after a complete option list, a bad --seed, a value equal to a flag).
    reader_plain = [
        ["count", "--parts", "1,3", "--n", "8", "--format=json"],
        ["count", "--parts", "1,3", "--n", "8", "-h"],
        ["count", "--parts", "1,3", "--n", "8", "--seed", "x"],
        ["count", "--parts", "--n", "8"],
    ]
    # Errors raised by the window and base checks the library shares, the
    # smallest sweeps and window, and the largest circulant sweep the
    # benchmark draws (n_max = 18), each in json.
    edges = [
        ["poly-part", "--d", "1", "--k", "2"],
        ["verify", "--mode", "uniqueness", "--d", "1", "--ell", "3",
         "--max-exp", "1", "--j", "1"],
        ["verify", "--mode", "waves", "--parts", "1,3", "--n-max", "0"],
        ["verify", "--mode", "circulant", "--n-max", "2"],
        ["verify", "--mode", "circulant", "--n-max", "18"],
        ["waves", "--d", "2", "--n", "1"],
        ["dary-count", "--d", "2", "--n", "0"],
        ["waves", "--d", "2", "--n", "0"],
    ]
    argvs = [argv + ["--format", fmt]
             for argv in (formatted + folded_scale + large_poly_parts
                          + literal_orders + dary_route)
             for fmt in FORMATS]
    # The d = 3 window at k = 9, r = 10 parts with D = 3**9.
    argvs.append(["poly-part", "--d", "3", "--k", "9", "--at", "5"])
    argvs += [
        argv + ["--variant", variant, "--format", fmt]
        for argv in wave_commands
        for variant in VARIANTS
        for fmt in FORMATS
    ]
    # Wave values as integer numerators over one denominator: D = 360360
    # puts it near 2.6e35; a sweep sums 6 waves per n over 401 values of
    # n; the literal d = 2 window at n = 40 takes the defective branch at
    # k = 5, which divides by its own denominator.
    argvs += [["waves", "--parts", "7,8,9,10,11,13", "--n", "100003",
               "--format", fmt] for fmt in FORMATS]
    argvs += [["verify", "--mode", "waves", "--parts", "1,2,3,4,5,6",
               "--n-max", "400", "--format", fmt] for fmt in FORMATS]
    argvs.append(["waves", "--d", "2", "--n", "40", "--variant", "literal",
                  "--format", "csv"])
    argvs += literal_chains
    # The csv of a whole sweep: one workload-shaped waves sweep and the
    # largest circulant sweep.
    argvs += [["verify", "--mode", "waves", "--parts", "2,3,4,5,6,12",
               "--n-max", "200", "--format", "csv"],
              ["verify", "--mode", "circulant", "--n-max", "18", "--format", "csv"]]
    # Both csv row routes of a waves table: literal sweeps whose odd-n rows
    # fail (the literal j = 2 wave does not flip sign) between agreeing rows,
    # a sweep over den = 1, where every term is an integer, and a failing
    # one-row table.
    argvs += [["verify", "--mode", "waves", "--parts", parts, "--n-max", n_max,
               *variant, "--format", "csv"]
              for parts, n_max, variant in (("1,2", "9", ("--variant", "literal")),
                                            ("2", "5", ("--variant", "literal")),
                                            ("1", "0", ()))]
    argvs.append(["waves", "--parts", "1,2", "--n", "3", "--variant", "literal",
                  "--format", "csv"])
    # Waves evaluated as one column per residue class: a sweep with fewer n
    # than its largest divisor, so some classes of j = 12 are never reached,
    # in both variants; a table at n = 0; and the largest sweeps the
    # benchmark draws at seed 1, by printed terms (200 rows of 6 waves) and
    # by its cost model (117 rows of 6 waves with r = 6).
    argvs += [["verify", "--mode", "waves", "--parts", "5,12", "--n-max", "3",
               "--variant", variant, "--format", fmt]
              for variant, fmt in (("twisted", "csv"), ("literal", "csv"),
                                   ("literal", "json"))]
    argvs += [["waves", "--parts", "5,7", "--n", "0", "--format", fmt]
              for fmt in FORMATS]
    argvs += [["verify", "--mode", "waves", "--parts", parts, "--n-max", n_max,
               "--format", fmt]
              for parts, n_max in (("3,4,6,8", "199"), ("1,2,3,4,6,8", "116"))
              for fmt in FORMATS]
    # The largest presym and uniqueness shapes the benchmark draws: a table of
    # C(12, 6) = 924 products, written in the canonical text that reconstruct
    # reads in one pass, and 462 vectors with 23 multiset-only pairs, the
    # first five shown, in the order the sweep sorts them.
    argvs += [["presym", "--partition", "12,11,10,9,8,7,6,5,4,3,2,1", "--j", "6",
               "--format", fmt] for fmt in FORMATS]
    argvs += [["verify", "--mode", "uniqueness", "--d", "3", "--ell", "6",
               "--max-exp", "5", "--j", "3", "--format", fmt] for fmt in ("json", "csv")]
    # The fold cut at n: below D = 30030 and around r*D = 180180, where the
    # formula's last box sum is read; the windows at their two ends.
    argvs += [["count", "--parts", "2,3,5,11,13,14", "--n", str(n), "--format",
               "json"] for n in (20000, 180179, 180180, 180181)]
    argvs += [["dary-count", "--d", str(d), "--n", str(n), "--format", "json"]
              for d, k in ((2, 13), (3, 8)) for n in (d**k, d ** (k + 1) - 1)]
    argvs += single_waves + large_windows + gcd_drops + dp_classes
    argvs += failing + [argv + ["--format", "json"] for argv in failing + edges]
    argvs += reader_edges + [argv + ["--format", "json"] for argv in reader_edges]
    return argvs + usage + boundary + reader_plain


# Run in a subprocess with the source tree first on sys.path: read the argv
# list as JSON on stdin, write [stdout, stderr, exit code] per argv as JSON.
_WORKER = """
import contextlib, io, json, os, sys
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import partwaves.cli
if not os.path.abspath(partwaves.cli.__file__).startswith(src + os.sep):
    sys.exit(f"partwaves was imported from {partwaves.cli.__file__}, not {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = partwaves.cli.main(argv)
    results.append([out.getvalue(), err.getvalue(), code])
json.dump(results, sys.stdout)
"""


def run_tree(src: str, argvs: list[list[str]]) -> list[list]:
    """[stdout, stderr, exit code] of every argv under the tree `src`."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, src],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode:
        raise RuntimeError(f"running the CLI from {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(argvs: list[list[str]], results: list[list]) -> list[tuple]:
    """(argv digest, python, (exit code, stdout digest, stderr digest)) per
    argv of one run; argparse's output holds for this Python, all else for
    `any`."""
    return [(_digest(json.dumps(argv)),
             PYTHON if (out + err).startswith("usage: ") else "any",
             (str(code), _digest(out), _digest(err)))
            for argv, (out, err, code) in zip(argvs, results)]


def read_digests(path: str = DIGESTS) -> dict[str, dict]:
    """The digests file as {argv digest: {python: fields}}, every Python's
    lines."""
    table: dict[str, dict] = {}
    with open(path) as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                key, python, *fields = line.split()
                table.setdefault(key, {})[python] = tuple(fields)
    return table


def compare_digests(argvs, results, expected) -> list[str]:
    """One line per argv whose digests differ from `expected`, naming the
    fields, and one per line of `expected` that no argv has any more.  An
    argv whose argparse output is recorded only for other Pythons is
    skipped."""
    problems = []
    run = digests(argvs, results)
    for argv, (key, python, fields) in zip(argvs, run):
        rows = expected.get(key, {})
        shown = json.dumps(argv)
        shown = shown if len(shown) <= 100 else shown[:97] + "..."
        if python in rows:
            differ = [name for name, a, b in zip(("exit code", "stdout", "stderr"),
                                                 rows[python], fields) if a != b]
            if differ:
                problems.append(f"{shown}: {', '.join(differ)} differ")
        elif python == "any" or not rows or "any" in rows:
            problems.append(f"{shown}: no line for python {python}")
    stale = expected.keys() - {key for key, _, _ in run}
    problems += [f"line {key} names no argv" for key in sorted(stale)]
    return problems


def write_digests(src: str, path: str = DIGESTS) -> int:
    """Rewrite the digests file from the argv lists run under `src`."""
    argvs = argv_list()
    table = {key: {python: fields}
             for key, python, fields in digests(argvs, run_tree(src, argvs))}
    if os.path.exists(path):
        for key, rows in read_digests(path).items():
            if key in table:
                for python, fields in rows.items():
                    if python not in ("any", PYTHON):
                        table[key].setdefault(python, fields)
    lines = ["# argv digest, python, exit code, stdout digest, stderr digest;"
             " written by tools/cli_diff.py --write-digests\n"]
    lines += [f"{key} {python} {' '.join(fields)}\n"
              for key, rows in table.items() for python, fields in sorted(rows.items())]
    with open(path, "w") as handle:
        handle.writelines(lines)
    print(f"{len(argvs)} argv written to {path}")
    return 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--write-digests"] and len(args) <= 2:
        return write_digests(args[1] if len(args) == 2 else os.path.join(ROOT, "src"))
    if len(args) != 2:
        print("usage: python tools/cli_diff.py PARENT_SRC CHANGE_SRC\n"
              "       python tools/cli_diff.py --write-digests [SRC]", file=sys.stderr)
        return 2
    argvs = argv_list()
    parent, change = (run_tree(src, argvs) for src in args)
    differing = 0
    for argv, old, new in zip(argvs, parent, change):
        fields = [
            name
            for name, a, b in zip(("stdout", "stderr", "exit code"), old, new)
            if a != b
        ]
        if not fields:
            continue
        differing += 1
        print(f"DIFF {json.dumps(argv)}: {', '.join(fields)}")
        for name, a, b in zip(("stdout", "stderr", "exit code"), old, new):
            if name in fields:
                print(f"  parent {name}: {a!r}")
                print(f"  change {name}: {b!r}")
    print(f"{len(argvs)} argv compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
