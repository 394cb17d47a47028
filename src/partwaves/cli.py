"""Command-line interface.

Subcommands cover exact restricted-partition counts (closed formula checked
against a dynamic-programming oracle), base-d partition counts, polynomial
parts by two independent routes, Sylvester wave tables (a waves sweep's row
at one n), elementary symmetric partitions, reconstruction of a base-d
partition from positional products, and bulk verification sweeps.

Output formats: ``text`` (key: value lines), ``json`` (one compact object),
``csv`` (one table).  Exit codes: 0 on success, 1 when a verification fails
or the data is defective (irrational extraction, value not a power of d,
inconsistent products), 2 for usage errors.

Each command's options are declared once, in `_COMMANDS`.  A well-formed
argv, `command --flag value ...`, is read from that table directly, without
importing argparse.  Help, usage errors and every other argv form go to one
argparse parser of all seven commands, built from the same table, so argparse
writes every help text, usage message and usage exit code.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, islice, repeat
from math import comb, gcd
from operator import eq
from types import SimpleNamespace

from .dary import (
    NotPowerOfD,
    _powers_list,
    _window_k,
    _window_specs,
    count_dary,
    poly_part_d_average,
    poly_part_d_bernoulli,
)
from .exact import NotRational
from .partitions import (
    Partition,
    PartsList,
    SubsetProductMap,
    _subset_products,
    denumerant_dp,
    denumerant_series,
    elementary_symmetric_value,
)
from .quasipoly import denumerant_formula
from .reconstruct import (
    InconsistentData,
    _solve,
    circulant_det_check,
    verify_uniqueness,
)
from .waves import (
    DEFAULT_VARIANT,
    LITERAL,
    TWISTED,
    NotDivisor,
    _box_specs,
    _wave_row,
    _wave_rows,
    polynomial_part_average,
    polynomial_part_bernoulli,
)

__all__ = ["main"]


def _json_fraction(value):
    """JSON form of a Fraction: an int when integral, else a 'p/q' string."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _scalar(value) -> str:
    """Text and csv form of a value; str() of a Fraction is 'p/q' or an int."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, list):
        return ",".join(_scalar(v) for v in value)
    return str(value)


def _text_lines(record) -> list[str]:
    lines: list[str] = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(value, list) and value and all(
            isinstance(item, dict) for item in value
        ):
            for item in value:
                joined = " ".join(f"{k}={_scalar(v)}" for k, v in item.items())
                lines.append(f"{prefix}: {joined}")
        else:
            lines.append(f"{prefix}: {_scalar(value)}")

    walk("", record)
    return lines


def _emit(record, header, rows, fmt: str) -> None:
    """Print the record as json or text, or the table as csv.

    The table builders hand over cells that csv renders as `_scalar` would:
    ints, Fractions, strings, and None for an empty cell (booleans and lists
    are formatted when the table is built).  A list of rows goes out in one
    `writerows` pass; a wave table one n at a time by the two routes of
    `_wave_terms`: csv text, written as it is, or rows for `writerows`."""
    if fmt == "json":
        print(json.dumps(record, separators=(",", ":"), default=_json_fraction))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for block in [rows] if isinstance(rows, list) else rows:
            if isinstance(block, str):
                sys.stdout.write(block)
            else:
                writer.writerows(block)
    else:
        for line in _text_lines(record):
            print(line)


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(
            f"{label} must be a comma-separated list of integers, got {text!r}"
        ) from None


def _index_texts(ell: int, j: int):
    """The index j-tuples of 1..ell in `combinations` order, each written
    '1,2,3': the heads of the canonical --products text and of presym's table."""
    return map(",".join, combinations(map(str, range(1, ell + 1)), j))


def _parse_products(text: str, j: int):
    """The --products map as (length, its values in `combinations` order, echo).

    Canonical text, every index j-tuple in `combinations` order written
    '%d,...,%d:value' with no spaces (what the echo prints) and every value
    positive, is read in one pass: its heads are compared with `_index_texts`,
    never converted, and kept as the echo, and its values are the list.  Any
    other text goes to `_parse_chunks` and is validated by `SubsetProductMap`.
    """
    toks = text.replace(";", ":").split(":")
    heads = toks[::2]
    n = len(heads)
    try:
        ell = int(heads[-1].rpartition(",")[2])
        # Less its digits and commas the text must read ':;:;...:', so each
        # chunk holds one ':' and no space; the last head bounds j and ell
        # (by the text's length) before C(ell, j) and the combinations.
        if (text.encode().translate(None, b"0123456789,") == b":;" * (n - 1) + b":"
                and heads[-1].count(",") == j - 1 and ell - j < n == comb(ell, j)
                and all(map(eq, heads, _index_texts(ell, j)))):
            values = list(map(int, islice(toks, 1, None, 2)))
            if min(values):
                return ell, values, dict(zip(heads, values))
    except ValueError:
        pass
    ell, products, echo = _parse_chunks(text)
    return ell, list(SubsetProductMap(ell, j, products).products.values()), echo


def _parse_chunks(text: str):
    """`_parse_products` of any text, chunk by chunk; the echo keys each
    value by its index tuple as the repeat message writes it."""
    products: dict[tuple[int, ...], int] = {}
    echo: dict[str, int] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, tail = chunk.partition(":")
        try:
            if not sep:
                raise ValueError
            indices = tuple(map(int, head.split(",")))
            value = int(tail)
        except ValueError:
            raise ValueError(
                f"bad product entry {chunk!r}; expected indices:value like '1,2:27'"
            ) from None
        key = ",".join(map(str, indices))
        if key in echo:
            raise ValueError(f"--products repeats index tuple {key}")
        products[indices] = echo[key] = value
    if not products:
        raise ValueError("--products must contain at least one entry")
    return max(map(max, products)), products, echo


def _count(inputs, metadata, cells, formula, oracle):
    """Record, table and exit code of a count checked against its oracle;
    `cells` are the table's leading columns, by name."""
    agreement = formula == oracle
    record = {
        "inputs": inputs,
        "result": formula,
        "metadata": {**metadata, "formula": formula, "oracle": oracle},
        "agreement": agreement,
    }
    header = [*cells, "count", "oracle", "agreement"]
    rows = [[*map(_scalar, cells.values()), formula, oracle, _scalar(agreement)]]
    return record, header, rows, 0 if agreement else 1


def _cmd_count(args):
    a = PartsList(_parse_int_list(args.parts, "--parts"))
    n = args.n
    if n < 0:
        raise ValueError("--n must be non-negative")
    inputs = {"parts": list(a.parts), "n": n}
    return _count(inputs, {"D": a.D}, inputs,
                  denumerant_formula(a, n), denumerant_dp(a, n))


def _cmd_dary_count(args):
    d, n = args.d, args.n
    k = _window_k(d, n)
    window = _powers_list(d, k)
    return _count({"d": d, "n": n}, {"k": k, "parts": list(window.parts)},
                  {"d": d, "n": n, "k": k},
                  count_dary(d, n), denumerant_dp(window, n))


def _cmd_poly_part(args):
    if args.parts is not None:
        if args.d is not None or args.k is not None:
            raise ValueError("give either --parts or --d/--k, not both")
        a = PartsList(_parse_int_list(args.parts, "--parts"))
        average = polynomial_part_average(a)
        bernoulli = polynomial_part_bernoulli(a)
        inputs = {"parts": list(a.parts)}
    else:
        if args.d is None or args.k is None:
            raise ValueError("need --parts, or both --d and --k")
        if args.k < 0:
            raise ValueError("--k must be non-negative")
        average = poly_part_d_average(args.d, args.k)
        bernoulli = poly_part_d_bernoulli(args.d, args.k)
        inputs = {"d": args.d, "k": args.k}
    agreement = average == bernoulli
    metadata = {
        "average": list(average.coeffs),
        "bernoulli": list(bernoulli.coeffs),
        "degree": average.degree,
    }
    if args.at is not None:
        if args.at < 0:
            raise ValueError("--at must be non-negative")
        metadata["value_at"] = {"n": args.at, "value": average.evaluate(args.at)}
    record = {
        "inputs": inputs,
        "result": {"coefficients": list(average.coeffs)},
        "metadata": metadata,
        "agreement": agreement,
    }
    header = ["power", "coefficient"]
    rows = [[power, coeff] for power, coeff in enumerate(average.coeffs)]
    return record, header, rows, 0 if agreement else 1


def _wave_terms(ns, divisors, den, rows, expected, records):
    """Table rows n, j, value or error, sum, oracle, agreement per wave term,
    from the numerators `rows` over den at `ns`, one n at a time as csv reads
    them.

    An n with a `_wave_row` record in `records` (every failed n has one)
    comes as rows of cells, for csv to quote their error texts.  Any other n
    agrees: its cells are digits, '-', '/' and 'true', which csv never
    quotes, so its csv lines come as one joined text, a term p written as
    p // g or (p // g)/(den // g), g = gcd(p, den), as str(Fraction(p, den)) is."""
    records = {row.n: row for row in records}
    over = {den: ""}  # "/(den // g)" for each g met so far, none at g = den
    for n, nums, want in zip(ns, rows, expected):
        if row := records.get(n):
            yield [[n, t.j, t.error if t.value is None else t.value,
                    _scalar(row.total), want, _scalar(row.ok)] for t in row.terms]
        else:
            tail, lines = f",{want},{want},true\n", []
            for j, p in zip(divisors, nums):
                g = gcd(p, den)
                if g not in over:
                    over[g] = f"/{den // g}"
                lines.append(f"{n},{j},{p // g}{over[g]}{tail}")
            yield "".join(lines)


def _cmd_waves(args):
    n = args.n
    if args.parts is not None:
        if args.d is not None:
            raise ValueError("give either --parts or --d, not both")
        if n < 0:
            raise ValueError("--n must be non-negative")
        a = PartsList(_parse_int_list(args.parts, "--parts"))
        specs = _box_specs(a)
        inputs = {"parts": list(a.parts), "n": n}
        extra = {"D": a.D}
    else:
        if args.d is None:
            raise ValueError("need --parts or --d")
        d = args.d
        k = _window_k(d, n)
        a = _powers_list(d, k)
        specs = _window_specs(d, k, args.variant)
        inputs = {"d": d, "n": n}
        extra = {"k": k, "D": a.D}
    divisors, den, (nums,) = _wave_rows(a, specs, range(n, n + 1), args.variant)
    row = _wave_row(n, divisors, nums, denumerant_dp(a, n), den)
    table = [{"j": t.j, "value": t.value} if t.value is not None
             else {"j": t.j, "value": None, "error": t.error} for t in row.terms]
    record = {
        "inputs": inputs,
        "result": table,
        "metadata": {"divisors": [t.j for t in row.terms], **extra,
                     "variant": args.variant, "sum": row.total, "oracle": row.expected},
        "agreement": row.ok,
    }
    header = ["n", "j", "value", "sum", "oracle", "agreement"]
    rows = _wave_terms([n], divisors, den, [nums], [row.expected], [row])
    return record, header, rows, 0 if row.ok else 1


def _cmd_presym(args):
    lam = Partition(_parse_int_list(args.partition, "--partition"))
    j = args.j
    value = elementary_symmetric_value(lam, j)
    prods = _subset_products(lam, j)
    table = dict(zip(_index_texts(lam.length, j), prods))
    record = {
        "inputs": {"partition": list(lam.parts), "j": j},
        "result": {"value": value, "parts": sorted(prods, reverse=True)},
        "metadata": {
            "length": lam.length,
            "order": j,
            "products": table,
        },
    }
    header = ["indices", "product"]
    rows = [[key, val] for key, val in table.items()]
    return record, header, rows, 0


def _cmd_reconstruct(args):
    d, j = args.d, args.j
    ell, values, echo = _parse_products(args.products, j)
    mu = _solve(ell, j, values, d)
    record = {
        "inputs": {
            "d": d,
            "j": j,
            "products": echo,
        },
        "result": {"parts": list(mu.parts)},
        "metadata": {
            "exponents": list(mu.exponents),
            "length": mu.length,
            "size": mu.size,
        },
    }
    header = ["index", "exponent", "part"]
    rows = [
        [i + 1, exponent, part]
        for i, (exponent, part) in enumerate(zip(mu.exponents, mu.parts))
    ]
    return record, header, rows, 0


def _cmd_verify(args):
    """Each mode gives its inputs, result, metadata and table; the circulant
    and waves sweeps, checked row by row, also name the fields of a failed
    row.  The report, its `ok` and the exit code are built once, below."""
    mode = args.mode
    if mode == "uniqueness":
        for name in ("d", "ell", "max_exp", "j"):
            if getattr(args, name) is None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"--mode uniqueness requires {flag}")
        report = verify_uniqueness(args.d, args.ell, args.max_exp, args.j)
        inputs = {"mode": mode, "d": args.d, "ell": args.ell,
                  "max_exp": args.max_exp, "j": args.j}
        failures = report.violations
        result = {"vectors_checked": report.vectors_checked,
                  "violations": len(failures)}
        metadata = {
            "multiset_only": len(report.multiset_only),
            "multiset_examples": [
                {"first": list(a), "second": list(b)}
                for a, b in report.multiset_only[:5]
            ],
        }
    elif mode == "circulant":
        if args.n_max is None:
            raise ValueError("--mode circulant requires --n-max")
        checked = circulant_det_check(args.n_max)
        inputs = {"mode": mode, "n_max": args.n_max}
        metadata = {}
        failed = ("n", "j", "det", "expected")
        header = ["n", "j", "det", "expected", "ok"]
        rows = [[row.n, row.j, row.det, row.expected, _scalar(row.ok)]
                for row in checked]
        result = {"checked": len(checked)}
    else:  # "waves", the last of argparse's choices
        if args.parts is None or args.n_max is None:
            raise ValueError("--mode waves requires --parts and --n-max")
        a = PartsList(_parse_int_list(args.parts, "--parts"))
        expected = denumerant_series(a, args.n_max)
        ns = range(args.n_max + 1)
        divisors, den, numerators = _wave_rows(a, _box_specs(a), ns, args.variant)
        inputs = {"mode": mode, "parts": list(a.parts), "n_max": args.n_max}
        metadata = {"variant": args.variant, "divisors": list(divisors)}
        checked = [_wave_row(n, divisors, nums, want, den)
                   for n, nums, want in zip(ns, numerators, expected)
                   if any(map(isinstance, nums, repeat(NotRational)))
                   or sum(nums) != want * den]
        failed = ("n", "total", "expected", "residual")
        header = ["n", "j", "value", "total", "expected", "ok"]
        rows = _wave_terms(ns, divisors, den, numerators, expected, checked)
        result = {"checked": len(ns)}
    if mode != "uniqueness":
        failures = [{key: getattr(row, key) for key in failed}
                    for row in checked if not row.ok]
        metadata["failures"] = failures
    ok = not failures
    if mode == "uniqueness":  # one csv row: the inputs, then the result
        header = [*inputs, *result, "ok"]
        rows = [[*inputs.values(), *result.values(), _scalar(ok)]]
    record = {"inputs": inputs, "result": {"ok": ok, **result}, "metadata": metadata}
    return record, header, rows, 0 if ok else 1


# One option of a command: its flag and argparse's type (int or str),
# required, choices, default and help.
_Option = namedtuple("_Option", "flag type required choices default help",
                     defaults=(str, False, None, None, None))

# Every command takes --format and --seed, and the wave commands --variant
# between them, ahead of their own options, in the order --help lists them.
_FORMAT = _Option("--format", choices=("text", "json", "csv"), default="text",
                  help="output format (default: %(default)s)")
_VARIANT = _Option("--variant", choices=(LITERAL, TWISTED), default=DEFAULT_VARIANT,
                   help="wave weighting variant (default: %(default)s)")
_SEED = _Option("--seed", int, help="rejected if given; every command is deterministic")
_PARTS = "comma-separated distinct positive parts"

# Each command by name: its help line, its handler and its options.
_COMMANDS = {
    "count": ("count partitions of n with parts from a fixed list", _cmd_count, (
        _FORMAT, _SEED,
        _Option("--parts", required=True, help=_PARTS + ", e.g. 1,3"),
        _Option("--n", int, True),
    )),
    "dary-count": ("count partitions of n into powers of d", _cmd_dary_count, (
        _FORMAT, _SEED, _Option("--d", int, True), _Option("--n", int, True),
    )),
    "poly-part": ("polynomial part of the counting function, by two routes",
                  _cmd_poly_part, (
        _FORMAT, _SEED,
        _Option("--parts", help=_PARTS),
        _Option("--d", int, help="base (with --k)"),
        _Option("--k", int, help="largest exponent of the window"),
        _Option("--at", int, help="also evaluate the polynomial at this n"),
    )),
    "waves": ("wave values at n for every divisor of some part", _cmd_waves, (
        _FORMAT, _VARIANT, _SEED,
        _Option("--parts", help=_PARTS),
        _Option("--d", int, help="base; window taken at floor(log_d n)"),
        _Option("--n", int, True),
    )),
    "presym": ("elementary symmetric partition of order j", _cmd_presym, (
        _FORMAT, _SEED,
        _Option("--partition", required=True,
                help="comma-separated non-increasing positive parts"),
        _Option("--j", int, True),
    )),
    "reconstruct": ("recover a base-d partition from its positional j-fold products",
                    _cmd_reconstruct, (
        _FORMAT, _SEED, _Option("--d", int, True), _Option("--j", int, True),
        _Option("--products", required=True, help="semicolon-separated entries "
                "indices:value, e.g. '1,2:27;1,3:9;2,3:3'"),
    )),
    "verify": ("bulk verification sweeps", _cmd_verify, (
        _FORMAT, _VARIANT, _SEED,
        _Option("--mode", required=True, choices=("uniqueness", "circulant", "waves")),
        _Option("--d", int, help="base (uniqueness mode)"),
        _Option("--ell", int, help="partition length (uniqueness mode)"),
        _Option("--max-exp", int, help="largest exponent (uniqueness mode)"),
        _Option("--j", int, help="product order (uniqueness mode)"),
        _Option("--n-max", int, help="sweep bound (circulant and waves modes)"),
        _Option("--parts", help="comma-separated parts (waves mode)"),
    )),
}

_PROG = "partwaves"


def _read_argv(argv):
    """The namespace argparse would parse from a well-formed `argv`, else None.

    Well-formed is `[command, --flag value, ...]`: each flag exactly one of
    the command's options and given once, each value not starting with '-',
    converting with the option's type and lying in its choices, and every
    required option given.  Anything else (help, '--flag=value',
    abbreviations, '--', repeats, negative-looking or bad values, unknown
    flags) is left to argparse, which owns every help text, usage error and
    exit code.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    _, handler, options = entry
    by_flag = {option.flag: option for option in options}
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = by_flag.get(flag)
        if option is None or flag in values or text.startswith("-"):
            return None
        try:
            value = option.type(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[flag] = value
    if any(option.required and option.flag not in values for option in options):
        return None
    return SimpleNamespace(command=argv[0], handler=handler, **{
        option.flag[2:].replace("-", "_"): values.get(option.flag, option.default)
        for option in options})


def _build_parser():
    """The argparse parser for an argv `_read_argv` leaves, with all seven
    subcommands, which its help and usage errors list.

    Each option is added from `_COMMANDS`, so the direct reader and argparse
    read one declaration.  argparse is imported only here: its gettext calls
    import `locale`, which a well-formed call never pays for.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog=_PROG,
        description=(
            "Exact restricted-partition counts, Sylvester wave tables, "
            "and base-d partition tools."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in options:
            p.add_argument(option.flag, type=option.type, required=option.required,
                           choices=option.choices, default=option.default,
                           help=option.help)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.

    A well-formed argv (see `_read_argv`) is read directly.  Any other argv,
    such as help, a usage error or '--n=8', is parsed by the full argparse
    parser of `_build_parser`.  A value with more digits than Python's
    int-to-str limit allows exits 2, as a usage error does, with the limit's
    message; only csv may have written the first lines of its table.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    if args.seed is not None:
        print(
            f"{_PROG}: error: --seed is not supported; "
            "every command is deterministic",
            file=sys.stderr,
        )
        return 2
    try:
        record, header, rows, code = args.handler(args)
        _emit({"command": args.command, **record}, header, rows, args.format)
    except (NotRational, NotDivisor, NotPowerOfD, InconsistentData) as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
