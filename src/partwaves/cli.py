"""Command-line interface.

Subcommands cover exact restricted-partition counts (closed formula checked
against a dynamic-programming oracle), base-d partition counts, polynomial
parts by two independent routes, Sylvester wave tables, elementary symmetric
partitions, reconstruction of a base-d partition from positional products,
and bulk verification sweeps.

Output formats: ``text`` (key: value lines), ``json`` (one compact object),
``csv`` (one table).  Exit codes: 0 on success, 1 when a verification fails
or the data is defective (irrational extraction, value not a power of d,
inconsistent products), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .dary import (
    NotPowerOfD,
    _powers_list,
    count_dary,
    integer_log,
    poly_part_d_average,
    poly_part_d_bernoulli,
    wave_d,
)
from .exact import NotRational
from .partitions import (
    Partition,
    PartsList,
    SubsetProductMap,
    denumerant_dp,
    elementary_symmetric_partition,
    elementary_symmetric_value,
    positional_products,
)
from .quasipoly import denumerant_formula
from .reconstruct import (
    InconsistentData,
    circulant_det_check,
    reconstruct_exponents,
    verify_uniqueness,
)
from .waves import (
    DEFAULT_VARIANT,
    LITERAL,
    TWISTED,
    divisor_set,
    NotDivisor,
    _wave_row,
    polynomial_part_average,
    polynomial_part_bernoulli,
    wave,
    wave_decomposition_check,
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
    if fmt == "json":
        print(json.dumps(record, separators=(",", ":"), default=_json_fraction))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_scalar(cell) for cell in row])
    else:
        for line in _text_lines(record):
            print(line)


def _parse_int_list(text: str, label: str) -> tuple[int, ...]:
    try:
        values = tuple(int(chunk) for chunk in text.split(","))
    except ValueError:
        raise ValueError(
            f"{label} must be a comma-separated list of integers, got {text!r}"
        ) from None
    return values


def _parse_products(text: str) -> dict[tuple[int, ...], int]:
    products: dict[tuple[int, ...], int] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, sep, tail = chunk.partition(":")
        try:
            if not sep:
                raise ValueError
            indices = tuple(int(x) for x in head.split(","))
            value = int(tail)
        except ValueError:
            raise ValueError(
                f"bad product entry {chunk!r}; expected indices:value like '1,2:27'"
            ) from None
        if indices in products:
            raise ValueError(
                f"--products repeats index tuple {','.join(map(str, indices))}"
            )
        products[indices] = value
    if not products:
        raise ValueError("--products must contain at least one entry")
    return products


def _cmd_count(args):
    a = PartsList(_parse_int_list(args.parts, "--parts"))
    n = args.n
    if n < 0:
        raise ValueError("--n must be non-negative")
    formula = denumerant_formula(a, n)
    oracle = denumerant_dp(a, n)
    agreement = formula == oracle
    record = {
        "command": "count",
        "inputs": {"parts": list(a.parts), "n": n},
        "result": formula,
        "metadata": {"D": a.D, "formula": formula, "oracle": oracle},
        "agreement": agreement,
    }
    header = ["parts", "n", "count", "oracle", "agreement"]
    rows = [[list(a.parts), n, formula, oracle, agreement]]
    return record, header, rows, 0 if agreement else 1


def _cmd_dary_count(args):
    d, n = args.d, args.n
    k = integer_log(d, n)
    window = _powers_list(d, k)
    formula = count_dary(d, n)
    oracle = denumerant_dp(window, n)
    agreement = formula == oracle
    record = {
        "command": "dary-count",
        "inputs": {"d": d, "n": n},
        "result": formula,
        "metadata": {
            "k": k,
            "parts": list(window.parts),
            "formula": formula,
            "oracle": oracle,
        },
        "agreement": agreement,
    }
    header = ["d", "n", "k", "count", "oracle", "agreement"]
    rows = [[d, n, k, formula, oracle, agreement]]
    return record, header, rows, 0 if agreement else 1


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
        "command": "poly-part",
        "inputs": inputs,
        "result": {"coefficients": list(average.coeffs)},
        "metadata": metadata,
        "agreement": agreement,
    }
    header = ["power", "coefficient"]
    rows = [[power, coeff] for power, coeff in enumerate(average.coeffs)]
    return record, header, rows, 0 if agreement else 1


def _term_rows(check_rows) -> list[list]:
    """Table rows n, j, value or error, sum, oracle, agreement per wave term."""
    return [[row.n, term.j, term.value if term.value is not None else term.error,
             row.total, row.expected, row.ok]
            for row in check_rows for term in row.terms]


def _cmd_waves(args):
    n = args.n
    if args.parts is not None:
        if args.d is not None:
            raise ValueError("give either --parts or --d, not both")
        if n < 0:
            raise ValueError("--n must be non-negative")
        a = PartsList(_parse_int_list(args.parts, "--parts"))
        inputs = {"parts": list(a.parts), "n": n}
        extra = {"D": a.D}

        def term(j: int, n: int) -> Fraction:
            return wave(j, a, n, args.variant)

    else:
        if args.d is None:
            raise ValueError("need --parts or --d")
        d = args.d
        k = integer_log(d, n)
        a = _powers_list(d, k)
        inputs = {"d": d, "n": n}
        extra = {"k": k, "D": a.D}

        def term(j: int, n: int) -> Fraction:
            return wave_d(j, d, n, args.variant)

    row = _wave_row(n, divisor_set(a), term, denumerant_dp(a, n))
    table = [{"j": t.j, "value": t.value} if t.value is not None
             else {"j": t.j, "value": None, "error": t.error} for t in row.terms]
    record = {
        "command": "waves",
        "inputs": inputs,
        "result": table,
        "metadata": {"divisors": [t.j for t in row.terms], **extra,
                     "variant": args.variant, "sum": row.total, "oracle": row.expected},
        "agreement": row.ok,
    }
    header = ["n", "j", "value", "sum", "oracle", "agreement"]
    return record, header, _term_rows([row]), 0 if row.ok else 1


def _cmd_presym(args):
    lam = Partition(_parse_int_list(args.partition, "--partition"))
    j = args.j
    value = elementary_symmetric_value(lam, j)
    mu = elementary_symmetric_partition(lam, j)
    prods = positional_products(lam, j)
    record = {
        "command": "presym",
        "inputs": {"partition": list(lam.parts), "j": j},
        "result": {"value": value, "parts": list(mu.parts)},
        "metadata": {
            "length": lam.length,
            "order": j,
            "products": {
                ",".join(map(str, key)): val for key, val in prods.items()
            },
        },
    }
    header = ["indices", "product"]
    rows = [[",".join(map(str, key)), val] for key, val in prods.items()]
    return record, header, rows, 0


def _cmd_reconstruct(args):
    d, j = args.d, args.j
    raw = _parse_products(args.products)
    ell = max(max(tup) for tup in raw)
    products = SubsetProductMap(ell, j, raw)
    mu = reconstruct_exponents(products, d)
    record = {
        "command": "reconstruct",
        "inputs": {
            "d": d,
            "j": j,
            "products": {",".join(map(str, key)): val for key, val in raw.items()},
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
    mode = args.mode
    if mode == "uniqueness":
        for name in ("d", "ell", "max_exp", "j"):
            if getattr(args, name) is None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"--mode uniqueness requires {flag}")
        report = verify_uniqueness(args.d, args.ell, args.max_exp, args.j)
        ok = report.ok
        record = {
            "command": "verify",
            "inputs": {
                "mode": mode,
                "d": args.d,
                "ell": args.ell,
                "max_exp": args.max_exp,
                "j": args.j,
            },
            "result": {
                "ok": ok,
                "vectors_checked": report.vectors_checked,
                "violations": len(report.violations),
            },
            "metadata": {
                "multiset_only": len(report.multiset_only),
                "multiset_examples": [
                    {"first": list(a), "second": list(b)}
                    for a, b in report.multiset_only[:5]
                ],
            },
        }
        header = ["mode", "d", "ell", "max_exp", "j",
                  "vectors_checked", "violations", "ok"]
        rows = [[mode, args.d, args.ell, args.max_exp, args.j,
                 report.vectors_checked, len(report.violations), ok]]
    elif mode == "circulant":
        if args.n_max is None:
            raise ValueError("--mode circulant requires --n-max")
        report = circulant_det_check(args.n_max)
        ok = report.ok
        failures = [row for row in report.rows if not row.ok]
        record = {
            "command": "verify",
            "inputs": {"mode": mode, "n_max": args.n_max},
            "result": {"ok": ok, "checked": len(report.rows)},
            "metadata": {
                "failures": [
                    {"n": row.n, "j": row.j, "det": row.det,
                     "expected": row.expected}
                    for row in failures
                ],
            },
        }
        header = ["n", "j", "det", "expected", "ok"]
        rows = [[row.n, row.j, row.det, row.expected, row.ok]
                for row in report.rows]
    elif mode == "waves":
        if args.parts is None or args.n_max is None:
            raise ValueError("--mode waves requires --parts and --n-max")
        a = PartsList(_parse_int_list(args.parts, "--parts"))
        report = wave_decomposition_check(a, args.n_max, args.variant)
        ok = report.ok
        failures = [row for row in report.rows if not row.ok]
        record = {
            "command": "verify",
            "inputs": {"mode": mode, "parts": list(a.parts), "n_max": args.n_max},
            "result": {"ok": ok, "checked": len(report.rows)},
            "metadata": {
                "variant": report.variant,
                "divisors": list(report.divisors),
                "failures": [
                    {"n": row.n, "total": row.total, "expected": row.expected,
                     "residual": row.residual}
                    for row in failures
                ],
            },
        }
        header = ["n", "j", "value", "total", "expected", "ok"]
        rows = _term_rows(report.rows)
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown mode {mode!r}")
    return record, header, rows, 0 if ok else 1


def _count_arguments(p):
    p.add_argument("--parts", required=True,
                   help="comma-separated distinct positive parts, e.g. 1,3")
    p.add_argument("--n", type=int, required=True)
    return _cmd_count


def _dary_count_arguments(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return _cmd_dary_count


def _poly_part_arguments(p):
    p.add_argument("--parts", help="comma-separated distinct positive parts")
    p.add_argument("--d", type=int, help="base (with --k)")
    p.add_argument("--k", type=int, help="largest exponent of the window")
    p.add_argument("--at", type=int,
                   help="also evaluate the polynomial at this n")
    return _cmd_poly_part


def _waves_arguments(p):
    p.add_argument("--parts", help="comma-separated distinct positive parts")
    p.add_argument("--d", type=int, help="base; window taken at floor(log_d n)")
    p.add_argument("--n", type=int, required=True)
    return _cmd_waves


def _presym_arguments(p):
    p.add_argument("--partition", required=True,
                   help="comma-separated non-increasing positive parts")
    p.add_argument("--j", type=int, required=True)
    return _cmd_presym


def _reconstruct_arguments(p):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument(
        "--products",
        required=True,
        help="semicolon-separated entries indices:value, e.g. '1,2:27;1,3:9;2,3:3'",
    )
    return _cmd_reconstruct


def _verify_arguments(p):
    p.add_argument("--mode", choices=("uniqueness", "circulant", "waves"),
                   required=True)
    p.add_argument("--d", type=int, help="base (uniqueness mode)")
    p.add_argument("--ell", type=int, help="partition length (uniqueness mode)")
    p.add_argument("--max-exp", type=int,
                   help="largest exponent (uniqueness mode)")
    p.add_argument("--j", type=int, help="product order (uniqueness mode)")
    p.add_argument("--n-max", type=int,
                   help="sweep bound (circulant and waves modes)")
    p.add_argument("--parts", help="comma-separated parts (waves mode)")
    return _cmd_verify


# name, help line, whether --variant applies, and the function that adds the
# command's own arguments and returns its handler.
_COMMANDS = (
    ("count", "count partitions of n with parts from a fixed list",
     False, _count_arguments),
    ("dary-count", "count partitions of n into powers of d",
     False, _dary_count_arguments),
    ("poly-part", "polynomial part of the counting function, by two routes",
     False, _poly_part_arguments),
    ("waves", "wave values at n for every divisor of some part",
     True, _waves_arguments),
    ("presym", "elementary symmetric partition of order j",
     False, _presym_arguments),
    ("reconstruct",
     "recover a base-d partition from its positional j-fold products",
     False, _reconstruct_arguments),
    ("verify", "bulk verification sweeps", True, _verify_arguments),
)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for `argv`: only its subcommand when argv[0] names one.

    A call runs one command, so building the other six would be wasted.
    Any other argv (none, --help, an unknown command, an option before the
    command) gets every subcommand, which its help or error lists.
    """
    parser = argparse.ArgumentParser(
        prog="partwaves",
        description=(
            "Exact restricted-partition counts, Sylvester wave tables, "
            "and base-d partition tools."
        ),
    )
    chosen = [entry for entry in _COMMANDS if argv[:1] == [entry[0]]]
    # With one command registered, the metavar keeps the top-level usage
    # listing all seven.  With all seven it stays unset, so that their errors
    # still name the argument "command".
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{" + ",".join(entry[0] for entry in _COMMANDS) + "}"
        if chosen else None,
    )
    for name, help_line, wave_options, arguments in chosen or _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default: %(default)s)",
        )
        # Only the wave commands read --variant; it stays listed before --seed.
        if wave_options:
            p.add_argument(
                "--variant",
                choices=(LITERAL, TWISTED),
                default=DEFAULT_VARIANT,
                help="wave weighting variant (default: %(default)s)",
            )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="rejected if given; every command is deterministic",
        )
        p.set_defaults(handler=arguments(p))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.seed is not None:
        print(
            f"{parser.prog}: error: --seed is not supported; "
            "every command is deterministic",
            file=sys.stderr,
        )
        return 2
    try:
        record, header, rows, code = args.handler(args)
    except (NotRational, NotDivisor, NotPowerOfD, InconsistentData) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    _emit(record, header, rows, args.format)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
