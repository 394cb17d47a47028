"""Checks of CLI output against the benchmark's own answers.

Nothing here imports partwaves.  Counts come from a coin-counting DP, the
polynomial part from averaging the residue polynomials of that DP, and the
rest from what the generator put into the input or from closed forms.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

ERROR_PREFIX = "partwaves: error:"


def coin_counts(parts, n_max: int) -> list[int]:
    """Ways to write each m <= n_max as a sum of the given part sizes."""
    ways = [1] + [0] * n_max
    for p in parts:
        for m in range(p, n_max + 1):
            ways[m] += ways[m - p]
    return ways


def _value(cell) -> Fraction:
    # The CLI renders exact rationals as ints or "p/q" strings.
    return Fraction(str(cell))


def _newton_values(ys, s: Fraction) -> Fraction:
    """Value at s of the polynomial through (t, ys[t]), t = 0..len(ys)-1."""
    diffs = list(ys)
    total = Fraction(0)
    binom = Fraction(1)
    for k in range(len(ys)):
        total += diffs[0] * binom
        binom = binom * (s - k) / (k + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


def _coefficients(values) -> list[Fraction]:
    """Monomial coefficients of the polynomial through (x, values[x])."""
    coeffs = [Fraction(0)] * len(values)
    falling = [Fraction(1)]  # x (x-1) ... (x-k+1) / k!, constant term first
    diffs = list(values)
    for k in range(len(values)):
        for i, c in enumerate(falling):
            coeffs[i] += diffs[0] * c
        nxt = [Fraction(0)] * (len(falling) + 1)
        for i, c in enumerate(falling):
            nxt[i + 1] += c / (k + 1)
            nxt[i] -= c * k / (k + 1)
        falling = nxt
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return coeffs


def polynomial_part(parts) -> list[Fraction]:
    """Coefficients of the polynomial part W_1, constant term first.

    The count is a polynomial of degree r-1 on each residue class mod D.
    Every wave W_j with j > 1 carries a factor rho**(-n), rho a j-th root of
    unity, which sums to zero over a full period of n, so the mean of the D
    residue polynomials is W_1.
    """
    r = len(parts)
    period = math.lcm(*parts)
    counts = coin_counts(parts, r * period - 1)
    sums = [Fraction(0)] * r
    for c in range(period):
        ys = [counts[c + t * period] for t in range(r)]
        for x in range(r):
            sums[x] += _newton_values(ys, Fraction(x - c, period))
    return _coefficients([s / period for s in sums])


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _check_count(expect, rec):
    want = coin_counts(expect["parts"], expect["n"])[expect["n"]]
    if _value(rec["result"]) != want:
        return f"count {rec['result']} != {want}"
    return None


def _check_waves(expect, rec):
    table = rec["result"]
    if [row["j"] for row in table] != expect["divisors"]:
        return f"wave indices {[row['j'] for row in table]} != {expect['divisors']}"
    total = sum(_value(row["value"]) for row in table)
    want = coin_counts(expect["parts"], expect["n"])[expect["n"]]
    if total != want:
        return f"wave sum {total} != count {want}"
    return None


def _check_sweep(expect, out):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["n", "j", "value", "total", "expected", "ok"]:
        return f"unexpected csv header {rows[0]}"
    counts = coin_counts(expect["parts"], expect["n_max"])
    table = {}
    for n, j, value, _, _, ok in rows[1:]:
        if ok != "true":
            return f"row n={n} j={j} not ok"
        table.setdefault(int(n), []).append((int(j), _value(value)))
    if sorted(table) != list(range(expect["n_max"] + 1)):
        return "sweep does not cover 0..n_max"
    for n, terms in table.items():
        if [j for j, _ in terms] != expect["divisors"]:
            return f"wave indices at n={n} differ"
        if sum(v for _, v in terms) != counts[n]:
            return f"wave sum at n={n} != {counts[n]}"
    return None


def _check_poly_part(expect, rec):
    got = _strip(_value(c) for c in rec["result"]["coefficients"])
    want = _strip(polynomial_part(expect["parts"]))
    if got != want:
        return f"polynomial part {got} != {want}"
    at = rec["metadata"].get("value_at")
    if at is not None and _value(at["value"]) != sum(
            c * at["n"] ** i for i, c in enumerate(want)):
        return f"polynomial part at n={at['n']} is not {at['value']}"
    return None


def _check_reconstruct(expect, rec):
    if rec["metadata"]["exponents"] != expect["exponents"]:
        return f"exponents {rec['metadata']['exponents']} != {expect['exponents']}"
    if rec["result"]["parts"] != [expect["d"] ** e for e in expect["exponents"]]:
        return "parts are not d**exponents"
    return None


def _check_presym(expect, rec):
    products = [math.prod(c) for c in itertools.combinations(expect["parts"], expect["j"])]
    if rec["result"]["value"] != sum(products):
        return f"symmetric value {rec['result']['value']} != {sum(products)}"
    if rec["result"]["parts"] != sorted(products, reverse=True):
        return "symmetric partition differs"
    return None


def _check_circulant(expect, rec):
    n_max = expect["n_max"]
    want = n_max * (n_max - 1) // 2  # sum of n - 1 over 2 <= n <= n_max
    if rec["result"] != {"ok": True, "checked": want}:
        return f"circulant result {rec['result']} != checked {want}"
    return None


def _check_uniqueness(expect, rec):
    want = math.comb(expect["max_exp"] + expect["ell"], expect["ell"])
    if rec["result"] != {"ok": True, "vectors_checked": want, "violations": 0}:
        return f"uniqueness result {rec['result']} != {want} vectors, no violations"
    return None


_JSON_CHECKS = {
    "count": _check_count,
    "waves": _check_waves,
    "poly-part": _check_poly_part,
    "reconstruct": _check_reconstruct,
    "presym": _check_presym,
    "circulant": _check_circulant,
    "uniqueness": _check_uniqueness,
}


def check(op, code: int, out: str, err: str) -> str | None:
    """None when the operation's exit code and output are right, else why not."""
    if op.kind == "reconstruct-corrupt":
        if code != 1 or out or not err.startswith(ERROR_PREFIX):
            return f"corrupted products gave exit {code}, stderr {err[:80]!r}"
        return None
    if code != 0:
        return f"exit code {code}, stderr {err[:200]!r}"
    if op.kind == "sweep":
        return _check_sweep(op.expect, out)
    rec = json.loads(out)
    if rec.get("agreement") is False:
        return "the CLI reports disagreement"
    return _JSON_CHECKS[op.kind](op.expect, rec)
