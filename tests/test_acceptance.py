"""End-to-end checks, one per advertised guarantee.

Run with `-s` to see the per-criterion summary lines."""

import contextlib
import io
import json
import random
import time
from itertools import combinations, combinations_with_replacement

from partwaves import (
    DAryPartition,
    Partition,
    PartsList,
    build_c_matrix,
    circulant_det_check,
    count_dary,
    denumerant_formula,
    denumerant_series,
    divisor_set,
    exp_d,
    integer_log,
    log_d,
    poly_part_d_average,
    poly_part_d_bernoulli,
    polynomial_part_average,
    polynomial_part_bernoulli,
    positional_products,
    reconstruct_exponents,
    verify_uniqueness,
    wave,
)
from partwaves.cli import main

PRINTED_6_BY_3 = (
    (1, 0, 1, 1, 0, 0),
    (1, 1, 0, 1, 0, 0),
    (1, 1, 1, 0, 1, 0),
    (0, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 1),
)


def _report(number, name, failures, elapsed, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, failures or f"over time budget: {elapsed:.2f}s >= {budget}s"


def _cli_json(argv):
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv + ["--format", "json"])
    elapsed = time.perf_counter() - start
    return rc, json.loads(out.getvalue()), elapsed


def test_criterion_1_golden_cli_values():
    start = time.perf_counter()
    failures = []
    for argv, want in [
        (["dary-count", "--d", "3", "--n", "8"], 3),
        (["dary-count", "--d", "3", "--n", "20"], 12),
    ]:
        rc, record, elapsed = _cli_json(argv)
        if rc != 0 or record["result"] != want or elapsed >= 1.0:
            failures.append((argv, rc, record["result"], elapsed))
    rc, record, elapsed = _cli_json(["poly-part", "--d", "3", "--k", "1", "--at", "8"])
    if rc != 0 or record["metadata"]["value_at"]["value"] != "10/3" or elapsed >= 1.0:
        failures.append(("poly-part", rc, record, elapsed))
    _report(1, "golden command-line values", failures, time.perf_counter() - start)


def test_criterion_2_formula_matches_dp():
    start = time.perf_counter()
    failures = []
    for r in (1, 2, 3):
        for parts in combinations(range(1, 10), r):
            a = PartsList(parts)
            series = denumerant_series(a, 100)
            for n in range(101):
                if denumerant_formula(a, n) != series[n]:
                    failures.append((parts, n))
    _report(2, "closed formula equals dynamic programming", failures,
            time.perf_counter() - start, budget=60.0)


def test_criterion_3_dual_route_polynomial_part():
    start = time.perf_counter()
    failures = []
    for r in (1, 2, 3, 4):
        for parts in combinations(range(1, 10), r):
            a = PartsList(parts)
            if polynomial_part_average(a) != polynomial_part_bernoulli(a):
                failures.append(parts)
    for d in (2, 3, 5):
        for k in range(4):
            if poly_part_d_average(d, k) != poly_part_d_bernoulli(d, k):
                failures.append((d, k))
    _report(3, "averaging and Bernoulli routes agree", failures,
            time.perf_counter() - start)


def test_criterion_4_wave_decomposition():
    start = time.perf_counter()
    failures = []
    for parts in [(1, 3), (1, 2, 4), (1, 3, 9)]:
        a = PartsList(parts)
        series = denumerant_series(a, 60)
        poly = polynomial_part_average(a)
        divisors = divisor_set(a)
        for n in range(61):
            total = sum(wave(j, a, n) for j in divisors)
            if total != series[n]:
                failures.append(("sum", parts, n))
            if wave(1, a, n) != poly.evaluate(n):
                failures.append(("w1", parts, n))
    _report(4, "waves sum to the count and start at the polynomial part",
            failures, time.perf_counter() - start)


def test_criterion_5_circulant_determinants():
    start = time.perf_counter()
    failures = []
    if build_c_matrix(6, 3) != PRINTED_6_BY_3:
        failures.append("6x3 matrix")
    rows = circulant_det_check(10)
    if not all(row.ok for row in rows) or len(rows) != 45:
        failures.append("det sweep")
    _report(5, "structured 0/1 matrix has determinant j", failures,
            time.perf_counter() - start, budget=1.0)


def test_criterion_6_reconstruction_round_trip_and_uniqueness():
    start = time.perf_counter()
    failures = []
    for d in (2, 3):
        for ell in range(2, 6):
            vectors = [
                tuple(reversed(c))
                for c in combinations_with_replacement(range(4), ell)
            ]
            for j in range(1, ell):
                for vec in vectors:
                    mu = DAryPartition(d, vec)
                    spm = positional_products(Partition(mu.parts), j)
                    if reconstruct_exponents(spm, d) != mu:
                        failures.append(("round trip", d, vec, j))
                if verify_uniqueness(d, ell, 3, j).violations:
                    failures.append(("uniqueness", d, ell, j))
    _report(6, "product data reconstructs exponents uniquely", failures,
            time.perf_counter() - start, budget=120.0)


def test_criterion_7_log_exp_bijection():
    start = time.perf_counter()
    failures = []
    rng = random.Random(20260814)
    for i in range(1000):
        d = (2, 3, 10)[i % 3]
        length = rng.randint(1, 12)
        lam = Partition(sorted((rng.randint(1, 20) for _ in range(length)),
                               reverse=True))
        if log_d(exp_d(lam, d)) != lam:
            failures.append((d, lam.parts))
    _report(7, "exponent and logarithm maps invert each other", failures,
            time.perf_counter() - start)


def test_criterion_8_window_stability():
    start = time.perf_counter()
    failures = []
    for d in (2, 3):
        for n in range(1, 81):
            k = integer_log(d, n)
            baseline = count_dary(d, n)
            for top in (k + 1, k + 2):
                window = PartsList(tuple(d**i for i in range(top + 1)))
                if denumerant_formula(window, n) != baseline:
                    failures.append((d, n, top))
    _report(8, "count is stable once the window covers n", failures,
            time.perf_counter() - start)
