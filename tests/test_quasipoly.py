import math
import random
from fractions import Fraction
from itertools import product

import pytest

from partwaves.partitions import PartsList, denumerant_dp, denumerant_series
from partwaves.quasipoly import denumerant_formula


def brute_formula(a, n):
    """Literal tuple iteration over the box 0 <= j_i <= D/a_i - 1."""
    parts = a.parts
    D = a.D
    r = len(parts)
    total = Fraction(0)
    for tup in product(*(range(D // p) for p in parts)):
        s = sum(p * j for p, j in zip(parts, tup))
        if (n - s) % D:
            continue
        term = Fraction(1)
        for ell in range(1, r):
            term *= Fraction(n - s, D) + ell
        total += term
    return total / math.factorial(r - 1)


def test_formula_golden_values():
    assert denumerant_formula(PartsList((1, 3)), 8) == 3
    assert denumerant_formula(PartsList((1, 3, 9)), 20) == 12
    assert denumerant_formula(PartsList((1,)), 17) == 1
    assert denumerant_formula(PartsList((2, 4)), 5) == 0


def test_formula_matches_literal_tuple_sum():
    for parts in [(1,), (3,), (1, 3), (2, 3), (1, 2), (1, 2, 4), (1, 3, 9), (2, 3, 5)]:
        a = PartsList(parts)
        for n in range(26):
            assert denumerant_formula(a, n) == brute_formula(a, n)


def test_formula_matches_dp_sampled():
    rng = random.Random(5115)
    for _ in range(30):
        parts = tuple(sorted(rng.sample(range(1, 10), rng.randint(1, 3))))
        a = PartsList(parts)
        series = denumerant_series(a, 100)
        for _ in range(12):
            n = rng.randint(0, 100)
            value = denumerant_formula(a, n)
            assert value.denominator == 1
            assert value == series[n]


def test_formula_permutation_invariant():
    rng = random.Random(88)
    for _ in range(10):
        parts = sorted(rng.sample(range(1, 10), 3))
        shuffled = parts[:]
        rng.shuffle(shuffled)
        n = rng.randint(0, 60)
        assert denumerant_formula(PartsList(tuple(parts)), n) == denumerant_formula(
            PartsList(tuple(shuffled)), n
        )


def test_formula_when_running_gcd_drops_more_than_once():
    # (12, 8, 6, 9) folds 12, 9, 8 with gcds 12, 3, 1 and windows over 6;
    # (4, 6, 10, 15) folds 15, 10, 6 with gcds 15, 5, 1 and windows over 4.
    windows = [tuple(d**i for i in range(k + 1)) for d in (2, 3, 4, 5) for k in range(6)]
    for parts in [(12, 8, 6, 9), (4, 6, 10, 15)] + windows:
        a = PartsList(parts)
        r, D = len(parts), a.D
        ns = {0, min(parts) - 1, r * D, r * D + min(parts) + 1, 3 * r * D - 1}
        series = denumerant_series(a, max(ns))
        for n in sorted(ns):
            assert denumerant_formula(a, n) == series[n], (parts, n)


def test_formula_does_not_build_the_box(monkeypatch):
    import partwaves.quasipoly as quasipoly

    spread = quasipoly._spread
    for parts in [(2, 3, 5, 7), (12, 8, 6, 9), (1, 2, 4, 8)]:
        a = PartsList(parts)
        box_length = sum(a.D - p for p in parts) + 1

        def spy(counts, stride, count):
            out = spread(counts, stride, count)
            assert len(out) < box_length, "denumerant_formula built the full box"
            return out

        monkeypatch.setattr(quasipoly, "_spread", spy)
        assert denumerant_formula(a, 100) == denumerant_dp(a, 100)


def test_formula_rejects_negative_n():
    with pytest.raises(ValueError):
        denumerant_formula(PartsList((1, 2)), -1)


def _step_difference(series, n, step, order):
    """order-th forward difference of series at n with the given step."""
    return sum(
        (-1) ** (order - i) * math.comb(order, i) * series[n + i * step]
        for i in range(order + 1)
    )


def test_fit_single_unit_part():
    # period 1, degree 0: the count is the constant 1
    a = PartsList((1,))
    assert a.D == 1
    series = denumerant_series(a, 20)
    assert series == [1] * 21
    assert all(denumerant_formula(a, n) == 1 for n in range(21))


def test_fit_parts_one_two():
    # period 2, degree 1: the count is floor(n/2) + 1
    a = PartsList((1, 2))
    assert a.D == 2
    series = denumerant_series(a, 44)
    assert series[:11] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    assert all(_step_difference(series, n, 2, 2) == 0 for n in range(41))
    assert [denumerant_formula(a, n) for n in range(11)] == series[:11]


def test_fit_reproduces_dp_everywhere():
    # on each residue class mod D the count is a polynomial of degree exactly
    # r-1 whose leading coefficient is 1/((r-1)! * prod(a)), so its (r-1)-th
    # step-D difference is the constant D^(r-1)/prod(a) and its r-th is 0
    for parts in [(1, 3), (2, 3), (1, 2, 4), (2, 3, 5)]:
        a = PartsList(parts)
        r, D = len(parts), a.D
        series = denumerant_series(a, 120 + r * D)
        for n in range(121):
            assert denumerant_formula(a, n) == series[n], (parts, n)
            assert _step_difference(series, n, D, r) == 0, (parts, n)
            assert _step_difference(series, n, D, r - 1) == Fraction(
                D ** (r - 1), math.prod(parts)
            ), (parts, n)


def test_fit_periodicity_of_differences():
    # for (2, 3) the count grows by exactly one every period D = 6
    a = PartsList((2, 3))
    series = denumerant_series(a, 101 + a.D)
    for n in range(101):
        assert series[n + a.D] - series[n] == 1
        assert denumerant_formula(a, n + a.D) - denumerant_formula(a, n) == 1
