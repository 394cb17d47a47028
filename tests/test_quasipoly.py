import math
import random
from fractions import Fraction
from itertools import product

import pytest

from partwaves.partitions import PartsList, denumerant_dp, denumerant_series
from partwaves.quasipoly import (
    QuasiPolynomial,
    VerificationFailed,
    denumerant_formula,
    fit_quasipolynomial,
)


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


def test_fit_single_unit_part():
    qp = fit_quasipolynomial(PartsList((1,)), 20)
    assert qp.period == 1
    assert qp.degree == 0
    assert [qp.evaluate(n) for n in range(5)] == [1, 1, 1, 1, 1]


def test_fit_parts_one_two():
    qp = fit_quasipolynomial(PartsList((1, 2)), 40)
    assert qp.period == 2
    assert [qp.evaluate(n) for n in range(11)] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]


def test_fit_parts_one_three_value():
    qp = fit_quasipolynomial(PartsList((1, 3)), 40)
    assert qp.evaluate(8) == 3


def test_fit_reproduces_dp_everywhere():
    for parts in [(1, 3), (2, 3), (1, 2, 4), (2, 3, 5)]:
        a = PartsList(parts)
        qp = fit_quasipolynomial(a, 60)
        series = denumerant_series(a, 120)
        for n in range(121):
            assert qp.evaluate(n) == series[n]
        assert qp.degree == len(parts) - 1
        for poly in qp.residue_polys:
            assert poly.degree <= qp.degree


def test_fit_periodicity_of_differences():
    a = PartsList((2, 3))
    qp = fit_quasipolynomial(a, 60)
    series = denumerant_series(a, 101 + a.D)
    for n in range(101):
        lhs = qp.residue_polys[(n + a.D) % a.D].evaluate(n + a.D)
        rhs = qp.residue_polys[n % a.D].evaluate(n)
        assert lhs - rhs == series[n + a.D] - series[n]


def test_quasipolynomial_validation():
    with pytest.raises(ValueError):
        QuasiPolynomial(0, [], 0)
    from partwaves.exact import RationalPolynomial

    quadratic = RationalPolynomial([0, 0, 1])
    with pytest.raises(ValueError):
        QuasiPolynomial(1, [quadratic], 1)  # degree above the bound
    with pytest.raises(ValueError):
        QuasiPolynomial(2, [quadratic], 2)  # wrong number of residue polys


def test_verification_failed_is_value_error():
    assert issubclass(VerificationFailed, ValueError)
