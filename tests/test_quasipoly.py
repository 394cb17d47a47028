import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partwaves import quasipoly
from partwaves.dary import count_dary, integer_log, wave_d
from partwaves.partitions import PartsList, denumerant_dp, denumerant_series
from partwaves.quasipoly import _fold, denumerant_formula
from partwaves.waves import divisor_set


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
    assert type(denumerant_formula(PartsList((1, 3)), 8)) is int
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
    spread = quasipoly._spread
    for parts in [(2, 3, 5, 7), (12, 8, 6, 9), (1, 2, 4, 8)]:
        a = PartsList(parts)
        box_length = sum(a.D - p for p in parts) + 1

        def spy(counts, stride, count, size):
            out = spread(counts, stride, count, size)
            assert len(out) < box_length, "denumerant_formula built the full box"
            return out

        monkeypatch.setattr(quasipoly, "_spread", spy)
        assert denumerant_formula(a, 100) == denumerant_dp(a, 100)


@settings(deadline=None)
@given(
    specs=st.lists(st.tuples(st.sampled_from((1, 2, 3, 4, 6, 9, 10, 12, 15, 30)),
                             st.integers(1, 4)), max_size=5),
    g=st.sampled_from((1, 6, 30, 60, 180)),
    top=st.integers(0, 150),
)
# The running gcd drops 60 -> 30 -> 10 -> 2 -> 1, with stride 10 twice.
@example(specs=[(10, 3), (3, 3), (30, 2), (4, 2), (10, 1)], g=60, top=75)
# A cut at a sum the next stride steps over: 0 and 10 survive, 20 goes.
@example(specs=[(10, 3), (1, 1)], g=10, top=15)
def test_fold_equals_the_enumerated_box(specs, g, top):
    box = Counter(sum(stride * t for (stride, _), t in zip(specs, ts))
                  for ts in product(*(range(count) for _, count in specs)))
    counts, g_out = _fold(specs, g)
    assert g_out == math.gcd(g, *(stride for stride, _ in specs))
    assert len(counts) == max(box) // g_out + 1
    assert {g_out * i: c for i, c in enumerate(counts) if c} == box
    # Cut at top, the fold is the box restricted to s <= top, on the same g.
    capped, g_capped = _fold(specs, g, top)
    assert g_capped == g_out
    assert len(capped) <= min(max(box), top) // g_out + 1
    assert ({g_out * i: c for i, c in enumerate(capped) if c}
            == {s: c for s, c in box.items() if s <= top})


@settings(deadline=None)
@given(counts=st.lists(st.integers(0, 9), min_size=1, max_size=12),
       stride=st.integers(1, 7), count=st.integers(1, 5), size=st.integers(1, 60))
# A cap below the stride: the classes past it are not spread at all.
@example(counts=[1, 2, 3], stride=5, count=3, size=2)
def test_spread_is_the_full_spread_cut_at_size(counts, stride, count, size):
    full = [0] * (len(counts) + stride * (count - 1))
    for i, c in enumerate(counts):
        for t in range(count):
            full[i + stride * t] += c
    assert quasipoly._spread(counts, stride, count, size) == full[:size]


def test_formula_fold_keeps_no_sum_above_n(monkeypatch):
    # At n < D the uncapped fold would reach sums near (r - 1) * D; every
    # list the fold carries from one step to the next, and the list it
    # returns, holds at most n // g + 1 entries, g the gcd of the folded
    # parts (the running gcd is a multiple of it).  Each list `_spread`
    # returns holds at most the `size` it was asked for, the fold's cap.
    spread, fold = quasipoly._spread, quasipoly._fold
    for parts, n in [((2, 3, 5, 7), 150), ((2, 3, 5, 11, 13, 14), 20000),
                     ((12, 8, 6, 9), 50), (tuple(2**i for i in range(14)), 8191),
                     (tuple(3**i for i in range(9)), 6560)]:
        a = PartsList(parts)
        assert n < a.D
        *folded, _ = sorted(parts, reverse=True)
        bound = n // math.gcd(*folded) + 1
        kept = []

        def spy_spread(counts, stride, count, size):
            out = spread(counts, stride, count, size)
            assert len(out) <= size, (parts, n, len(out), size)
            kept.extend((len(counts), len(out)))
            return out

        def spy_fold(specs, g, top):
            counts, g = fold(specs, g, top)
            kept.append(len(counts))
            return counts, g

        monkeypatch.setattr(quasipoly, "_spread", spy_spread)
        monkeypatch.setattr(quasipoly, "_fold", spy_fold)
        assert denumerant_formula(a, n) == denumerant_dp(a, n)
        assert kept and max(kept) <= bound, (parts, n, max(kept), bound)


def test_dary_windows_fold_with_stride_one(monkeypatch):
    # On (1, d, ..., d**k) each stride divides the one folded before it, so
    # the formula and every wave spread each part with stride 1.
    strides = []
    spread = quasipoly._spread

    def spy(counts, stride, count, size):
        strides.append(stride)
        return spread(counts, stride, count, size)

    monkeypatch.setattr(quasipoly, "_spread", spy)
    for d, n in ((2, 100), (3, 200), (5, 700)):
        window = PartsList(tuple(d**i for i in range(integer_log(d, n) + 1)))
        for route in (lambda: count_dary(d, n),
                      lambda: [wave_d(j, d, n) for j in divisor_set(window)]):
            strides.clear()
            route()
            assert strides and set(strides) == {1}, (d, n)


def test_formula_rejects_negative_n():
    with pytest.raises(ValueError):
        denumerant_formula(PartsList((1, 2)), -1)


def _step_difference(series, n, step, order):
    """order-th forward difference of series at n with the given step."""
    return sum(
        (-1) ** (order - i) * math.comb(order, i) * series[n + i * step]
        for i in range(order + 1)
    )


def test_dp_step_differences_single_unit_part():
    # period 1, degree 0: the count is the constant 1
    a = PartsList((1,))
    assert a.D == 1
    series = denumerant_series(a, 20)
    assert series == [1] * 21
    assert all(denumerant_formula(a, n) == 1 for n in range(21))


def test_dp_step_differences_parts_one_two():
    # period 2, degree 1: the count is floor(n/2) + 1
    a = PartsList((1, 2))
    assert a.D == 2
    series = denumerant_series(a, 44)
    assert series[:11] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]
    assert all(_step_difference(series, n, 2, 2) == 0 for n in range(41))
    assert [denumerant_formula(a, n) for n in range(11)] == series[:11]


def test_dp_step_differences_and_formula_everywhere():
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


def test_dp_step_difference_of_two_three_is_one():
    # for (2, 3) the count grows by exactly one every period D = 6
    a = PartsList((2, 3))
    series = denumerant_series(a, 101 + a.D)
    for n in range(101):
        assert series[n + a.D] - series[n] == 1
        assert denumerant_formula(a, n + a.D) - denumerant_formula(a, n) == 1
