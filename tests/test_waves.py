import importlib
import math
import pkgutil
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partwaves
from partwaves.exact import (
    CyclotomicNumber,
    NotRational,
    RationalPolynomial,
    root_of_unity,
    to_rational,
)
from partwaves.partitions import PartsList, denumerant_dp
from partwaves.quasipoly import denumerant_formula
from partwaves.waves import (
    LITERAL,
    TWISTED,
    NotDivisor,
    _ramanujan_sum,
    _residue_moments,
    divisor_set,
    polynomial_part_average,
    polynomial_part_bernoulli,
    wave,
    wave_decomposition_check,
)

FAMILIES = [(1,), (3,), (1, 3), (2, 3), (1, 2), (1, 2, 4), (1, 3, 9)]


def box_tuples(a):
    return product(*(range(a.D // p) for p in a.parts))


def brute_poly_part(a):
    """Polynomial part by literally expanding the box sum in n."""
    D, r = a.D, len(a.parts)
    total = RationalPolynomial([])
    for tup in box_tuples(a):
        s = sum(p * t for p, t in zip(a.parts, tup))
        term = RationalPolynomial([1])
        for m in range(1, r):
            term = term * RationalPolynomial([m - Fraction(s, D), Fraction(1, D)])
        total = total + term
    return total / (D * math.factorial(r - 1))


def brute_weight(j, ell, n, variant):
    if variant == LITERAL:
        return root_of_unity(j, ell)
    total = CyclotomicNumber.zero(j)
    for nu in range(j):
        if math.gcd(nu, j) == 1:
            total = total + root_of_unity(j, nu * (ell - n))
    return total


def brute_wave(j, a, n, variant=TWISTED):
    """Wave by literal tuple iteration, classifying tuples by sum mod j."""
    D, r = a.D, len(a.parts)
    acc = CyclotomicNumber.zero(j)
    for tup in box_tuples(a):
        s = sum(p * t for p, t in zip(a.parts, tup))
        ell = ((s - 1) % j) + 1
        term = Fraction(1)
        for m in range(1, r):
            term *= Fraction(n - s, D) + m
        acc = acc + brute_weight(j, ell, n, variant) * term
    return to_rational(acc) / (D * math.factorial(r - 1))


def test_divisor_set():
    assert divisor_set(PartsList((1, 3))) == (1, 3)
    assert divisor_set(PartsList((2, 3))) == (1, 2, 3)
    assert divisor_set(PartsList((12,))) == (1, 2, 3, 4, 6, 12)
    assert divisor_set(PartsList((1, 2, 4))) == (1, 2, 4)


@given(parts=st.lists(st.one_of(st.integers(1, 10**4),
                                st.integers(1, 100).map(lambda x: x * x)),
                      min_size=1, max_size=6, unique=True))
def test_divisor_set_matches_definition(parts):
    want = tuple(d for d in range(1, max(parts) + 1) if any(p % d == 0 for p in parts))
    assert divisor_set(PartsList(parts)) == want


def test_polynomial_part_golden():
    p13 = polynomial_part_average(PartsList((1, 3)))
    assert p13.evaluate(8) == Fraction(10, 3)
    assert p13.coeffs == (Fraction(2, 3), Fraction(1, 3))
    assert polynomial_part_bernoulli(PartsList((1, 3))).evaluate(8) == Fraction(10, 3)
    one = polynomial_part_average(PartsList((1,)))
    assert one.coeffs == (Fraction(1),)
    assert polynomial_part_bernoulli(PartsList((1,))).coeffs == (Fraction(1),)


def test_polynomial_part_routes_agree():
    for parts in FAMILIES + [(1, 2, 3), (2, 3, 5), (1, 2, 3, 4), (2, 4, 6, 9)]:
        a = PartsList(parts)
        assert polynomial_part_average(a) == polynomial_part_bernoulli(a)


def test_polynomial_part_routes_share_no_code(monkeypatch):
    import partwaves.waves as waves

    def forbidden(*args):
        raise AssertionError("the two polynomial-part routes must stay independent")

    a = PartsList((2, 3, 5))
    average = polynomial_part_average(a)
    bernoulli_route = polynomial_part_bernoulli(a)
    monkeypatch.setattr(waves, "bernoulli", forbidden)
    assert polynomial_part_average(a) == average
    monkeypatch.undo()
    monkeypatch.setattr(waves, "_residue_moments", forbidden)
    monkeypatch.setattr(waves, "_poly_from_box_moments", forbidden)
    assert polynomial_part_bernoulli(a) == bernoulli_route


def test_polynomial_part_matches_brute_expansion():
    for parts in FAMILIES + [(2, 3, 5)]:
        a = PartsList(parts)
        assert polynomial_part_average(a) == brute_poly_part(a)


def test_polynomial_part_leading_coefficient():
    for parts in [(1, 2), (1, 3), (2, 3, 5), (1, 2, 3, 4)]:
        a = PartsList(parts)
        r = len(parts)
        expected = Fraction(1, math.factorial(r - 1) * math.prod(parts))
        assert polynomial_part_average(a).leading_coefficient == expected


def test_integer_weight_matches_cyclotomic_sum():
    # includes j with square factors (mu(j) == 0) such as 16, 18 and 36
    for j in range(1, 40):
        for ell in range(j):
            want = to_rational(brute_weight(j, ell, 0, TWISTED))
            assert _ramanujan_sum(j, math.gcd(j, ell)) == want


def test_wave_golden_values():
    a = PartsList((1, 3))
    assert wave(1, a, 8) == Fraction(10, 3)
    assert wave(3, a, 8) == Fraction(-1, 3)
    assert wave(1, PartsList((1,)), 5) == 1
    # period-3 values of the j=3 wave for parts (1,3)
    for n in range(12):
        expected = [Fraction(1, 3), 0, Fraction(-1, 3)][n % 3]
        assert wave(3, a, n) == expected


def test_wave_one_is_polynomial_part():
    for parts in FAMILIES:
        a = PartsList(parts)
        poly = polynomial_part_average(a)
        for n in range(0, 51, 7):
            assert wave(1, a, n) == poly.evaluate(n)
            assert wave(1, a, n, variant=LITERAL) == poly.evaluate(n)


def test_wave_matches_brute_tuple_sum():
    for parts in [(1, 3), (2, 3), (1, 2, 4), (1, 3, 9)]:
        a = PartsList(parts)
        for j in divisor_set(a):
            for n in range(0, 13):
                assert wave(j, a, n) == brute_wave(j, a, n)


def test_literal_variant_matches_brute_including_failures():
    for parts in [(1, 3), (2, 3), (1, 2, 4)]:
        a = PartsList(parts)
        for j in divisor_set(a):
            for n in range(0, 9):
                try:
                    got = wave(j, a, n, variant=LITERAL)
                except NotRational:
                    got = "not rational"
                try:
                    want = brute_wave(j, a, n, variant=LITERAL)
                except NotRational:
                    want = "not rational"
                assert got == want


def test_literal_wave_two_is_signed_twisted_wave():
    # rho_2 = -1 is rational, so the literal j = 2 wave never fails: its
    # weight (-1)**ell differs from c_2(ell - n) = (-1)**(ell - n) by (-1)**n
    for parts in [(2,), (1, 2), (2, 3), (1, 2, 4), (2, 5, 6), (3, 4, 7), (1, 6, 8, 9)]:
        a = PartsList(parts)
        for n in range(60):
            assert wave(2, a, n, LITERAL) == (-1) ** n * wave(2, a, n)


def test_wave_sum_equals_count():
    for parts in FAMILIES + [(2, 3, 5), (4, 6)]:
        a = PartsList(parts)
        for n in range(0, 41):
            total = sum(wave(j, a, n) for j in divisor_set(a))
            assert total == denumerant_dp(a, n)


def test_wave_fixed_residue_is_polynomial():
    # on each residue class of n mod j the wave agrees with one polynomial of
    # degree <= r-1: its r-th difference with step j vanishes
    for parts, j in [((1, 2, 4), 4), ((1, 3, 9), 9), ((2, 3), 3)]:
        a = PartsList(parts)
        r = len(parts)
        for n in range(3 * j):
            assert sum(
                (-1) ** i * math.comb(r, i) * wave(j, a, n + i * j)
                for i in range(r + 1)
            ) == 0


def test_wave_validation():
    a = PartsList((1, 3))
    with pytest.raises(NotDivisor):
        wave(5, a, 2)
    with pytest.raises(NotDivisor):
        wave(6, PartsList((2, 3)), 1)
    with pytest.raises(ValueError):
        wave(0, a, 2)
    with pytest.raises(ValueError):
        wave(1, a, -1)
    with pytest.raises(ValueError):
        wave(1, a, 2, variant="bogus")


def test_decomposition_check_passes():
    report = wave_decomposition_check(PartsList((1, 3)), 30)
    assert report.ok
    assert report.divisors == (1, 3)
    assert len(report.rows) == 31
    for row in report.rows:
        assert row.total == row.expected
        assert row.residual == 0
        assert [term.j for term in row.terms] == [1, 3]

    only_one = wave_decomposition_check(PartsList((1,)), 10)
    assert only_one.ok
    assert only_one.divisors == (1,)

    assert wave_decomposition_check(PartsList((1, 2, 4)), 50).ok


def test_decomposition_check_literal_failures_are_data():
    report = wave_decomposition_check(PartsList((1, 3)), 6, variant=LITERAL)
    assert not report.ok
    for row in report.rows:
        assert not row.ok
        assert row.total is None
        by_j = {term.j: term for term in row.terms}
        assert by_j[1].value is not None and by_j[1].error == ""
        assert by_j[3].value is None and by_j[3].error


@pytest.mark.parametrize("variant", [TWISTED, LITERAL])
def test_sweep_builds_each_wave_once(monkeypatch, variant):
    import partwaves.waves as waves

    calls = []
    expand = waves._poly_from_box_moments
    monkeypatch.setattr(waves, "_poly_from_box_moments",
                        lambda *args: calls.append(1) or expand(*args))
    a = PartsList((3, 4, 6, 10, 12))
    wave_decomposition_check(a, 80, variant)
    assert len(calls) <= sum(divisor_set(a)) == 43


def test_single_wave_expands_one_class(monkeypatch):
    import partwaves.waves as waves
    from partwaves.cli import main

    calls = []
    expand = waves._poly_from_box_moments
    monkeypatch.setattr(waves, "_poly_from_box_moments",
                        lambda *args: calls.append(1) or expand(*args))
    binary = PartsList(tuple(2**i for i in range(7)))
    assert len(divisor_set(binary)) == 7
    # one residue class of each wave is expanded, not all j of them
    for argv, a in [
        (["waves", "--d", "2", "--n", "100"], binary),
        (["waves", "--parts", "3,4,10", "--n", "700"], PartsList((3, 4, 10))),
    ]:
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == len(divisor_set(a))


def box_size(parts):
    return math.prod(math.lcm(*parts) // p for p in parts)


@settings(deadline=None, max_examples=30)
@given(parts=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True)
       .filter(lambda parts: box_size(parts) <= 200),
       data=st.data())
def test_built_wave_keeps_each_class_apart(parts, data):
    import partwaves.waves as waves

    a = PartsList(parts)
    r = len(parts)
    specs = [(p, a.D // p) for p in parts]
    for j in divisor_set(a):
        built = waves._build_wave(r, a.D, j, _residue_moments(specs, j, r - 1), TWISTED)
        ns = data.draw(st.lists(st.integers(0, 3 * j), min_size=1, max_size=4))
        ns.append(data.draw(st.integers(0, j - 1)))
        brute = {n: brute_wave(j, a, n) for n in ns}
        # repeats and a shuffled order: a class expanded at one n must serve
        # every later n of that class and no other
        for n in data.draw(st.permutations(ns + ns)):
            assert built(n) == wave(j, a, n) == brute[n]


def test_every_cache_is_bounded():
    caches = [
        obj
        for info in pkgutil.iter_modules(partwaves.__path__)
        for obj in vars(importlib.import_module(f"partwaves.{info.name}")).values()
        if hasattr(obj, "cache_info")
    ]
    assert caches
    for cached in caches:
        assert cached.cache_info().maxsize is not None, cached.__qualname__


def brute_residue_moments(specs, j, t_max):
    """Power sums of the box sum split by residue, from the enumerated box."""
    counts = Counter(
        sum(stride * t for (stride, _), t in zip(specs, tup))
        for tup in product(*(range(count) for _, count in specs))
    )
    rows = [[0] * (t_max + 1) for _ in range(j)]
    for s, c in counts.items():
        for t in range(t_max + 1):
            rows[s % j][t] += c * s**t
    return rows


def defective_window_specs(d, k):
    specs = [(d ** (i - 1), d ** (k + 1 - i)) for i in range(1, k - 1)]
    return specs + [(d ** (k - 2) + d ** (k - 1), d * d), (0, d)]


def test_residue_moments_match_box_enumeration():
    cases = [
        [(2, 3), (3, 2)],
        [(1, 4), (2, 2), (5, 3)],
        [(0, 3), (2, 4)],  # a zero stride only scales
        [(3, 1), (1, 5)],  # a count of 1 only scales
        [(0, 1), (7, 1)],
        [(6, 2), (4, 3), (1, 2), (0, 2)],
        [(1, 9), (1, 9), (0, 1)],
    ]
    for specs in cases:
        for j in range(1, 13):
            assert _residue_moments(specs, j, 3) == brute_residue_moments(specs, j, 3)
    for d in (2, 3):
        for k in (3, 4):
            specs = defective_window_specs(d, k)
            for j in (j for j in range(1, d**k + 1) if d**k % j == 0):
                assert _residue_moments(specs, j, k) == brute_residue_moments(specs, j, k)


@st.composite
def small_boxes(draw):
    """Parts lists with lcm at most 36, so that the box can be enumerated."""
    base = draw(st.integers(1, 36))
    divisors = [p for p in range(1, base + 1) if base % p == 0]
    return PartsList(draw(st.lists(st.sampled_from(divisors), min_size=1,
                                   max_size=4, unique=True)))


@settings(deadline=None)
@given(a=small_boxes(), t_max=st.integers(0, 4))
def test_residue_moments_equal_box_enumeration(a, t_max):
    specs = [(p, a.D // p) for p in a.parts]
    for j in (j for j in range(1, a.D + 1) if a.D % j == 0):
        assert _residue_moments(specs, j, t_max) == brute_residue_moments(specs, j, t_max)


def test_waves_build_nothing_box_sized(monkeypatch):
    import partwaves.quasipoly as quasipoly
    import partwaves.waves as waves

    # Both parts lists have period D = 27720; their boxes are about r * D long.
    sparse, dense = PartsList((2, 7, 8, 9, 10, 11)), PartsList(tuple(range(1, 13)))
    spread = quasipoly._spread

    def spy(counts, stride, count):
        out = spread(counts, stride, count)
        assert len(out) < sparse.D == dense.D, "a wave built a period-sized list"
        return out

    for module in (quasipoly, waves):
        monkeypatch.setattr(module, "_spread", spy)
    assert wave_decomposition_check(sparse, 30).ok
    assert sum(wave(j, dense, 1000) for j in divisor_set(dense)) == denumerant_dp(dense, 1000)


def test_formula_equals_wave_sum_equals_dp_three_ways():
    a = PartsList((2, 3, 5))
    for n in (0, 7, 19, 30):
        total = sum(wave(j, a, n) for j in divisor_set(a))
        assert denumerant_formula(a, n) == total == denumerant_dp(a, n)
