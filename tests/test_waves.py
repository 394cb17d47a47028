import contextlib
import importlib
import io
import json
import math
import pkgutil
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partwaves
from partwaves.exact import CyclotomicNumber, NotRational, root_of_unity, to_rational
from partwaves.partitions import PartsList, denumerant_dp
from partwaves.quasipoly import denumerant_formula
from partwaves.waves import (
    LITERAL,
    TWISTED,
    NotDivisor,
    _ramanujan_weights,
    _residue_moments,
    divisor_set,
    polynomial_part_average,
    polynomial_part_bernoulli,
    wave,
    wave_decomposition_check,
)

FAMILIES = [(1,), (3,), (1, 3), (2, 3), (1, 2), (1, 2, 4), (1, 3, 9)]


def box_sums(a):
    return (sum(p * t for p, t in zip(a.parts, tup))
            for tup in product(*(range(a.D // p) for p in a.parts)))


def brute_poly_part_at(a, n):
    """Polynomial part at n by literally summing the box."""
    D, r = a.D, len(a.parts)
    total = sum((math.prod(Fraction(n - s, D) + m for m in range(1, r))
                 for s in box_sums(a)), Fraction(0))
    return total / (D * math.factorial(r - 1))


def brute_literal_wave(j, a, n):
    """Literal-variant wave by tuple iteration: class ell weighted rho_j**ell."""
    D, r = a.D, len(a.parts)
    acc = CyclotomicNumber(j)
    for s in box_sums(a):
        ell = ((s - 1) % j) + 1
        term = math.prod(Fraction(n - s, D) + m for m in range(1, r))
        acc = acc + root_of_unity(j, ell) * term
    return to_rational(acc) / (D * math.factorial(r - 1))


# Polynomials over Q as coefficient lists, constant term first.


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for k, y in enumerate(q):
            out[i + k] += x * y
    return out


def poly_sub(p, q):
    return [x - y for x, y in zip_longest(p, q, fillvalue=0)]


def poly_divmod(p, q):
    """Quotient and remainder of p by q, the remainder without trailing zeros."""
    rem = [Fraction(c) for c in p]
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for i in reversed(range(len(quot))):
        quot[i] = c = rem[i + len(q) - 1] / q[-1]
        for k, y in enumerate(q):
            rem[i + k] -= c * y
    rem = rem[:len(q) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


@lru_cache(maxsize=None)
def phi(j):
    """The j-th cyclotomic polynomial: x**j - 1 over every Phi_d, d | j, d < j."""
    p = [-1] + [0] * (j - 1) + [1]
    for d in range(1, j):
        if j % d == 0:
            p, rem = poly_divmod(p, list(phi(d)))
            assert not rem
    return tuple(p)


def inverse_mod(g, f):
    """u with u * g = 1 mod f, by one extended Euclid over Q (u_i * g = r_i)."""
    r0, r1, u0, u1 = f, poly_divmod(g, f)[1], [], [1]
    while r1:
        q, rem = poly_divmod(r0, r1)
        r0, r1, u0, u1 = r1, rem, u1, poly_sub(u0, poly_mul(q, u1))
    assert len(r0) == 1, "the factors are not coprime"
    return poly_divmod([c / r0[0] for c in u0], f)[1]


def partial_fraction_waves(parts, n_max):
    """{j: [W_j(0), ..., W_j(n_max)]} with no roots of unity (Sylvester 1857).

    prod(1 - x**a) = (-1)**r * prod_j Phi_j**m_j, m_j = #{a : j | a}, so
    1/prod(1 - x**a) = sum_j N_j / Phi_j**m_j with N_j the inverse of the
    other factors modulo Phi_j**m_j, and W_j(n) = [x**n] N_j / Phi_j**m_j.
    Phi_j(0) = +-1, so the series is a division by the constant term."""
    powers = {}
    for j in range(1, max(parts) + 1):
        m = sum(1 for a in parts if a % j == 0)
        if m:
            powers[j] = [1]
            for _ in range(m):
                powers[j] = poly_mul(powers[j], phi(j))
    waves = {}
    for j, f in powers.items():
        others = [(-1) ** len(parts)]
        for i, h in powers.items():
            if i != j:
                others = poly_divmod(poly_mul(others, h), f)[1]
        num = inverse_mod(others, f)
        series = []
        for n in range(n_max + 1):
            acc = num[n] if n < len(num) else 0
            acc -= sum(f[k] * series[n - k] for k in range(1, min(n, len(f) - 1) + 1))
            series.append(acc / f[0])
        waves[j] = series
    return waves


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


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
    for parts in FAMILIES + [(1, 2, 3), (2, 3, 5), (1, 2, 3, 4), (2, 4, 6, 9),
                             tuple(range(1, 14))]:
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
    monkeypatch.setattr(waves, "_poly_numerators", forbidden)
    assert polynomial_part_bernoulli(a) == bernoulli_route


def test_polynomial_part_matches_brute_expansion():
    # both sides are polynomials of degree <= r - 1, so r points decide
    for parts in FAMILIES + [(2, 3, 5)]:
        a = PartsList(parts)
        r = len(parts)
        poly = polynomial_part_average(a)
        assert poly.degree <= r - 1
        for n in range(r):
            assert poly.evaluate(n) == brute_poly_part_at(a, n)


def test_polynomial_part_leading_coefficient():
    for parts in [(1, 2), (1, 3), (2, 3, 5), (1, 2, 3, 4)]:
        a = PartsList(parts)
        r = len(parts)
        expected = Fraction(1, math.factorial(r - 1) * math.prod(parts))
        assert polynomial_part_average(a).coeffs[-1] == expected


def test_integer_weight_matches_cyclotomic_sum():
    # Hoelder: c_j(ell) = mu(j/g) * phi(j) / phi(j/g), g = gcd(j, ell);
    # includes j with square factors (mu(j) == 0) such as 16, 18 and 36.
    # An ell the weights leave out has c_j(ell) == 0.
    for j in range(1, 40):
        weights = dict(_ramanujan_weights(j))
        for ell in range(j):
            g = math.gcd(j, ell)
            want = mobius(j // g) * totient(j) // totient(j // g)
            assert weights.get(ell, 0) == want


@lru_cache(maxsize=None)
def ramanujan_by_divisor_sums(j, g):
    """c_j(delta) for any delta with gcd(j, delta) == g, from
    sum(c_e(delta) for e | j) == j * [j | delta]."""
    return (j if g == j else 0) - sum(
        ramanujan_by_divisor_sums(e, math.gcd(e, g)) for e in range(1, j) if j % e == 0)


def test_ramanujan_weights_are_the_nonzero_sums():
    # the weights step by j / rad(j) and skip no delta < j with c_j(delta) != 0
    for j in range(1, 400):
        full = [(delta, ramanujan_by_divisor_sums(j, math.gcd(j, delta)))
                for delta in range(j)]
        assert _ramanujan_weights(j) == [(delta, c) for delta, c in full if c]


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


def test_wave_matches_partial_fractions():
    for parts in [(1, 3), (2, 3), (1, 2, 4), (1, 3, 9), (3, 4, 6, 8, 12)]:
        a = PartsList(parts)
        want = partial_fraction_waves(parts, 40)
        assert sorted(want) == list(divisor_set(a))
        for j in divisor_set(a):
            for n in range(41):
                assert wave(j, a, n) == want[j][n]


@settings(deadline=None, max_examples=25)
@given(parts=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
       start=st.integers(0, 150))
def test_every_wave_matches_partial_fractions(parts, start):
    a = PartsList(parts)
    want = partial_fraction_waves(parts, start + 6)
    for j in divisor_set(a):
        for n in range(start, start + 7):
            assert wave(j, a, n) == want[j][n]


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
                    want = brute_literal_wave(j, a, n)
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
    rows = wave_decomposition_check(PartsList((1, 3)), 30)
    assert [row.n for row in rows] == list(range(31))
    for row in rows:
        assert row.ok
        assert row.total == row.expected
        assert row.residual == 0
        assert [term.j for term in row.terms] == [1, 3]

    only_one = wave_decomposition_check(PartsList((1,)), 10)
    assert all(row.ok for row in only_one)
    assert all([term.j for term in row.terms] == [1] for row in only_one)

    assert all(row.ok for row in wave_decomposition_check(PartsList((1, 2, 4)), 50))


def test_decomposition_check_literal_failures_are_data():
    rows = wave_decomposition_check(PartsList((1, 3)), 6, variant=LITERAL)
    assert len(rows) == 7
    for row in rows:
        assert not row.ok
        assert row.total is None
        by_j = {term.j: term for term in row.terms}
        assert by_j[1].value is not None and by_j[1].error == ""
        assert by_j[3].value is None and by_j[3].error


@pytest.mark.parametrize("variant", [TWISTED, LITERAL])
def test_sweep_builds_each_wave_once(monkeypatch, variant):
    import partwaves.waves as waves

    calls = []
    expand = waves._poly_numerators
    monkeypatch.setattr(waves, "_poly_numerators",
                        lambda *args: calls.append(1) or expand(*args))
    a = PartsList((3, 4, 6, 10, 12))
    wave_decomposition_check(a, 80, variant)
    assert len(calls) <= sum(divisor_set(a)) == 43


def test_single_wave_expands_one_class(monkeypatch):
    import partwaves.waves as waves
    from partwaves.cli import main

    calls = []
    expand = waves._poly_numerators
    monkeypatch.setattr(waves, "_poly_numerators",
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


def test_twisted_wave_reads_at_most_rad_j_rows(monkeypatch):
    import partwaves.waves as waves
    from partwaves.cli import main

    read = set()
    moments = waves._residue_moments

    def spy(specs, j, t_max):
        row = moments(specs, j, t_max)
        return lambda rho: read.add((j, rho)) or row(rho)

    monkeypatch.setattr(waves, "_residue_moments", spy)
    # each wave reads the rad(j) classes with a nonzero Ramanujan weight
    for argv, rows in [
        (["waves", "--d", "2", "--n", "100"], 13),
        (["waves", "--d", "3", "--n", "5000"], 22),
        (["waves", "--parts", "3,4,6,10,12", "--n", "700"], 35),
    ]:
        read.clear()
        assert main(argv) == 0
        assert len(read) == rows


@settings(deadline=None, max_examples=30)
@given(parts=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
       data=st.data())
def test_built_wave_keeps_each_class_apart(parts, data):
    import partwaves.waves as waves

    a = PartsList(parts)
    r = len(parts)
    specs = [(p, a.D // p) for p in parts]
    den = a.D**r * math.factorial(r - 1)
    want = partial_fraction_waves(parts, 3 * max(parts))
    for j in divisor_set(a):
        column = waves._build_wave(r, a.D, j, specs, TWISTED)
        # one column read over ranges that start at every residue, some of
        # them shorter than j: each slice must take its own class's polynomial
        for lo in range(j):
            lo += j * data.draw(st.integers(0, 1))
            ns = range(lo, lo + data.draw(st.integers(1, j + 1)))
            assert [Fraction(num, den) for num in column(ns)] == [
                wave(j, a, n) for n in ns] == [want[j][n] for n in ns]


@st.composite
def small_parts_lists(draw):
    """Up to five distinct parts whose lcm D is at most 60."""
    D = draw(st.integers(1, 60))
    divisors = [p for p in range(1, D + 1) if D % p == 0]
    return PartsList(draw(st.lists(st.sampled_from(divisors), min_size=1,
                                   max_size=5, unique=True)))


@settings(deadline=None, max_examples=25)
@given(a=small_parts_lists(), n_max=st.integers(0, 24), data=st.data())
def test_integer_sums_catch_a_moved_unit(a, n_max, data):
    import partwaves.waves as waves
    from partwaves.cli import main

    rows = wave_decomposition_check(a, n_max)
    for row in rows:
        values = [wave(j, a, row.n) for j in divisor_set(a)]
        assert [term.value for term in row.terms] == values
        assert row.total == sum(values, Fraction(0))
        assert row.residual == row.total - denumerant_dp(a, row.n) == 0
    # one wave's numerator moved by +1 at one n: that row, and no other,
    # is off by exactly 1 / (D**r * (r-1)!)
    shifted_j = data.draw(st.sampled_from(divisor_set(a)))
    shifted_n = data.draw(st.integers(0, n_max))
    build = waves._build_wave

    def shifted(r, D, j, specs, variant):
        column = build(r, D, j, specs, variant)
        if j != shifted_j:
            return column
        return lambda ns: [num + (n == shifted_n) for n, num in zip(ns, column(ns))]

    parts = ",".join(map(str, a.parts))
    sweep = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(waves, "_build_wave", shifted)
        moved = wave_decomposition_check(a, n_max)
        # the waves command checks its row by the same integer sums
        argv = ["waves", "--parts", parts, "--n", str(shifted_n)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 1
        # and the sweep reports that row, and only that row, as failed
        argv = ["verify", "--mode", "waves", "--parts", parts, "--n-max", str(n_max),
                "--format", "json"]
        with contextlib.redirect_stdout(sweep):
            assert main(argv) == 1
    r = len(a.parts)
    for row in moved:
        if row.n == shifted_n:
            assert not row.ok
            assert row.residual == Fraction(1, a.D**r * math.factorial(r - 1))
        else:
            assert row.ok and row.residual == 0
    (failure,) = json.loads(sweep.getvalue())["metadata"]["failures"]
    row = moved[shifted_n]
    assert (failure["n"], failure["expected"]) == (shifted_n, row.expected)
    assert Fraction(failure["total"]) == row.total
    assert Fraction(failure["residual"]) == row.residual


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


def moment_rows(specs, j, t_max):
    row = _residue_moments(specs, j, t_max)
    return [row(rho) for rho in range(j)]


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
            assert moment_rows(specs, j, 3) == brute_residue_moments(specs, j, 3)
    for d in (2, 3):
        for k in (3, 4):
            specs = defective_window_specs(d, k)
            for j in (j for j in range(1, d**k + 1) if d**k % j == 0):
                assert moment_rows(specs, j, k) == brute_residue_moments(specs, j, k)


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
        assert moment_rows(specs, j, t_max) == brute_residue_moments(specs, j, t_max)


def test_waves_build_nothing_box_sized(monkeypatch):
    import partwaves.quasipoly as quasipoly

    # Both parts lists have period D = 27720; their boxes are about r * D long.
    sparse, dense = PartsList((2, 7, 8, 9, 10, 11)), PartsList(tuple(range(1, 13)))
    spread = quasipoly._spread

    def spy(counts, stride, count, size):
        out = spread(counts, stride, count, size)
        assert len(out) < sparse.D == dense.D, "a wave built a period-sized list"
        return out

    monkeypatch.setattr(quasipoly, "_spread", spy)
    assert all(row.ok for row in wave_decomposition_check(sparse, 30))
    assert sum(wave(j, dense, 1000) for j in divisor_set(dense)) == denumerant_dp(dense, 1000)


def test_formula_equals_wave_sum_equals_dp_three_ways():
    a = PartsList((2, 3, 5))
    for n in (0, 7, 19, 30):
        total = sum(wave(j, a, n) for j in divisor_set(a))
        assert denumerant_formula(a, n) == total == denumerant_dp(a, n)
