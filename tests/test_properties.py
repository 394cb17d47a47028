"""Property-based checks over random inputs, next to the golden tables."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partwaves.dary import DAryPartition, poly_part_d_average, poly_part_d_bernoulli
from partwaves.exact import NotRational
from partwaves.partitions import (
    Partition,
    PartsList,
    SubsetProductMap,
    denumerant_dp,
    denumerant_series,
    positional_products,
)
from partwaves.quasipoly import denumerant_formula
from partwaves.reconstruct import InconsistentData, reconstruct_exponents
from partwaves.waves import (
    LITERAL,
    TWISTED,
    divisor_set,
    polynomial_part_average,
    polynomial_part_bernoulli,
    wave,
    wave_decomposition_check,
)

parts_lists = st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True)


@settings(deadline=None)
@given(parts=st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True),
       n=st.integers(0, 40))
def test_waves_sum_to_count_and_routes_agree(parts, n):
    a = PartsList(parts)
    assert sum(wave(j, a, n) for j in divisor_set(a)) == denumerant_dp(a, n)
    average = polynomial_part_average(a)
    assert average == polynomial_part_bernoulli(a)
    assert wave(1, a, n) == average.evaluate(n)


@settings(deadline=None)
@given(parts=st.lists(st.integers(1, 16), min_size=1, max_size=5, unique=True),
       data=st.data())
def test_formula_equals_dp(parts, data):
    a = PartsList(parts)
    n = data.draw(st.integers(0, 3 * a.D))
    assert denumerant_formula(a, n) == denumerant_dp(a, n)


@st.composite
def parts_with_common_gcd(draw):
    # 1-7 distinct parts <= 30, all multiples of one g, so that n falls both
    # on and off the multiples of gcd(parts).
    g = draw(st.sampled_from((1, 1, 2, 3, 6)))
    parts = draw(st.lists(st.integers(1, 30 // g), min_size=1, max_size=7, unique=True))
    return [g * p for p in parts]


@settings(deadline=None, max_examples=200)
@given(parts=parts_with_common_gcd(), n=st.integers(0, 500))
@example(parts=[7], n=0)
@example(parts=[7], n=49)
@example(parts=[7], n=50)
@example(parts=[4, 6, 10], n=301)
@example(parts=[4, 6, 10], n=300)
@example(parts=[6, 10, 15], n=0)
def test_dp_equals_the_series_entry(parts, n):
    a = PartsList(parts)
    assert denumerant_dp(a, n) == denumerant_series(a, n)[n]


@settings(deadline=None)
@given(parts=parts_lists)
@example(parts=[1])
@example(parts=[1, 2])
@example(parts=[2, 3, 5])
def test_count_is_period_D_quasipolynomial(parts):
    # each residue class of n mod D follows one polynomial of degree <= r-1,
    # so the r-th difference of the count with step D vanishes
    a = PartsList(parts)
    r, D = len(parts), a.D
    series = denumerant_series(a, 60 + r * D)
    for n in range(61):
        assert sum(
            (-1) ** i * math.comb(r, i) * series[n + i * D] for i in range(r + 1)
        ) == 0


def _wave_or_error(j, a, n, variant):
    try:
        return wave(j, a, n, variant)
    except NotRational as exc:
        return str(exc)


@settings(deadline=None)
@given(parts=parts_lists, n_max=st.integers(0, 30),
       variant=st.sampled_from((TWISTED, LITERAL)))
def test_sweep_terms_are_single_waves(parts, n_max, variant):
    a = PartsList(parts)
    rows = wave_decomposition_check(a, n_max, variant)
    assert [row.n for row in rows] == list(range(n_max + 1))
    for row in rows:
        assert row.expected == denumerant_dp(a, row.n)
        assert [term.j for term in row.terms] == list(divisor_set(a))
        for term in row.terms:
            got = term.value if term.value is not None else term.error
            assert got == _wave_or_error(term.j, a, row.n, variant)


@settings(deadline=None)
@given(d=st.integers(2, 5), k=st.integers(0, 5))
def test_window_polynomial_part_routes_agree(d, k):
    assert poly_part_d_average(d, k) == poly_part_d_bernoulli(d, k)


@st.composite
def partitions_and_orders(draw, min_length=2, j_margin=0):
    ell = draw(st.integers(min_length, 12))
    exponents = sorted(draw(st.lists(st.integers(0, 8), min_size=ell, max_size=ell)),
                       reverse=True)
    j = draw(st.integers(1 + j_margin, ell - 1 - j_margin))
    return DAryPartition(draw(st.sampled_from((2, 3, 5))), exponents), j


@settings(deadline=None)
@given(case=partitions_and_orders())
def test_reconstruction_round_trip(case):
    mu, j = case
    products = positional_products(Partition(mu.parts), j)
    assert reconstruct_exponents(products, mu.base) == mu


@settings(deadline=None)
@given(case=partitions_and_orders(min_length=4, j_margin=1), data=st.data())
def test_one_corrupted_product_is_inconsistent(case, data):
    # For 2 <= j <= ell - 2 the product system is overdetermined and no
    # exponent vector fits it after any single product is scaled by d.
    mu, j = case
    products = dict(positional_products(Partition(mu.parts), j).items())
    target = data.draw(st.sampled_from(sorted(products)))
    products[target] *= mu.base
    with pytest.raises(InconsistentData):
        reconstruct_exponents(SubsetProductMap(mu.length, j, products), mu.base)
