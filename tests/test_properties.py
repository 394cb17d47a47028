"""Property-based checks over random inputs, next to the golden tables."""

import contextlib
import io
import json
import math
import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partwaves.cli import main
from partwaves.dary import (
    DAryPartition,
    _window,
    poly_part_d_average,
    poly_part_d_bernoulli,
    wave_d,
)
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


@st.composite
def parts_and_n(draw):
    parts = draw(st.lists(st.integers(1, 16), min_size=1, max_size=5, unique=True))
    return parts, draw(st.integers(0, 3 * math.lcm(*parts)))


@settings(deadline=None)
@given(case=parts_and_n())
# n = r*D - 1, r*D and r*D + 1: the formula reads box sums s <= min(n, r*D),
# and its fold stops at n.  Five parts with D = 180 and 1680 (gcds that drop
# as they fold), and the window (1, 2, 4, 8, 16).
@example(case=([4, 6, 9, 10, 15], 899))
@example(case=([4, 6, 9, 10, 15], 900))
@example(case=([4, 6, 9, 10, 15], 901))
@example(case=([3, 8, 14, 15, 16], 8399))
@example(case=([3, 8, 14, 15, 16], 8400))
@example(case=([3, 8, 14, 15, 16], 8401))
@example(case=([1, 2, 4, 8, 16], 79))
@example(case=([1, 2, 4, 8, 16], 80))
@example(case=([1, 2, 4, 8, 16], 81))
def test_formula_equals_dp(case):
    parts, n = case
    a = PartsList(parts)
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


def _value_or_error(wave_at, *args):
    try:
        return wave_at(*args)
    except NotRational as exc:
        return str(exc)


def _waves_json(*argv):
    """Exit code and json record of one `waves` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["waves", *map(str, argv), "--format", "json"])
    return code, json.loads(out.getvalue())


def _table_terms(record):
    """(j, value or error) of each term of a `waves` json record."""
    return [(t["j"], t["error"] if t["value"] is None else Fraction(t["value"]))
            for t in record["result"]]


@settings(deadline=None)
@given(parts=parts_lists, n_max=st.integers(0, 30),
       variant=st.sampled_from((TWISTED, LITERAL)), d=st.integers(2, 5))
# The literal --d windows at k = 0, 1 and 2; k = 2 is the first defective one.
@example(parts=[1, 3], n_max=1, variant=LITERAL, d=2)
@example(parts=[1, 3], n_max=8, variant=LITERAL, d=3)
@example(parts=[1, 3], n_max=9, variant=LITERAL, d=3)
def test_sweep_terms_are_single_waves(parts, n_max, variant, d):
    a = PartsList(parts)
    rows = wave_decomposition_check(a, n_max, variant)
    assert [row.n for row in rows] == list(range(n_max + 1))
    for row in rows:
        assert row.expected == denumerant_dp(a, row.n)
        assert [term.j for term in row.terms] == list(divisor_set(a))
        for term in row.terms:
            got = term.value if term.value is not None else term.error
            assert got == _value_or_error(wave, term.j, a, row.n, variant)
    # The waves table at n_max is the sweep's last row, and at --d its terms
    # are the single waves of the window.
    code, record = _waves_json("--parts", ",".join(map(str, parts)), "--n", n_max,
                               "--variant", variant)
    row = rows[-1]
    assert _table_terms(record) == [
        (t.j, t.error if t.value is None else t.value) for t in row.terms]
    total = record["metadata"]["sum"]
    assert (total if total is None else Fraction(total)) == row.total
    assert record["metadata"]["oracle"] == row.expected
    assert (code, record["agreement"]) == (0 if row.ok else 1, row.ok)
    code, record = _waves_json("--d", d, "--n", n_max, "--variant", variant)
    window = _window(d, n_max)[1]
    terms = [(j, _value_or_error(wave_d, j, d, n_max, variant))
             for j in divisor_set(window)]
    assert _table_terms(record) == terms
    assert code == (0 if all(isinstance(v, Fraction) for _, v in terms)
                    and sum(v for _, v in terms) == denumerant_dp(window, n_max) else 1)


@settings(deadline=None)
@given(parts=parts_lists, n_max=st.integers(0, 30),
       variant=st.sampled_from((TWISTED, LITERAL)), data=st.data())
@example(parts=[1, 3], n_max=6, variant=LITERAL, data=None)
@example(parts=[1, 2], n_max=6, variant=LITERAL, data=None)
def test_sweep_rows_keep_their_invariants(parts, n_max, variant, data):
    import partwaves.waves as waves

    a = PartsList(parts)
    build = waves._build_wave
    # Move one wave's numerator by a drawn amount at one n, so that rows
    # that fail their check are drawn too.
    shift = (0, 0, 0) if data is None else (
        data.draw(st.sampled_from(divisor_set(a))), data.draw(st.integers(0, n_max)),
        data.draw(st.integers(-3, 3)))

    def shifted(r, D, j, specs, variant, ns):
        nums = build(r, D, j, specs, variant, ns)
        if j != shift[0]:
            return nums
        # a literal cell that failed its extraction stays failed
        return [num if isinstance(num, NotRational) else num + shift[2] * (n == shift[1])
                for n, num in zip(ns, nums)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(waves, "_build_wave", shifted)
        rows = wave_decomposition_check(a, n_max, variant)
    for row in rows:
        values = [term.value for term in row.terms]
        if None in values:
            assert row.total is None and row.residual is None and not row.ok
            assert all(term.error for term in row.terms if term.value is None)
            continue
        assert all(term.error == "" for term in row.terms)
        assert row.total == sum(values, Fraction(0))
        assert row.residual == row.total - row.expected
        assert row.ok == (row.residual == 0)
        if variant == TWISTED:
            assert row.ok == (row.n != shift[1] or shift[2] == 0)


@settings(deadline=None)
@given(d=st.integers(2, 5), k=st.integers(0, 5))
def test_window_polynomial_part_routes_agree(d, k):
    assert poly_part_d_average(d, k) == poly_part_d_bernoulli(d, k)


# Up to 14 parts reach B_12, so the Bernoulli route's common denominator
# takes the von Staudt primes 11 and 13.  Parts up to 30 cap the lcm at
# lcm(1, ..., 30), about 2.3e12, where one example takes a few milliseconds.
@settings(deadline=None)
@given(parts=st.lists(st.integers(1, 30), min_size=1, max_size=14, unique=True))
@example(parts=list(range(1, 15)))
@example(parts=list(range(30, 17, -1)))
def test_general_polynomial_part_routes_agree(parts):
    a = PartsList(parts)
    assert polynomial_part_average(a) == polynomial_part_bernoulli(a)


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


def reference_subset_product_map(length, order, products):
    """`SubsetProductMap`'s checks item by item, with no `combinations`
    fill, kept to pin their precedence: every key and value converted, then
    values, then each key on its own, then the count."""
    cleaned = {tuple(map(operator.index, key)): operator.index(value)
               for key, value in products.items()}
    if any(value < 1 for value in cleaned.values()):
        raise ValueError("products must be positive")
    # A key is valid when 0 < key[0] < ... < key[-1] < length + 1; keys are
    # checked one by one, so a bad map never builds C(length, order) tuples.
    for key in cleaned:
        bounded = (0, *key, length + 1)
        if len(key) != order or any(a >= b for a, b in zip(bounded, bounded[1:])):
            raise ValueError(
                f"index tuple {key} is not an increasing {order}-tuple "
                f"of 1..{length}"
            )
    count = math.comb(length, order)
    if len(cleaned) != count:
        raise ValueError(f"expected {count} index tuples, got {len(cleaned)}")
    return {key: cleaned[key] for key in combinations(range(1, length + 1), order)}


CORRUPTIONS = ("none", "drop", "add", "replace", "zero", "float", "float index",
               "index-like key")
STRAYS = ("descending", "repeated", "below", "above", "longer", "shorter")


class _Index:
    """An int seen only through `__index__`; it hashes unlike the int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _corrupt(draw, items, corruption, ell, j):
    """Apply one corruption to the item list in place."""
    if not items and corruption != "add":
        return
    at = draw(st.integers(0, max(len(items) - 1, 0)))
    if corruption == "drop":
        del items[at]
    elif corruption in ("zero", "float"):
        key, value = items[at]
        items[at] = (key, 0 if corruption == "zero" else float(value))
    elif corruption == "float index" and items[at][0]:
        key, value = items[at]
        i = draw(st.integers(0, len(key) - 1))
        items[at] = (key[:i] + (float(int(key[i])),) + key[i + 1:], value)
    elif corruption == "index-like key":
        key, value = items[at]
        # int() first, so a float or an `_Index` is wrapped as its int
        items[at] = (tuple(_Index(int(i)) for i in key), value)
    elif corruption in ("add", "replace"):
        base = list(draw(st.sampled_from(list(combinations(range(1, ell + 1), j)))))
        stray = draw(st.sampled_from(STRAYS if j > 1 else STRAYS[2:]))
        if stray == "descending":
            base.reverse()
        elif stray == "repeated":
            base[1] = base[0]
        elif stray == "below":
            base[0] = draw(st.integers(-1, 0))
        elif stray == "above":
            base[-1] = draw(st.integers(ell + 1, ell + 2))
        elif stray == "longer":
            base.append(base[-1] + 1)
        else:
            base.pop()
        entry = (tuple(base), draw(st.integers(1, 50)))
        if corruption == "add":
            items.insert(at, entry)
        else:
            items[at] = entry


@st.composite
def corrupted_maps(draw):
    """A complete product map with ell <= 7, its items shuffled, then one
    corruption, or two so that their checks compete: a dropped key, a stray
    key added or put in the place of a valid one, a value made 0 or a
    float, one index of a key made a float, or a key's indices wrapped in
    `_Index`."""
    ell = draw(st.integers(1, 7))
    j = draw(st.integers(1, ell))
    keys = list(combinations(range(1, ell + 1), j))
    values = draw(st.lists(st.integers(1, 50), min_size=len(keys), max_size=len(keys)))
    items = draw(st.permutations(list(zip(keys, values))))
    for corruption in draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=1,
                                    max_size=2)):
        _corrupt(draw, items, corruption, ell, j)
    return ell, j, dict(items)


def _outcome(build, ell, j, products):
    try:
        return dict(build(ell, j, products))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(case=corrupted_maps())
def test_subset_product_map_keeps_the_reference_checks(case):
    ell, j, products = case
    expected = _outcome(reference_subset_product_map, ell, j, products)
    got = _outcome(lambda *args: SubsetProductMap(*args).items(), ell, j, products)
    assert got == expected
    if isinstance(expected, dict):
        assert list(got) == list(combinations(range(1, ell + 1), j))
