import ast
import inspect
import math
import random
from collections import namedtuple
from itertools import combinations

import pytest

from partwaves import partitions, quasipoly
from partwaves.partitions import (
    Partition,
    PartsList,
    SubsetProductMap,
    denumerant_dp,
    denumerant_series,
    elementary_symmetric_partition,
    elementary_symmetric_value,
    positional_products,
    _dp_order,
)


def enumerate_restricted(n, a):
    """Brute-force oracle: all partitions of n with parts drawn from `a`,
    lexicographically decreasing; for n == 0 the single empty partition."""
    allowed = sorted(a.parts, reverse=True)
    out = []

    def descend(remaining, start, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for idx in range(start, len(allowed)):
            p = allowed[idx]
            if p <= remaining:
                prefix.append(p)
                descend(remaining - p, idx, prefix)
                prefix.pop()

    descend(n, 0, [])
    return out


def random_partition(rng, max_part=20, max_length=12):
    length = rng.randint(0, max_length)
    parts = sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True)
    return Partition(parts)


def test_partition_basics():
    lam = Partition((3, 2, 1, 1))
    assert lam.size == 7
    assert lam.length == 4
    assert lam.parts == (3, 2, 1, 1)
    empty = Partition(())
    assert empty.size == 0
    assert empty.length == 0


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_parts_list_basics():
    a = PartsList((1, 3))
    assert a.parts == (1, 3)
    assert a.D == 3
    assert PartsList((2, 3, 4)).D == 12
    assert PartsList((6, 10, 15)).D == 30


def test_parts_list_rejects_bad_entries():
    with pytest.raises(ValueError):
        PartsList(())
    with pytest.raises(ValueError):
        PartsList((2, 2))
    with pytest.raises(ValueError):
        PartsList((0, 3))


def test_enumerate_restricted_golden():
    got = enumerate_restricted(8, PartsList((1, 3)))
    assert got == [
        Partition((3, 3, 1, 1)),
        Partition((3, 1, 1, 1, 1, 1)),
        Partition((1,) * 8),
    ]
    assert enumerate_restricted(0, PartsList((1, 2))) == [Partition(())]
    assert enumerate_restricted(5, PartsList((2, 4))) == []


def test_enumerate_restricted_is_sorted_and_valid():
    rng = random.Random(404)
    for _ in range(20):
        parts = tuple(sorted(rng.sample(range(1, 10), rng.randint(1, 3))))
        a = PartsList(parts)
        n = rng.randint(0, 30)
        found = enumerate_restricted(n, a)
        as_tuples = [p.parts for p in found]
        assert as_tuples == sorted(as_tuples, reverse=True)
        assert len(set(as_tuples)) == len(as_tuples)
        for p in found:
            assert p.size == n
            assert all(x in parts for x in p.parts)


def test_denumerant_dp_golden():
    assert denumerant_dp(PartsList((1, 3)), 8) == 3
    assert denumerant_dp(PartsList((1, 3, 9)), 20) == 12
    assert denumerant_dp(PartsList((1, 2, 3, 4, 5)), 5) == 7
    assert denumerant_dp(PartsList((2, 4)), 5) == 0
    assert denumerant_dp(PartsList((4,)), 0) == 1


def test_denumerant_series_prefix_consistency():
    a = PartsList((2, 3, 7))
    series = denumerant_series(a, 40)
    assert len(series) == 41
    for n in (0, 1, 7, 23, 40):
        assert series[n] == denumerant_dp(a, n)


def test_dp_matches_enumeration():
    for parts in [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (2, 5, 9), (4, 6, 9)]:
        a = PartsList(parts)
        for n in range(0, 61):
            assert denumerant_dp(a, n) == len(enumerate_restricted(n, a))


def test_dp_builds_no_full_series(monkeypatch):
    window = PartsList(tuple(2**i for i in range(14)))
    general = PartsList((8, 9, 10, 11, 12, 14))
    expected = [denumerant_series(window, 9079)[9079],
                denumerant_series(general, 5000)[5000]]

    def forbidden(*args):
        raise AssertionError("denumerant_dp built the whole series")

    monkeypatch.setattr(partitions, "denumerant_series", forbidden)
    assert [denumerant_dp(window, 9079), denumerant_dp(general, 5000)] == expected


def test_dp_shares_no_code_with_the_formulas(monkeypatch):
    # The DP is the formulas' oracle: it imports nothing from the box fold
    # or the waves, and still counts with both made to fail.
    tree = ast.parse(inspect.getsource(partitions))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert not {name for name in imported
                if name and ("quasipoly" in name or "waves" in name)}

    def forbidden(*args, **kwargs):
        raise AssertionError("denumerant_dp reached the closed formula's fold")

    monkeypatch.setattr(quasipoly, "_spread", forbidden)
    monkeypatch.setattr(quasipoly, "_fold", forbidden)
    window = PartsList(tuple(3**i for i in range(8)))
    general = PartsList((2, 3, 5, 11, 13, 14))
    for a, n in ((window, 6560), (window, 6561), (general, 3001), (general, 6006)):
        assert denumerant_dp(a, n) == denumerant_series(a, n)[n], (a, n)


def test_dp_order_takes_the_part_leaving_the_largest_gcd():
    # A d-ary window goes 1, d, d**2, ... in any given order, so the parts
    # still to come always have gcd d**i.
    assert _dp_order((27, 1, 9, 3, 81)) == [1, 3, 9, 27, 81]
    assert _dp_order(tuple(2**i for i in range(14))) == [2**i for i in range(14)]
    # Any first part leaves gcd 1 and 11 shares least with the rest; then 9
    # leaves gcd 2; 10 and 14 tie at gcd 2 and a gcd sum of 6, and the first
    # given wins; then 14 leaves gcd 4 and 8 leaves 12.
    assert _dp_order((8, 9, 10, 11, 12, 14)) == [11, 9, 10, 14, 8, 12]


def test_elementary_symmetric_value_golden():
    lam = Partition((3, 2, 1, 1))
    assert elementary_symmetric_value(lam, 1) == 7
    assert elementary_symmetric_value(lam, 2) == 17
    assert elementary_symmetric_value(Partition((3, 2)), 3) == 0
    assert elementary_symmetric_value(Partition(()), 1) == 0
    with pytest.raises(ValueError):
        elementary_symmetric_value(lam, 0)


def test_elementary_symmetric_partition_golden():
    assert elementary_symmetric_partition(Partition((3, 2, 1, 1)), 2) == Partition(
        (6, 3, 3, 2, 2, 1)
    )
    lam = Partition((5, 4, 1))
    assert elementary_symmetric_partition(lam, 1) == lam
    assert elementary_symmetric_partition(Partition((2, 2, 2)), 3) == Partition((8,))
    with pytest.raises(ValueError):
        elementary_symmetric_partition(lam, 4)
    with pytest.raises(ValueError):
        elementary_symmetric_partition(lam, 0)


def test_positional_products_golden():
    spm = positional_products(Partition((9, 3, 1)), 2)
    assert spm.products[(1, 2)] == 27
    assert spm.products[(1, 3)] == 9
    assert spm.products[(2, 3)] == 3
    assert spm.length == 3 and spm.order == 2
    one = positional_products(Partition((4, 2)), 1)
    assert one.products[(1,)] == 4 and one.products[(2,)] == 2
    full = positional_products(Partition((4, 2)), 2)
    assert full.products[(1, 2)] == 8


def test_products_match_symmetric_partition():
    rng = random.Random(71)
    for _ in range(25):
        lam = random_partition(rng, max_part=9, max_length=7)
        if lam.length == 0:
            continue
        j = rng.randint(1, lam.length)
        spm = positional_products(lam, j)
        values = sorted((v for _, v in spm.items()), reverse=True)
        pre = elementary_symmetric_partition(lam, j)
        assert tuple(values) == pre.parts
        assert pre.length == math.comb(lam.length, j)
        assert sum(pre.parts) == elementary_symmetric_value(lam, j)


def test_subset_product_map_validation():
    good = {(1, 2): 6, (1, 3): 3, (2, 3): 2}
    spm = SubsetProductMap(3, 2, good)
    assert dict(spm.items()) == good
    with pytest.raises(ValueError):
        SubsetProductMap(3, 2, {(1, 2): 6, (1, 3): 3})  # incomplete
    stray = r"index tuple \(2, 1\) is not an increasing 2-tuple of 1\.\.3"
    with pytest.raises(ValueError, match=stray):
        SubsetProductMap(3, 2, {**good, (2, 1): 5})  # not increasing
    with pytest.raises(ValueError, match=r"index tuple \(1, 1\)"):
        SubsetProductMap(3, 2, {**good, (1, 1): 5})  # repeated index
    with pytest.raises(ValueError):
        SubsetProductMap(3, 2, {**good, (1, 4): 5})  # out of range
    with pytest.raises(ValueError):
        SubsetProductMap(3, 2, {(1, 2): 6, (1, 3): 0, (2, 3): 2})  # non-positive
    with pytest.raises(ValueError):
        SubsetProductMap(3, 4, good)  # order out of range
    # Keys are checked before anything of size C(60, 30) is built.
    with pytest.raises(ValueError, match=r"index tuple \(1,\) is not an increasing 30"):
        SubsetProductMap(60, 30, {(1,): 2, (60,): 1})
    with pytest.raises(ValueError, match="expected 118264581564861424 index tuples, got 1"):
        SubsetProductMap(60, 30, {tuple(range(1, 31)): 2})


def test_subset_product_map_converts_keys_that_are_not_plain_ints():
    # Every index and value is converted, so a float is refused and a bool
    # becomes an int.
    with pytest.raises(TypeError):
        SubsetProductMap(2, 1, {(1.0,): 4, (2,): 1})
    with pytest.raises(TypeError):
        SubsetProductMap(2, 1, {(1,): 4.0, (2,): 1})
    with pytest.raises(TypeError):
        SubsetProductMap(3, 2, {(1, 2): 6, (1, 3.0): 3, (2, 3): 2})
    spm = SubsetProductMap(2, 1, {(True,): 4, (2,): True})
    assert dict(spm.items()) == {(1,): 4, (2,): 1}
    assert {type(i) for key, value in spm.items() for i in (*key, value)} == {int}
    # A tuple subclass as a key is converted to a plain tuple.
    pair = namedtuple("pair", "i j")
    spm = SubsetProductMap(3, 2, {(1, 2): 6, pair(1, 3): 3, (2, 3): 2})
    assert [type(key) for key, _ in spm.items()] == [tuple] * 3

    # An index with only __index__ hashes unlike its int; its key is
    # converted with every other before the map is filled.
    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    spm = SubsetProductMap(3, 2, {(1, 2): 6, (Index(1), Index(3)): 3, (2, 3): 2})
    assert dict(spm.items()) == {(1, 2): 6, (1, 3): 3, (2, 3): 2}
    assert {type(i) for key, _ in spm.items() for i in key} == {int}
    with pytest.raises(ValueError, match=r"index tuple \(3, 1\) is not an increasing"):
        SubsetProductMap(3, 2, {(1, 2): 6, (Index(3), Index(1)): 3, (2, 3): 2})


def test_subset_product_map_items_sorted():
    lam = Partition((8, 4, 2, 1))
    spm = positional_products(lam, 2)
    keys = [key for key, _ in spm.items()]
    assert keys == sorted(combinations(range(1, 5), 2))
    reversed_map = SubsetProductMap(4, 2, dict(reversed(list(spm.items()))))
    keys = [key for key, _ in reversed_map.items()]
    assert keys == list(combinations(range(1, 5), 2))
    assert reversed_map == spm
