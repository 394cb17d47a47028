import random
import tracemalloc
from itertools import combinations, combinations_with_replacement

import pytest

from partwaves.dary import DAryPartition, NotPowerOfD
from partwaves.partitions import Partition, SubsetProductMap, positional_products
from partwaves.reconstruct import (
    InconsistentData,
    IntMatrix,
    build_c_matrix,
    circulant_det_check,
    reconstruct_exponents,
    verify_uniqueness,
)
from partwaves.reconstruct import _subsystem_tuples, det_exact

PRINTED_6_BY_3 = (
    (1, 0, 1, 1, 0, 0),
    (1, 1, 0, 1, 0, 0),
    (1, 1, 1, 0, 1, 0),
    (0, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 1),
)


def laplace_det(entries):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = 0
    for col in range(n):
        if not entries[0][col]:
            continue
        minor = [
            [row[t] for t in range(n) if t != col] for row in entries[1:]
        ]
        total += (-1) ** col * entries[0][col] * laplace_det(minor)
    return total


def test_int_matrix_basics():
    m = IntMatrix(((1, 2), (3, 4)))
    assert m.rows == 2 and m.cols == 2
    assert m.entries == ((1, 2), (3, 4))
    assert m == IntMatrix([[1, 2], [3, 4]]) and m != IntMatrix(((1, 3), (2, 4)))
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(())


def test_build_c_matrix_printed_example():
    assert build_c_matrix(6, 3).entries == PRINTED_6_BY_3


def test_build_c_matrix_small_cases():
    # j=1 makes every column a single basis vector: the identity matrix
    assert build_c_matrix(2, 1) == IntMatrix(((1, 0), (0, 1)))
    assert build_c_matrix(4, 1) == IntMatrix(
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    )
    # n=3, j=2: c1 = e1+e2, c2 = e2+e3, c3 = e1+e3
    assert build_c_matrix(3, 2).entries == ((1, 0, 1), (1, 1, 0), (0, 1, 1))


def test_build_c_matrix_column_structure():
    for n in range(2, 9):
        for j in range(1, n):
            m = build_c_matrix(n, j)
            cols = list(zip(*m.entries))
            assert all(sum(col) == j for col in cols)
            assert all(set(col) <= {0, 1} for col in cols)


def test_build_c_matrix_validation():
    with pytest.raises(ValueError):
        build_c_matrix(1, 1)
    with pytest.raises(ValueError):
        build_c_matrix(4, 0)
    with pytest.raises(ValueError):
        build_c_matrix(4, 4)


def test_det_exact_basics():
    identity = tuple(tuple(int(i == t) for t in range(5)) for i in range(5))
    assert det_exact(IntMatrix(identity)) == 1
    repeated = IntMatrix(((1, 2, 3), (4, 5, 6), (1, 2, 3)))
    assert det_exact(repeated) == 0
    assert det_exact(build_c_matrix(6, 3)) == 3
    with pytest.raises(ValueError):
        det_exact(IntMatrix(((1, 2, 3), (4, 5, 6))))


def test_det_exact_matches_laplace_on_random_matrices():
    rng = random.Random(3021)
    for _ in range(40):
        n = rng.randint(1, 5)
        entries = tuple(
            tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)
        )
        assert det_exact(IntMatrix(entries)) == laplace_det([list(r) for r in entries])


def test_circulant_det_check():
    report = circulant_det_check(10)
    assert report.ok
    assert len(report.rows) == sum(n - 1 for n in range(2, 11))
    by_key = {(row.n, row.j): row for row in report.rows}
    assert by_key[(6, 3)].det == 3
    assert by_key[(2, 1)].det == 1
    assert all(row.det == row.j for row in report.rows)
    with pytest.raises(ValueError):
        circulant_det_check(1)


def test_subsystem_is_transpose_of_c_matrix():
    for ell in range(2, 8):
        for j in range(1, ell):
            # column i of the matrix marks the indices of the i-th tuple
            columns = [
                tuple(1 if t + 1 in tup else 0 for t in range(ell))
                for tup in _subsystem_tuples(ell, j)
            ]
            assert build_c_matrix(ell, j) == IntMatrix(zip(*columns))


def test_reconstruct_golden():
    spm = SubsetProductMap(3, 2, {(1, 2): 27, (1, 3): 9, (2, 3): 3})
    mu = reconstruct_exponents(spm, 3)
    assert mu == DAryPartition(3, (2, 1, 0))
    assert mu.parts == (9, 3, 1)


def test_reconstruct_j_one_identity():
    spm = SubsetProductMap(4, 1, {(1,): 8, (2,): 8, (3,): 2, (4,): 1})
    mu = reconstruct_exponents(spm, 2)
    assert mu.exponents == (3, 3, 1, 0)


def test_reconstruct_round_trip_golden():
    lam = DAryPartition.from_parts(2, (8, 4, 2, 1))
    spm = positional_products(lam.to_partition(), 2)
    assert reconstruct_exponents(spm, 2).exponents == (3, 2, 1, 0)


def test_reconstruct_round_trip_random():
    rng = random.Random(808)
    for _ in range(60):
        d = rng.choice((2, 3, 5))
        ell = rng.randint(2, 6)
        exponents = sorted((rng.randint(0, 4) for _ in range(ell)), reverse=True)
        mu = DAryPartition(d, tuple(exponents))
        j = rng.randint(1, ell - 1)
        spm = positional_products(mu.to_partition(), j)
        assert reconstruct_exponents(spm, d) == mu


def test_reconstruct_not_power_of_d():
    spm = SubsetProductMap(3, 2, {(1, 2): 27, (1, 3): 9, (2, 3): 3})
    with pytest.raises(NotPowerOfD):
        reconstruct_exponents(spm, 2)


def test_reconstruct_not_power_of_d_names_the_first_bad_product():
    # 24 lies between the powers 16 and 32 of 2; 48 is the largest
    # product; 2 and 8 are powers.
    for products, bad in [
        ({(1, 2): 8, (1, 3): 24, (2, 3): 2}, 24),
        ({(1, 2): 48, (1, 3): 8, (2, 3): 24}, 48),
        ({(1, 2): 8, (1, 3): 2, (2, 3): 3}, 3),
    ]:
        spm = SubsetProductMap(3, 2, products)
        with pytest.raises(NotPowerOfD, match=f"^{bad} is not a power of 2$"):
            reconstruct_exponents(spm, 2)


def test_reconstruct_large_product_stays_small_in_memory():
    spm = SubsetProductMap(2, 1, {(1,): 2**20000, (2,): 1})
    tracemalloc.start()
    try:
        mu = reconstruct_exponents(spm, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mu.exponents == (20000, 0)
    assert peak < 1 << 20


def test_reconstruct_rejects_non_integral_solution():
    # logs: x1+x2 = 1, x1+x3 = 0, x2+x3 = 0 forces x1 = 1/2
    spm = SubsetProductMap(3, 2, {(1, 2): 2, (1, 3): 1, (2, 3): 1})
    with pytest.raises(InconsistentData):
        reconstruct_exponents(spm, 2)


def test_reconstruct_rejects_negative_solution():
    # logs: x1+x2 = 0, x1+x3 = 0, x2+x3 = 2 forces x1 = -1
    spm = SubsetProductMap(3, 2, {(1, 2): 1, (1, 3): 1, (2, 3): 4})
    with pytest.raises(InconsistentData):
        reconstruct_exponents(spm, 2)


def test_reconstruct_rejects_increasing_solution():
    # logs: x1+x2 = 1, x1+x3 = 1, x2+x3 = 2 gives (0, 1, 1), increasing
    spm = SubsetProductMap(3, 2, {(1, 2): 2, (1, 3): 2, (2, 3): 4})
    with pytest.raises(InconsistentData):
        reconstruct_exponents(spm, 2)


def test_reconstruct_checks_full_system():
    lam = DAryPartition(2, (3, 2, 1, 0))
    products = dict(positional_products(lam.to_partition(), 2).items())
    # (2, 4) is not part of the solved subsystem for ell=4, j=2
    assert (2, 4) not in _subsystem_tuples(4, 2)
    products[(2, 4)] *= 2
    spm = SubsetProductMap(4, 2, products)
    with pytest.raises(InconsistentData):
        reconstruct_exponents(spm, 2)


def test_reconstruct_validation():
    spm = SubsetProductMap(3, 3, {(1, 2, 3): 8})
    with pytest.raises(ValueError):
        reconstruct_exponents(spm, 2)  # j must be at most ell - 1
    good = SubsetProductMap(3, 2, {(1, 2): 4, (1, 3): 2, (2, 3): 2})
    with pytest.raises(ValueError):
        reconstruct_exponents(good, 1)  # base too small


def brute_uniqueness(ell, max_exp, j):
    vectors = [
        tuple(reversed(c))
        for c in combinations_with_replacement(range(max_exp + 1), ell)
    ]
    tuples = list(combinations(range(ell), j))
    positional = {}
    multiset = {}
    for vec in vectors:
        sig = tuple(sum(vec[i] for i in tup) for tup in tuples)
        positional.setdefault(sig, []).append(vec)
        multiset.setdefault(tuple(sorted(sig)), []).append(vec)
    collisions = sum(
        len(group) * (len(group) - 1) // 2
        for group in positional.values()
        if len(group) > 1
    )
    multiset_pairs = 0
    for group in multiset.values():
        for a, b in combinations(group, 2):
            sig_a = tuple(sum(a[i] for i in tup) for tup in tuples)
            sig_b = tuple(sum(b[i] for i in tup) for tup in tuples)
            if sig_a != sig_b:
                multiset_pairs += 1
    return len(vectors), collisions, multiset_pairs


def test_verify_uniqueness_golden():
    report = verify_uniqueness(2, 3, 3, 2)
    assert report.ok
    assert report.violations == ()
    report = verify_uniqueness(3, 2, 2, 1)
    assert report.ok
    assert report.violations == ()


def test_verify_uniqueness_matches_brute_force():
    for d, ell, max_exp, j in [(2, 3, 3, 2), (2, 4, 3, 2), (3, 4, 2, 3), (2, 5, 2, 2)]:
        report = verify_uniqueness(d, ell, max_exp, j)
        vectors, collisions, multiset_pairs = brute_uniqueness(ell, max_exp, j)
        assert report.vectors_checked == vectors
        assert len(report.violations) == collisions == 0
        assert len(report.multiset_only) == multiset_pairs


def test_verify_uniqueness_multiset_rows_are_informational():
    report = verify_uniqueness(2, 4, 3, 2)
    tuples = list(combinations(range(1, 5), 2))
    for first, second in report.multiset_only:
        assert first != second
        sig_a = tuple(sum(first[i - 1] for i in tup) for tup in tuples)
        sig_b = tuple(sum(second[i - 1] for i in tup) for tup in tuples)
        assert sig_a != sig_b
        assert sorted(sig_a) == sorted(sig_b)


def test_verify_uniqueness_validation():
    with pytest.raises(ValueError):
        verify_uniqueness(1, 3, 2, 2)
    with pytest.raises(ValueError):
        verify_uniqueness(2, 1, 2, 1)
    with pytest.raises(ValueError):
        verify_uniqueness(2, 3, -1, 2)
    with pytest.raises(ValueError):
        verify_uniqueness(2, 3, 2, 3)
