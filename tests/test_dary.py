import random
from fractions import Fraction

import pytest

from partwaves.dary import (
    DAryPartition,
    NotPowerOfD,
    _window,
    count_dary,
    exp_d,
    exponent_of_power,
    integer_log,
    log_d,
    poly_part_d_average,
    poly_part_d_bernoulli,
    wave_d,
)
from partwaves.partitions import Partition, PartsList, SubsetProductMap, denumerant_dp
from partwaves.quasipoly import denumerant_formula
from partwaves.waves import (
    LITERAL,
    TWISTED,
    NotDivisor,
    divisor_set,
    polynomial_part_average,
    polynomial_part_bernoulli,
    wave,
)
from test_partitions import enumerate_restricted
from test_waves import defective_window_specs


def window(d, k):
    return PartsList(tuple(d**i for i in range(k + 1)))


def random_partition(rng, max_part=20, max_length=12):
    length = rng.randint(0, max_length)
    parts = sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True)
    return Partition(parts)


def test_dary_partition_basics():
    mu = DAryPartition(2, (3, 1, 0))
    assert mu.parts == (8, 2, 1)
    assert mu.size == 11
    assert mu.length == 3
    assert Partition(mu.parts) == Partition((8, 2, 1))
    assert DAryPartition(2, [3, 1, 0]) == mu
    with pytest.raises(ValueError):
        DAryPartition(2, (1, 3))
    with pytest.raises(ValueError):
        DAryPartition(2, (2, -1))
    with pytest.raises(ValueError):
        DAryPartition(1, (2,))


def test_exponent_of_power():
    assert exponent_of_power(1, 3) == 0
    assert exponent_of_power(27, 3) == 3
    assert exponent_of_power(1024, 2) == 10
    assert exponent_of_power(7**5000, 7) == 5000
    with pytest.raises(NotPowerOfD):
        exponent_of_power(7**5000 + 1, 7)
    with pytest.raises(NotPowerOfD):
        exponent_of_power(12, 2)
    with pytest.raises(NotPowerOfD):
        exponent_of_power(0, 2)


def test_exp_log_golden():
    assert exp_d(Partition((3, 1)), 2).parts == (4, 1)
    assert exp_d(Partition((1, 1, 1)), 7).parts == (1, 1, 1)
    assert exp_d(Partition((2, 2, 1)), 3).parts == (3, 3, 1)
    assert log_d(DAryPartition(2, (2, 0))) == Partition((3, 1))
    assert log_d(DAryPartition(3, (2, 2, 1))) == Partition((3, 3, 2))


def test_exp_log_round_trip_random():
    rng = random.Random(314)
    for _ in range(200):
        d = rng.choice((2, 3, 10))
        lam = random_partition(rng)
        mu = exp_d(lam, d)
        assert mu.length == lam.length
        assert log_d(mu) == lam
        assert exp_d(log_d(mu), d) == mu


def test_integer_log():
    assert integer_log(2, 1) == 0
    assert integer_log(2, 8) == 3
    assert integer_log(3, 8) == 1
    assert integer_log(3, 80) == 3
    assert integer_log(3, 81) == 4
    with pytest.raises(ValueError):
        integer_log(2, 0)
    with pytest.raises(ValueError):
        integer_log(1, 5)
    rng = random.Random(21)
    for _ in range(50):
        d = rng.randint(2, 9)
        n = rng.randint(1, 10**9)
        k = integer_log(d, n)
        assert d**k <= n < d ** (k + 1)


def test_count_dary_golden():
    assert count_dary(3, 8) == 3
    assert count_dary(3, 20) == 12
    assert count_dary(2, 8) == 10
    # b_d(0) = 1 on the k = 0 window (1,), though integer_log rejects 0.
    assert count_dary(2, 0) == count_dary(5, 0) == 1


def test_count_dary_matches_dp():
    for d in (2, 3, 5):
        for n in range(1, 201):
            k = integer_log(d, n)
            assert count_dary(d, n) == denumerant_dp(window(d, k), n)


def test_count_dary_matches_enumeration_binary():
    for n in range(1, 11):
        k = integer_log(2, n)
        assert count_dary(2, n) == len(enumerate_restricted(n, window(2, k)))


def test_count_dary_window_stability():
    for d in (2, 3):
        for n in range(1, 81):
            k = integer_log(d, n)
            base = count_dary(d, n)
            assert denumerant_formula(window(d, k + 1), n) == base
            assert denumerant_formula(window(d, k + 2), n) == base


def test_count_dary_validation():
    with pytest.raises(ValueError):
        count_dary(2, -1)
    with pytest.raises(ValueError):
        count_dary(1, 5)


def test_window_is_k_parts_and_specs():
    for d in (2, 3, 5):
        for n in range(d**4 + 1):
            k = integer_log(d, max(n, 1))
            parts = window(d, k)
            box = [(p, parts.D // p) for p in parts.parts]
            assert _window(d, n) == _window(d, n, TWISTED) == (k, parts, box)
            literal = defective_window_specs(d, k) if k >= 2 else box
            assert _window(d, n, LITERAL) == (k, parts, literal)
    # the base is refused before a negative n
    with pytest.raises(ValueError, match="base must be at least 2"):
        _window(1, -1)
    with pytest.raises(ValueError, match="n must be non-negative"):
        _window(2, -1)


def test_wave_d_golden():
    assert wave_d(1, 3, 8) == Fraction(10, 3)
    assert wave_d(3, 3, 8) == Fraction(-1, 3)
    # n < d collapses the window to the single part 1
    assert wave_d(1, 2, 1) == wave(1, PartsList((1,)), 1) == 1
    assert wave_d(1, 2, 0) == wave_d(1, 3, 0, LITERAL) == 1


def test_wave_d_matches_general_wave():
    for d in (2, 3):
        for n in range(1, 31):
            k = integer_log(d, n)
            a = window(d, k)
            for j in divisor_set(a):
                assert wave_d(j, d, n) == wave(j, a, n)


def test_wave_d_literal_variant():
    from partwaves.exact import NotRational

    def outcome(fn):
        try:
            return fn()
        except NotRational:
            return "not rational"

    # for k <= 1 the literal index reading coincides with the corrected one,
    # so the audit variant must match the general literal wave exactly
    for d, n in [(2, 2), (2, 3), (3, 8), (5, 20)]:
        k = integer_log(d, n)
        assert k <= 1
        a = window(d, k)
        for j in divisor_set(a):
            got = outcome(lambda: wave_d(j, d, n, variant=LITERAL))
            want = outcome(lambda: wave(j, a, n, variant=LITERAL))
            assert got == want
    # for k >= 2 the literal reading is kept only for audit; it must still
    # evaluate (or report irrationality) without crashing
    for d, n in [(2, 4), (2, 11), (3, 9), (3, 20)]:
        for j in divisor_set(window(d, integer_log(d, n))):
            outcome(lambda: wave_d(j, d, n, variant=LITERAL))


def test_wave_d_sum_equals_count():
    cases = [(d, n) for d in (2, 3) for n in range(1, 61)]
    # windows the wave-tables benchmark leaves out: D = 2**9 and D = 5**3
    cases += [(2, 1000), (5, 300)]
    for d, n in cases:
        a = window(d, integer_log(d, n))
        total = sum(wave_d(j, d, n) for j in divisor_set(a))
        assert total == count_dary(d, n) == denumerant_dp(a, n)


def test_wave_d_validation():
    with pytest.raises(NotDivisor):
        wave_d(3, 2, 8)
    with pytest.raises(NotDivisor):
        wave_d(16, 2, 8)  # 16 does not divide 2**3
    with pytest.raises(NotDivisor):
        wave_d(2, 2, 0)
    with pytest.raises(ValueError):
        wave_d(1, 2, -1)
    with pytest.raises(ValueError):
        wave_d(0, 2, 8)


def test_poly_part_d_golden():
    assert poly_part_d_average(3, 1).evaluate(8) == Fraction(10, 3)
    assert poly_part_d_bernoulli(3, 1).evaluate(8) == Fraction(10, 3)
    assert poly_part_d_average(2, 0).coeffs == (Fraction(1),)
    for d in (2, 3, 7):
        assert poly_part_d_bernoulli(d, 0).coeffs == (Fraction(1),)


def test_poly_part_d_routes_agree():
    for d in (2, 3, 5):
        for k in range(4):
            assert poly_part_d_average(d, k) == poly_part_d_bernoulli(d, k)


def test_poly_part_d_matches_general_routes():
    assert poly_part_d_bernoulli(2, 2) == polynomial_part_bernoulli(PartsList((1, 2, 4)))
    for d in (2, 3, 5):
        for k in range(4):
            assert poly_part_d_average(d, k) == polynomial_part_average(window(d, k))


def test_poly_part_d_validation():
    with pytest.raises(ValueError):
        poly_part_d_average(2, -1)
    with pytest.raises(ValueError):
        poly_part_d_bernoulli(1, 2)
    with pytest.raises(ValueError, match="base must be at least 2"):
        poly_part_d_average(1, 2)


def test_non_integer_inputs_raise_instead_of_truncating():
    with pytest.raises(TypeError):
        Partition((2.5, 1))
    with pytest.raises(TypeError):
        PartsList((1.5, 3))
    with pytest.raises(TypeError):
        DAryPartition(2, (1.9, 0))
    with pytest.raises(TypeError):
        SubsetProductMap(2, 1, {(1,): 4.9, (2,): 1})
    with pytest.raises(TypeError):
        count_dary(2.5, 10)
