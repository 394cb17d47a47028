import math
import random
from fractions import Fraction

import pytest

from partwaves.exact import (
    CyclotomicNumber,
    NotRational,
    RationalPolynomial,
    bernoulli,
    _cyclotomic_polynomial,
    root_of_unity,
    stirling_unsigned,
    to_rational,
)


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_values_vanish():
    for m in range(3, 25, 2):
        assert bernoulli(m) == 0


def test_bernoulli_generating_function_identity():
    # (sum B_i t^i / i!) * ((e^t - 1)/t) = 1, i.e. for every m >= 1 the
    # Cauchy coefficient sum_{i=0}^{m} B_i / (i! * (m - i + 1)!) vanishes.
    for m in range(1, 16):
        total = sum(
            bernoulli(i) / (math.factorial(i) * math.factorial(m - i + 1))
            for i in range(m + 1)
        )
        assert total == 0
    assert bernoulli(0) / (math.factorial(0) * math.factorial(1)) == 1


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_stirling_small_values():
    assert stirling_unsigned(1, 1) == 1
    assert stirling_unsigned(3, 2) == 3
    assert stirling_unsigned(3, 1) == 2
    assert stirling_unsigned(3, 3) == 1
    # (n+1)(n+2)(n+3) = n^3 + 6n^2 + 11n + 6
    assert stirling_unsigned(4, 1) == 6
    assert stirling_unsigned(4, 2) == 11
    assert stirling_unsigned(4, 3) == 6
    assert stirling_unsigned(4, 4) == 1


def test_stirling_matches_rising_factorial_product():
    # both sides have degree r - 1, so agreement at r points is equality
    for r in range(1, 9):
        recovered = RationalPolynomial(
            [stirling_unsigned(r, k) for k in range(1, r + 1)]
        )
        assert recovered.degree == r - 1
        for n in range(r):
            assert recovered.evaluate(n) == math.prod(range(n + 1, n + r))


def test_stirling_rejects_out_of_range():
    with pytest.raises(ValueError):
        stirling_unsigned(3, 0)
    with pytest.raises(ValueError):
        stirling_unsigned(3, 4)
    with pytest.raises(ValueError):
        stirling_unsigned(0, 1)


def test_polynomial_basics():
    p = RationalPolynomial([Fraction(2, 3), Fraction(1, 3)])
    assert p.degree == 1
    assert p.coeffs[-1] == Fraction(1, 3)
    assert p.evaluate(8) == Fraction(10, 3)
    zero = RationalPolynomial([])
    assert zero.coeffs == ()
    assert zero.degree == -1
    assert RationalPolynomial([0, 0]) == zero


def test_cyclotomic_polynomials():
    assert _cyclotomic_polynomial(1) == (-1, 1)
    assert _cyclotomic_polynomial(2) == (1, 1)
    assert _cyclotomic_polynomial(3) == (1, 1, 1)
    assert _cyclotomic_polynomial(4) == (1, 0, 1)
    assert _cyclotomic_polynomial(6) == (1, -1, 1)
    assert _cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # 360 and 420 have 24 divisors each, with long chains of proper divisors
    for n in (*range(1, 131), 360, 420):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = _cyclotomic_polynomial(d)
                out = [0] * (len(product) + len(phi) - 1)
                for i, a in enumerate(product):
                    for t, b in enumerate(phi):
                        out[i + t] += a * b
                product = out
        assert product == [-1] + [0] * (n - 1) + [1]


def test_roots_of_unity_basics():
    assert root_of_unity(1, 5) == CyclotomicNumber(1, (1,))
    assert to_rational(root_of_unity(1, 5)) == 1
    assert to_rational(root_of_unity(4, 2)) == -1
    total = root_of_unity(3, 1) + root_of_unity(3, 2) + root_of_unity(3, 3)
    assert to_rational(total) == 0
    assert to_rational(root_of_unity(3, 1) + root_of_unity(3, 2)) == -1


def test_root_of_unity_power_cycles():
    for j in range(1, 13):
        rho = root_of_unity(j)
        assert to_rational(rho**j) == 1
        assert rho ** (j + 3) == rho**3


def test_rational_embedding_round_trip():
    x = CyclotomicNumber(6, (Fraction(7, 2), 0, 0, 0, 0, 0))
    assert x.canonical() == (Fraction(7, 2), 0, 0, 0, 0, 0)
    assert to_rational(x) == Fraction(7, 2)
    # 1 + rho + rho^2 = 0 at order 3, so (9/2, 1, 1) is 7/2 as well
    assert to_rational(CyclotomicNumber(3, (Fraction(9, 2), 1, 1))) == Fraction(7, 2)


def test_primitive_root_is_not_rational():
    rho = root_of_unity(3)
    assert rho.canonical() == (0, 1, 0)
    with pytest.raises(NotRational):
        to_rational(rho)


def test_to_rational_accepts_plain_scalars():
    assert to_rational(Fraction(5, 3)) == Fraction(5, 3)
    assert to_rational(4) == 4


def test_cyclotomic_equality_canonicalizes():
    # 1 + rho + rho^2 = 0 at order 3, in whatever raw coefficients
    zero = CyclotomicNumber(3, (1, 1, 1))
    assert zero == CyclotomicNumber(3)
    assert to_rational(zero) == 0
    assert zero != root_of_unity(3)


def test_canonical_matches_dense_reduction():
    # Reduce mod Phi_j touching every coefficient of Phi_j, zeros included,
    # and compare with the canonical form; nothing survives from phi(j) on.
    # Phi_105 is the first with a coefficient outside {-1, 0, 1}.
    rng = random.Random(4099)
    for j in (8, 16, 27, 12, 30, 64, 105):
        phi = _cyclotomic_polynomial(j)
        deg = len(phi) - 1
        totient = sum(1 for t in range(1, j + 1) if math.gcd(t, j) == 1)
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(j)]
            rem = list(coeffs)
            for i in reversed(range(deg, j)):
                c = rem[i]
                for t, p in enumerate(phi):
                    rem[i - deg + t] -= c * p
            canonical = CyclotomicNumber(j, coeffs).canonical()
            assert list(canonical) == rem
            assert not any(canonical[totient:])


def test_cyclotomic_mixed_scalar_arithmetic():
    rho = root_of_unity(5)
    x = rho * 3 + Fraction(1, 2)
    y = x - rho * 3
    assert to_rational(y) == Fraction(1, 2)
    assert to_rational(rho - rho) == 0


def test_cyclotomic_multiplication_commutes_and_associates():
    rng = random.Random(977)
    for _ in range(40):
        j = rng.randint(1, 12)
        values = []
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(j)]
            values.append(CyclotomicNumber(j, coeffs))
        a, b, c = values
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_cyclotomic_pow_matches_repeated_product():
    rho = root_of_unity(7, 3)
    acc = CyclotomicNumber(7, (1, 0, 0, 0, 0, 0, 0))
    for e in range(6):
        assert rho**e == acc
        acc = acc * rho
    with pytest.raises(ValueError):
        rho ** (-1)
