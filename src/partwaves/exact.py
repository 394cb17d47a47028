"""Exact rational, cyclotomic and special-number arithmetic.

Everything in this package is exact: rationals are `fractions.Fraction`,
roots of unity carry rational coefficients modulo x**j - 1, and the special
number sequences (Bernoulli, unsigned Stirling) come from integer
recurrences.  Nothing here touches floating point.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "NotRational",
    "RationalPolynomial",
    "CyclotomicNumber",
    "bernoulli",
    "stirling_unsigned",
    "cyclotomic_polynomial",
    "root_of_unity",
    "to_rational",
]


class NotRational(ValueError):
    """Raised when a cyclotomic value has no rational canonical form."""


# ---------------------------------------------------------------------------
# special number sequences

_bernoulli_cache = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for the generating function t/(e**t - 1).

    This is the convention with B_1 = -1/2.  Values come from the recurrence
    sum(C(m+1, k) * B_k for k in 0..m) = 0 and are memoized.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if m >= len(_bernoulli_cache):
        with _bernoulli_lock:
            while len(_bernoulli_cache) <= m:
                r = len(_bernoulli_cache)
                acc = Fraction(0)
                for k in range(r):
                    acc += math.comb(r + 1, k) * _bernoulli_cache[k]
                _bernoulli_cache.append(-acc / (r + 1))
    return _bernoulli_cache[m]


@lru_cache(maxsize=64)
def _rising_factorial_coeffs(r: int) -> tuple[int, ...]:
    # Integer coefficients of (n+1)(n+2)...(n+r-1), constant term first.
    coeffs = [1]
    for i in range(1, r):
        nxt = [0] * (len(coeffs) + 1)
        for t, c in enumerate(coeffs):
            nxt[t] += i * c
            nxt[t + 1] += c
        coeffs = nxt
    return tuple(coeffs)


def stirling_unsigned(r: int, k: int) -> int:
    """Unsigned Stirling number: coefficient of n**(k-1) in (n+1)...(n+r-1)."""
    if r < 1:
        raise ValueError("r must be positive")
    if not 1 <= k <= r:
        raise ValueError(f"k must lie in 1..{r}, got {k}")
    return _rising_factorial_coeffs(r)[k - 1]


# ---------------------------------------------------------------------------
# polynomials over the rationals


class RationalPolynomial:
    """A polynomial in one variable with exact rational coefficients.

    `coeffs[i]` is the coefficient of the i-th power.  Trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple and the
    leading coefficient of anything else is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, n) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __add__(self, other):
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, RationalPolynomial):
            other = RationalPolynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return RationalPolynomial((other,)) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(tuple(c * other for c in self.coeffs))
        if isinstance(other, RationalPolynomial):
            if self.is_zero() or other.is_zero():
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for t, b in enumerate(other.coeffs):
                    out[i + t] += a * b
            return RationalPolynomial(out)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            inv = Fraction(1) / Fraction(scalar)
            return self * inv
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPolynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPolynomial({self.coeffs!r})"


# ---------------------------------------------------------------------------
# cyclotomic arithmetic


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for t, y in enumerate(b):
            out[i + t] += x * y
    return out


@lru_cache(maxsize=256)
def cyclotomic_polynomial(j: int) -> tuple[int, ...]:
    """Integer coefficients of the j-th cyclotomic polynomial, constant first."""
    if j < 1:
        raise ValueError("order must be positive")
    if j == 1:
        return (-1, 1)
    num = [-1] + [0] * (j - 1) + [1]
    den = [1]
    for d in range(1, j):
        if j % d == 0:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    # Exact division: den is monic, and the quotient has integer coefficients.
    quot = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in reversed(range(len(quot))):
        c = rem[i + len(den) - 1]
        if c:
            quot[i] = c
            for t, dc in enumerate(den):
                rem[i + t] -= c * dc
    if any(rem):
        raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(quot)


class CyclotomicNumber:
    """An exact element of Q(rho_j), rho_j the primitive j-th root of unity.

    The value is stored as a length-j vector of rational coefficients of
    1, rho_j, ..., rho_j**(j-1), i.e. a representative modulo x**j - 1.
    Products are cyclic convolutions; canonicalization (reduction modulo the
    j-th cyclotomic polynomial) happens only on comparison and extraction.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 1:
            raise ValueError("order must be positive")
        if coeffs is None:
            cs = (Fraction(0),) * order
        else:
            cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
            if len(cs) != order:
                raise ValueError(f"expected {order} coefficients, got {len(cs)}")
        self.order = order
        self.coeffs = cs

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def from_rational(cls, value, order: int) -> "CyclotomicNumber":
        cs = [Fraction(0)] * order
        cs[0] = Fraction(value)
        return cls(order, cs)

    def canonical(self) -> tuple[Fraction, ...]:
        """Coefficients reduced modulo the cyclotomic polynomial, zero-padded."""
        phi = cyclotomic_polynomial(self.order)
        deg = len(phi) - 1
        rem = list(self.coeffs)
        for i in range(len(rem) - 1, deg - 1, -1):
            c = rem[i]
            if c:
                rem[i] = Fraction(0)
                base = i - deg
                for t in range(deg):
                    rem[base + t] -= c * phi[t]
        return tuple(rem)

    def is_rational(self) -> bool:
        can = self.canonical()
        return all(not c for c in can[1:])

    def to_rational(self) -> Fraction:
        can = self.canonical()
        if any(can[1:]):
            raise NotRational(
                f"order-{self.order} value {can!r} has irrational canonical form"
            )
        return can[0]

    def _wrap(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, self.order)
        return None

    def __add__(self, other):
        rhs = self._wrap(other)
        if rhs is None:
            return NotImplemented
        return CyclotomicNumber(
            self.order, tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        rhs = self._wrap(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, tuple(c * other for c in self.coeffs))
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError("cyclotomic orders differ")
            j = self.order
            out = [Fraction(0)] * j
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for t, b in enumerate(other.coeffs):
                    if b:
                        out[(i + t) % j] += a * b
            return CyclotomicNumber(j, out)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = CyclotomicNumber.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self.canonical() == other.canonical()
            try:
                return self.to_rational() == other.to_rational()
            except NotRational:
                return False
        if isinstance(other, (int, Fraction)):
            try:
                return self.to_rational() == Fraction(other)
            except NotRational:
                return False
        return NotImplemented

    def __hash__(self):
        try:
            return hash(self.to_rational())
        except NotRational:
            return hash((self.order, self.canonical()))

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, coeffs={self.coeffs!r})"


def root_of_unity(j: int, e: int = 1) -> CyclotomicNumber:
    """rho_j**e as a CyclotomicNumber of order j; e is reduced modulo j."""
    if j < 1:
        raise ValueError("order must be positive")
    cs = [Fraction(0)] * j
    cs[e % j] = Fraction(1)
    return CyclotomicNumber(j, cs)


def to_rational(value) -> Fraction:
    """Extract the rational value of a cyclotomic number (NotRational if none).

    Plain integers and fractions pass through unchanged."""
    if isinstance(value, CyclotomicNumber):
        return value.to_rational()
    return Fraction(value)
