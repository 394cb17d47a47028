"""Partitions into powers of a base d: the exponent/logarithm bijection with
ordinary partitions, and the window formulas for counting, waves, and the
polynomial part.

For n below d**(k+1) a partition into powers of d only uses the parts
1, d, ..., d**k, so with window k = floor(log_d(n)), or k = 0 at n = 0, the
count, its waves and its polynomial part are the general ones of the parts
list (1, d, ..., d**k), period D = d**k.  `_window` turns (d, n) into that
window once, and `_powers_list` builds it from k for the polynomial part;
the functions here call the general routes on it.

The same variant switch as in `waves` applies here.  Besides the weighting,
the literal variant also keeps a defective reading of the window sum in
which the last summand repeats the next-to-last variable with stride
d**(k-1) and the final variable never enters the sum (for k >= 2); it is
retained for audit only.  `_window` gives that defective list of
(stride, count) box specs, or else the plain box, to `waves._cell`."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exact import RationalPolynomial
from .partitions import Partition, PartsList
from .quasipoly import denumerant_formula
from .waves import (
    DEFAULT_VARIANT,
    LITERAL,
    NotDivisor,
    _box_specs,
    _cell,
    _check_variant,
    polynomial_part_average,
    polynomial_part_bernoulli,
)

__all__ = [
    "DAryPartition",
    "NotPowerOfD",
    "exponent_of_power",
    "exp_d",
    "log_d",
    "integer_log",
    "count_dary",
    "wave_d",
    "poly_part_d_average",
    "poly_part_d_bernoulli",
]


class NotPowerOfD(ValueError):
    """A value that had to be an exact power of the base is not one."""


def _check_base(d: int) -> None:
    if operator.index(d) < 2:
        raise ValueError("base must be at least 2")


def exponent_of_power(value: int, d: int) -> int:
    """The exact exponent e with d**e == value; NotPowerOfD otherwise."""
    _check_base(d)
    # The only candidate is the rounded logarithm, so one power settles it;
    # dividing once per exponent is quadratic in the value's length.
    e = round(math.log(value, d)) if value >= 1 else 0
    if d**e != value:
        raise NotPowerOfD(f"{value} is not a power of {d}")
    return e


class DAryPartition:
    """A partition whose parts are powers of a fixed base, stored as the
    non-increasing sequence of exponents."""

    __slots__ = ("base", "exponents")

    def __init__(self, base: int, exponents=()):
        _check_base(base)
        exps = tuple(map(operator.index, exponents))
        for i, c in enumerate(exps):
            if c < 0:
                raise ValueError("exponents must be non-negative")
            if i and exps[i - 1] < c:
                raise ValueError("exponents must be non-increasing")
        self.base = base
        self.exponents = exps

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self.base**c for c in self.exponents)

    @property
    def length(self) -> int:
        return len(self.exponents)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __eq__(self, other):
        if isinstance(other, DAryPartition):
            return self.base == other.base and self.exponents == other.exponents
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.exponents))

    def __repr__(self):
        return f"DAryPartition(base={self.base}, exponents={self.exponents!r})"


def exp_d(lam: Partition, d: int) -> DAryPartition:
    """Send each part p to the power d**(p-1); inverse of `log_d`."""
    return DAryPartition(d, tuple(p - 1 for p in lam.parts))


def log_d(mu: DAryPartition) -> Partition:
    """Send each part d**c back to the ordinary part c + 1."""
    return Partition(tuple(c + 1 for c in mu.exponents))


def integer_log(d: int, n: int) -> int:
    """floor(log_d(n)) computed by exact repeated multiplication."""
    _check_base(d)
    if n < 1:
        raise ValueError("n must be positive")
    k = 0
    power = 1
    while power * d <= n:
        power *= d
        k += 1
    return k


def _powers_list(d: int, k: int) -> PartsList:
    _check_base(d)
    if k < 0:
        raise ValueError("window k must be non-negative")
    return PartsList(tuple(d**i for i in range(k + 1)))


def _window(d: int, n: int, variant: str = DEFAULT_VARIANT):
    """(k, parts, specs): the window k = floor(log_d(n)) of n (k = 0 for
    n = 0), its parts list (1, d, ..., d**k), and its box specs: the
    defective window sum of the module docstring for the literal variant at
    k >= 2, else the plain box."""
    k = integer_log(d, max(n, 1))
    if n < 0:
        raise ValueError("n must be non-negative")
    parts = _powers_list(d, k)
    if variant == LITERAL and k >= 2:
        specs = [(d ** (i - 1), d ** (k + 1 - i)) for i in range(1, k - 1)]
        return k, parts, specs + [(d ** (k - 2) + d ** (k - 1), d * d), (0, d)]
    return k, parts, _box_specs(parts)


def count_dary(d: int, n: int) -> int:
    """Number of partitions of n into powers of d via the window formula on
    (1, d, ..., d**k), k = floor(log_d(n)) (k = 0 at n = 0).

    A wider window gives the same count (window stability); that is a
    tested property, not a parameter."""
    return denumerant_formula(_window(d, n)[1], n)


def wave_d(j: int, d: int, n: int, variant: str = DEFAULT_VARIANT) -> Fraction:
    """The j-th Sylvester wave of the d-ary count, on the specs of `_window`.

    Requires j to divide d**k for the window k of `count_dary`; equals
    `wave(j, (1, d, ..., d**k), n)` under the same variant, except for the
    defective literal reading when k >= 2."""
    _check_variant(variant)
    k, parts, specs = _window(d, n, variant)
    if j < 1:
        raise ValueError("wave index must be positive")
    if parts.D % j:
        raise NotDivisor(f"{j} does not divide {d}**{k}")
    return _cell(k + 1, parts.D, j, specs, variant, n)


def poly_part_d_average(d: int, k: int) -> RationalPolynomial:
    """Polynomial part of the d-ary count for the window n < d**(k+1), via
    the congruence-free average over the window box."""
    return polynomial_part_average(_powers_list(d, k))


def poly_part_d_bernoulli(d: int, k: int) -> RationalPolynomial:
    """The same window polynomial via the Bernoulli-number route."""
    return polynomial_part_bernoulli(_powers_list(d, k))
