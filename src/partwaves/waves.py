"""Sylvester wave decomposition of restricted partition counts and the two
independent routes to the polynomial part.

The count p_a(n) splits as a sum of waves W_j(n) over the distinct divisors
j of the entries of `a`; W_1 is the polynomial part.  The box-tuple sums are
split into congruence classes modulo j, each class is expanded into a
polynomial in n, and the classes are combined with a weight per class; a
wave is built once, as a column over a range of n.  A class enters only
through the power sums of its box sums, which `_residue_moments` gets from
`quasipoly._fold`, the formula's gcd-ordered fold, of at most
sum(lcm(a_i, j)) values, not from the box; a twisted wave reads at most
rad(j) of its j classes.

Two weightings are exposed:

* "twisted" (default): class ell is weighted by the sum of rho_j**(nu*(ell-n))
  over 0 <= nu < j coprime to j, i.e. the rho_j**(-nu*n) twist from
  Sylvester's classical wave definition applied to each class.  That sum is
  the Ramanujan sum c_j(ell - n), an integer that depends on n only through
  n mod j, so the wave is a period-j quasi-polynomial of degree r - 1, kept
  as integer numerators over D**r * (r-1)!, one denominator for all waves of
  `a`, one polynomial per residue class of n, evaluated as one column.  A
  Fraction is made only in library returns and failure records; the sweep
  prints reduced numerator pairs.  These waves sum to p_a(n) exactly.
* "literal": class ell is weighted by the bare power rho_j**ell.  Kept
  callable for audit; the class values at n form one cyclotomic number of
  order j, and with no dependence on n mod j it cannot reproduce the
  period-j behaviour of a wave, so its extraction generally raises
  NotRational for j > 2.  At j = 2, rho_2 = -1 is rational and the literal
  wave is (-1)**n times the twisted one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .exact import (
    CyclotomicNumber,
    NotRational,
    RationalPolynomial,
    _horner,
    bernoulli,
    stirling_unsigned,
)
from .partitions import PartsList, denumerant_series
from .quasipoly import _fold

__all__ = [
    "LITERAL",
    "TWISTED",
    "DEFAULT_VARIANT",
    "NotDivisor",
    "divisor_set",
    "polynomial_part_average",
    "polynomial_part_bernoulli",
    "wave",
    "wave_decomposition_check",
    "WaveTerm",
    "WaveCheckRow",
]

LITERAL = "literal"
TWISTED = "twisted"
DEFAULT_VARIANT = TWISTED


class NotDivisor(ValueError):
    """The requested wave index divides none of the allowed part sizes."""


def _check_variant(variant: str) -> None:
    if variant not in (LITERAL, TWISTED):
        raise ValueError(f"variant must be {LITERAL!r} or {TWISTED!r}, got {variant!r}")


def divisor_set(a: PartsList) -> tuple[int, ...]:
    """Distinct divisors of the entries of `a`, ascending."""
    ds = set()
    for p in a.parts:
        for d in range(1, math.isqrt(p) + 1):
            if p % d == 0:
                ds.update((d, p // d))
    return tuple(sorted(ds))


# ---------------------------------------------------------------------------
# power sums over the tuple box


def _binomial_mix(y):
    """Rows m with sum(map(mul, m, x)) the p-th power sum of v + w, for v with
    power sums x and w with power sums y: m = C(p, q) * y[p - q] over q <= p."""
    return [[math.comb(p, q) * y[p - q] for q in range(p + 1)] for p in range(len(y))]


@lru_cache(maxsize=16)
def _surjections(t_max: int) -> list[list[int]]:
    """Rows q <= t_max of i! * S(q, i), the surjections of a q-set onto an i-set."""
    return [[sum((-1) ** k * math.comb(i, k) * (i - k) ** q for k in range(i + 1))
             for i in range(q + 1)] for q in range(t_max + 1)]


def _residue_moments(specs, j: int, t_max: int):
    """row(rho): the power sums of s**t, t = 0..t_max, over the box of
    s = sum(stride_i * t_i), 0 <= t_i < count_i, in the class s = rho mod j,
    each row computed on its first call.

    Each t_i is t0 + m*u with m = j/gcd(stride_i, j), which divides count_i
    in every box built here (else m = count_i).  The short parts t0 < m fold
    by `quasipoly._fold`, from g = j, into at most sum(lcm(stride_i, j))
    values on the multiples of a divisor g of j: class rho is every (j/g)-th
    value from rho/g, none unless g | rho.  A zero stride has m = 1.  The
    long parts are multiples of j, so they fold into one residue-free vector
    of power sums, sum(u**q for u < U) = sum_i S(q, i) * i! * C(U, i + 1)
    with S the Stirling numbers of the second kind."""
    short_specs, long_sums = [], [1] + [0] * t_max
    for stride, count in specs:
        m = j // math.gcd(stride, j)
        if count % m:
            m = count
        if m > 1:
            short_specs.append((stride, m))
        if count > m:
            basis = [math.comb(count // m, i + 1) for i in range(t_max + 1)]
            sums = [(stride * m) ** q * sum(map(mul, numbers, basis))
                    for q, numbers in enumerate(_surjections(t_max))]
            long_sums = [sum(map(mul, m, sums)) for m in _binomial_mix(long_sums)]
    short, g = _fold(short_specs, j)
    mix = _binomial_mix(long_sums)

    @lru_cache(maxsize=j)
    def row(rho: int) -> list[int]:
        column = short[rho // g :: j // g] if rho % g == 0 else []
        values = range(rho, g * len(short), j)
        sums = [sum(column)]
        for _ in range(t_max):
            column = list(map(mul, column, values))
            sums.append(sum(column))
        return [sum(map(mul, m, sums)) for m in mix]

    return row


# ---------------------------------------------------------------------------
# polynomial part


def _box_specs(a: PartsList) -> list[tuple[int, int]]:
    """The (stride, count) specs of the box of `a`: each part p, D/p times."""
    return [(p, a.D // p) for p in a.parts]


def _denominator(r: int, D: int) -> int:
    return D**r * math.factorial(r - 1)


@lru_cache(maxsize=16)
def _expansion(r: int, D: int) -> tuple[tuple[int, ...], ...]:
    """Rows m < r: the coefficient of n**m in `_poly_numerators` is row m
    dotted with the power sums, entry q the weight of the q-th power sum."""
    return tuple(tuple(stirling_unsigned(r, m + q + 1) * D ** (r - 1 - m - q)
                       * math.comb(m + q, m) * (-1) ** q for q in range(r - m))
                 for m in range(r))


def _poly_numerators(r: int, D: int, moments) -> list[int]:
    """Expand sum over the box of prod((n-s)/D + ell, ell=1..r-1) / (D*(r-1)!)
    symbolically in n, given the integer power sums of s over the box, as the
    integer numerators of its coefficients over `_denominator(r, D)`."""
    return [sum(map(mul, row, moments)) for row in _expansion(r, D)]


def polynomial_part_average(a: PartsList) -> RationalPolynomial:
    """Polynomial part of the restricted count via the box-average route:
    the congruence-free sum over all residue tuples, expanded exactly."""
    r = len(a.parts)
    moments = _residue_moments(_box_specs(a), 1, r - 1)(0)
    return RationalPolynomial([Fraction(c, _denominator(r, a.D))
                               for c in _poly_numerators(r, a.D, moments)])


def polynomial_part_bernoulli(a: PartsList) -> RationalPolynomial:
    """Polynomial part via the Bernoulli-number route: an independent closed
    form whose coefficients are weighted products of Bernoulli numbers.

    The weighted sum over compositions of u is the x**u coefficient of the
    product over the parts a_t of sum(B_i * (a_t*x)**i / i!), truncated
    after degree r-1.  Scaled by L, the lcm of the denominators of B_i / i!,
    the series multiply in integers over L**r, one Fraction per coefficient."""
    parts = a.parts
    r = len(parts)
    terms = [bernoulli(i) / math.factorial(i) for i in range(r)]
    L = math.lcm(*(c.denominator for c in terms))
    scaled = [c.numerator * (L // c.denominator) for c in terms]
    series = [1] + [0] * (r - 1)
    for a_t in parts:
        factor = [c * a_t**i for i, c in enumerate(scaled)]
        series = [sum(map(mul, series, factor[u::-1])) for u in range(r)]
    scale = math.prod(parts) * L**r
    return RationalPolynomial([
        Fraction((-1) ** (r - 1 - m) * series[r - 1 - m], math.factorial(m) * scale)
        for m in range(r)
    ])


# ---------------------------------------------------------------------------
# waves


def _ramanujan_weights(j: int) -> list[tuple[int, int]]:
    """(delta, c_j(delta)) for the delta < j where the Ramanujan sum c_j, the
    sum of rho_j**(nu*delta) over 0 <= nu < j coprime to j, is nonzero.

    By Hoelder, c_j(delta) = mu(j/g) * phi(j) / phi(j/g), g = gcd(j, delta),
    is nonzero exactly at the multiples s*m of s = j / rad(j), where it is
    s times the product over the primes p of j of p - 1 if p | m, else -1."""
    primes, rest = [], j
    for p in range(2, math.isqrt(j) + 1):
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    primes += [rest] if rest > 1 else []
    s = j // math.prod(primes)
    return [(s * m, s * math.prod(p - 1 if m % p == 0 else -1 for p in primes))
            for m in range(j // s)]


def _build_wave(r: int, D: int, j: int, specs, variant: str):
    """The wave from the (stride, count) box specs as a column: a range `ns`
    to the list of the wave's integer numerators over `_denominator(r, D)`.

    Class ell modulo j expands, via `_poly_numerators`, to a polynomial in n.
    The twisted weight c_j(ell - n) depends on n only through n mod j, so the
    wave on the slice of `ns` in residue c is one polynomial, the expansion
    of the classes weighted by c_j(ell - c) != 0, run by Horner in C-level
    passes over the slice.  The literal weights rho_j**ell make the class
    values at n, over D**(r-1), one cyclotomic number, extracted at each n;
    a cell whose extraction fails holds its NotRational."""
    row = _residue_moments(specs, j, r - 1)
    if variant == TWISTED:
        deltas, weights = zip(*_ramanujan_weights(j))

        def column(ns) -> list[int]:
            out = [0] * len(ns)
            for c in range(min(j, len(ns))):
                at = ns[c::j]
                acc = [0] * len(at)
                by_power = zip(*(row((at[0] + delta) % j) for delta in deltas))
                for coef in reversed(_poly_numerators(r, D, [
                        sum(map(mul, weights, sums)) for sums in by_power])):
                    acc = list(map(add, map(mul, acc, at), repeat(coef)))
                out[c::j] = acc
            return out

        return column
    classes = [_poly_numerators(r, D, row(rho)) for rho in range(j)]
    unit = D ** (r - 1)

    def at(n: int):
        try:
            return int(CyclotomicNumber(
                j, [Fraction(_horner(c, n), unit) for c in classes]).to_rational() * unit)
        except NotRational as exc:
            return exc

    return lambda ns: list(map(at, ns))


def _cell(column, n: int, den: int) -> Fraction:
    """The value at n of a wave column over den; raises its cell's NotRational."""
    (num,) = column(range(n, n + 1))
    if isinstance(num, NotRational):
        raise num
    return Fraction(num, den)


def wave(j: int, a: PartsList, n: int, variant: str = DEFAULT_VARIANT) -> Fraction:
    """The j-th Sylvester wave of the restricted count of `a`, evaluated at n.

    Requires j to divide at least one entry of `a` (NotDivisor otherwise).
    Under the default twisted variant the waves over `divisor_set(a)` sum to
    the exact count; the literal variant generally raises NotRational."""
    _check_variant(variant)
    if j < 1:
        raise ValueError("wave index must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    if all(p % j for p in a.parts):
        raise NotDivisor(f"{j} divides no entry of {a.parts}")
    r = len(a.parts)
    return _cell(_build_wave(r, a.D, j, _box_specs(a), variant), n,
                 _denominator(r, a.D))


# A term's value is None when its extraction failed; error then says why.
WaveTerm = namedtuple("WaveTerm", "j value error", defaults=("",))
WaveCheckRow = namedtuple("WaveCheckRow", "n terms total expected residual ok")


def _wave_row(n: int, divisors, nums, expected: int, den: int) -> WaveCheckRow:
    """The row at n of the waves over `divisors`, from their numerators
    `nums` over den, checked against `expected`.  A NotRational in place of
    a numerator is an irrational extraction: its term fails, and so does the
    row, with no total."""
    if any(map(isinstance, nums, repeat(NotRational))):
        terms = tuple(WaveTerm(j, None, str(num)) if isinstance(num, NotRational)
                      else WaveTerm(j, Fraction(num, den))
                      for j, num in zip(divisors, nums))
        return WaveCheckRow(n, terms, None, expected, None, False)
    terms = tuple(map(WaveTerm, divisors, map(Fraction, nums, repeat(den))))
    total = Fraction(sum(nums), den)
    return WaveCheckRow(n, terms, total, expected, total - expected, total == expected)


def _wave_rows(a: PartsList, specs, ns, variant: str):
    """(divisors, den, rows): `divisor_set(a)`, the waves' denominator and,
    per n of the range `ns`, the numerators at n of the waves in ascending j,
    each wave one `_build_wave` column from the box `specs`."""
    divisors = divisor_set(a)
    r = len(a.parts)
    columns = [_build_wave(r, a.D, j, specs, variant)(ns) for j in divisors]
    return divisors, _denominator(r, a.D), list(zip(*columns))


def wave_decomposition_check(
    a: PartsList, n_max: int, variant: str = DEFAULT_VARIANT
) -> tuple[WaveCheckRow, ...]:
    """Check sum of waves, each built once, against the DP oracle for all
    n <= n_max: one row per n, ascending, its terms in ascending j over
    `divisor_set(a)`, made Fractions by `_wave_row` from the integer
    numerators of `_wave_rows`.  Failures are data in the rows, never raised;
    a negative n_max is refused by `denumerant_series`."""
    _check_variant(variant)
    expected = denumerant_series(a, n_max)
    divisors, den, rows = _wave_rows(a, _box_specs(a), range(n_max + 1), variant)
    return tuple(map(_wave_row, range(n_max + 1), repeat(divisors), rows, expected,
                     repeat(den)))
