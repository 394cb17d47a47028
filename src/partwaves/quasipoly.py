"""Closed-formula counting for restricted partitions.

`denumerant_formula` evaluates the exact congruence-filtered sum over the
box of residue tuples without building the box: it folds all parts but the
smallest, largest first, into a distribution kept only on multiples of the
running gcd of the parts folded so far, and reads each needed box entry as a
strided window sum of that distribution over the smallest part's range.

The module keeps its name because the benchmark's per-layer metrics
(`bench/tracing.LAYERS` and the `quasipoly.*` names) are keyed on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import sub

from .partitions import PartsList

__all__ = ["denumerant_formula"]


def _spread(counts: list[int], stride: int, count: int) -> list[int]:
    """Distribution after adding stride * t, 0 <= t < count, to each value:
    out[s] = counts[s] + counts[s - stride] + ... (count terms)."""
    out = [0] * (len(counts) + stride * (count - 1))
    for c in range(stride):
        # Running sum, per residue class, of the class minus the class
        # shifted by `count` places; the differences are made lazily.
        cls = counts[c::stride]
        out[c::stride] = accumulate(
            map(sub, chain(cls, repeat(0, count - 1)), chain(repeat(0, count), cls))
        )
    return out


def denumerant_formula(a: PartsList, n: int) -> Fraction:
    """Exact closed-formula count of partitions of n with parts in `a`.

    Sums the rising product over residue tuples whose weighted sum s is
    congruent to n modulo D, divided by (r-1)!.  The number of tuples with
    sum s comes from a partial box: the parts but the smallest are folded in
    descending order into a distribution kept only on multiples of g, the
    gcd of the parts folded so far, and the smallest part's coordinate is a
    strided window sum of that distribution.  The full box is never built.
    The result is a Fraction that is always a non-negative integer equal to
    `denumerant_dp(a, n)`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    D = a.D
    r = len(a.parts)
    *folded, last = sorted(a.parts, reverse=True)
    # counts[i] tuples of the folded parts have weighted sum g * i; the empty
    # fold is the single sum 0, which lies on the multiples of any g | D.
    counts, g = [1], D
    for p in folded:
        g2 = math.gcd(g, p)
        if g2 < g:
            wide = [0] * ((len(counts) - 1) * (g // g2) + 1)
            wide[:: g // g2] = counts
            counts, g = wide, g2
        counts = _spread(counts, p // g, D // p)
    # Box entry s sums counts over s - last * t, 0 <= t < D/last, where g
    # divides s - last * t: t = t0 + m * i with m = g/h, h = gcd(g, last),
    # which is D * h / (last * g) terms stepping down by last/h indices.
    h = math.gcd(g, last)
    m, step = g // h, last // h
    terms = D // (last * m)
    inverse = pow(step, -1, m)
    total = 0
    # Box sums s > n have -r < (n - s)/D < 0, where the rising product is 0.
    for s in range(n % D, min(n, r * D) + 1, D):
        if s % h:
            continue
        t0 = s // h * inverse % m
        hi = (s - last * t0) // g
        if hi < 0:
            continue
        c = sum(counts[max(hi % step, hi - step * (terms - 1)) : hi + 1 : step])
        if not c:
            continue
        q = (n - s) // D
        term = 1
        for ell in range(1, r):
            term *= q + ell
        total += c * term
    return Fraction(total, math.factorial(r - 1))

