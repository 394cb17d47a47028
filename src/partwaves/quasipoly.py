"""Closed-formula counting for restricted partitions, and the box fold that
it shares with the waves.

`_fold` folds (stride, count) box specs, largest stride first, into the
distribution of their weighted sums kept only on multiples of the running
gcd, so each part of a d-ary window spreads with stride 1.
`denumerant_formula` folds all parts but the smallest, dropping each sum
above n, and reads each needed box entry as a strided window sum of that
distribution over the smallest part's range, never building the box;
`waves._residue_moments` folds the short parts of its coordinates in full.

The module keeps its name because the benchmark's per-layer metrics
(`bench/tracing.LAYERS` and the `quasipoly.*` names) are keyed on it.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, chain, islice, repeat
from operator import sub

from .partitions import PartsList

__all__ = ["denumerant_formula"]


def _spread(counts: list[int], stride: int, count: int, size: int) -> list[int]:
    """Distribution after adding stride * t, 0 <= t < count, to each value,
    cut to its first `size` entries: out[s] = counts[s] + counts[s - stride]
    + ... (count terms), for s < size.  Only those entries are allocated and
    summed."""

    def running(cls, length):
        # Running sum of the class minus the class shifted by `count`
        # places, stopped after `length` sums; the differences are made
        # lazily.
        return islice(accumulate(
            map(sub, chain(cls, repeat(0, count - 1)), chain(repeat(0, count), cls))
        ), length)

    size = min(size, len(counts) + stride * (count - 1))
    if stride == 1:
        # One class: no copy of it and no preallocated output to copy into.
        return list(running(counts, size))
    out = [0] * size
    for c in range(min(stride, size)):
        out[c::stride] = running(counts[c::stride], len(range(c, size, stride)))
    return out


def _fold(specs, g: int, top: int = sys.maxsize) -> tuple[list[int], int]:
    """Distribution of s = sum(stride_i * t_i), 0 <= t_i < count_i, over the
    box of the positive-stride `specs`, as (counts, g): counts[i] tuples have
    s = g * i, where g is the gcd of the strides and the given g.

    The strides fold largest first on multiples of the running gcd, widening
    only when it drops; the empty box is the single sum 0, a multiple of g.
    Each spread stops at the sums above `top` (no stride is negative), so
    counts is exact on s <= top and has at most top // g + 1 entries."""
    counts = [1]
    for stride, count in sorted(specs, reverse=True):
        g2 = math.gcd(g, stride)
        if g2 < g:
            wide = [0] * ((len(counts) - 1) * (g // g2) + 1)
            wide[:: g // g2] = counts
            counts, g = wide, g2
        counts = _spread(counts, stride // g, count, top // g + 1)
    return counts, g


def denumerant_formula(a: PartsList, n: int) -> int:
    """Exact closed-formula count of partitions of n with parts in `a`.

    Sums the rising product over residue tuples whose weighted sum s <= n
    is congruent to n modulo D, divided by (r-1)!.  `_fold` folds the parts
    but the smallest, up to s = n, on multiples of g, the gcd of those
    parts; each box entry is a strided window sum of that over the smallest
    part's range.  The result is the integer count, equal to
    `denumerant_dp(a, n)`.  ValueError when the fold would outgrow
    sys.maxsize entries; ArithmeticError if (r-1)! leaves a remainder.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    D = a.D
    r = len(a.parts)
    *folded, last = sorted(a.parts, reverse=True)
    if min(n, sum(D - p for p in folded)) // math.gcd(D, *folded) >= sys.maxsize:
        raise ValueError("the closed formula's box entries exceed sys.maxsize")
    counts, g = _fold([(p, D // p) for p in folded], D, n)
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
    count, remainder = divmod(total, math.factorial(r - 1))
    if remainder:
        raise ArithmeticError(f"closed formula produced a non-count: {total}/{r - 1}!")
    return count

