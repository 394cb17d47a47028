"""Reconstruction of a d-ary partition from its positional j-fold products,
plus the 0/1 window matrices whose determinants make the reconstruction
system uniquely solvable.

Taking base-d logarithms turns the positional products into a linear system
in the exponents; `exponent_of_power` is taken once per distinct product.
`_subsystem_tuples` lists the index tuples of one square subsystem (initial
window, punctured windows, sliding windows), and `build_c_matrix` is the
transposed incidence matrix of exactly those tuples, so the determinant
sweep `circulant_det_check` checks the system the solver uses: its
determinant is j, so it pins the exponents down.  It is solved in closed
form: its first j+1 equations give S - e_t for t = 1..j+1, where
S = e_1 + ... + e_{j+1}, so S is their sum divided by j, and each sliding
window then gives one new exponent.  The products are one list in
`combinations` order, with no index tuples: `_solve` reads each subsystem
tuple at its lex rank and checks the solution against every equation in one
pass over the j-fold sums of the exponents.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import (combinations, combinations_with_replacement, compress, count,
                       islice)
from math import comb
from operator import ne

from .dary import DAryPartition, _check_base, exponent_of_power
from .partitions import SubsetProductMap

__all__ = [
    "InconsistentData",
    "build_c_matrix",
    "det_exact",
    "circulant_det_check",
    "CirculantRow",
    "reconstruct_exponents",
    "verify_uniqueness",
    "UniquenessReport",
]


class InconsistentData(ValueError):
    """The product map does not come from any d-ary partition."""


def _subsystem_tuples(ell: int, j: int) -> list[tuple[int, ...]]:
    """The index tuples of the square subsystem, in matrix row order: the
    initial window 1..j, the punctured windows 1..j+1 without i-1 for
    2 <= i <= j+1, then the sliding windows i-j+1..i for i > j+1."""
    rows = [tuple(range(1, j + 1))]
    for i in range(2, j + 2):
        rows.append(tuple(t for t in range(1, j + 2) if t != i - 1))
    for i in range(j + 2, ell + 1):
        rows.append(tuple(range(i - j + 1, i + 1)))
    return rows


def build_c_matrix(n: int, j: int) -> tuple[tuple[int, ...], ...]:
    """The transposed incidence matrix of `_subsystem_tuples(n, j)`, as a
    tuple of n rows: column i marks the indices of the i-th tuple of the
    square subsystem that `reconstruct_exponents` solves."""
    if n < 2:
        raise ValueError("matrix size must be at least 2")
    if not 1 <= j <= n - 1:
        raise ValueError(f"window width must lie in 1..{n - 1}, got {j}")
    cols = []
    for tup in _subsystem_tuples(n, j):
        col = [0] * n
        for t in tup:
            col[t - 1] = 1
        cols.append(col)
    return tuple(zip(*cols))


def det_exact(rows: tuple[tuple[int, ...], ...]) -> int:
    """Exact determinant of an integer matrix given as a tuple of rows, by
    row-wise fraction-free (Bareiss) elimination with row pivoting: each
    step rebuilds, in one pass, the columns right of the pivot in every row
    below it.  Those rows drop their entry in the pivot's column, which the
    elimination makes zero and never reads again, so after step col every
    row below it starts at column col + 1."""
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ValueError("determinant needs a non-empty square matrix")
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((i for i in range(col, n) if a[i][0]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        p = top[0]
        tail = top[1:]
        # Each entry is a minor of the input, so every division is exact.
        for i in range(col + 1, n):
            row = a[i]
            f = row[0]
            if f:
                a[i] = [(x * p - f * y) // prev for x, y in zip(row[1:], tail)]
            elif p != prev:
                a[i] = [x * p // prev for x in row[1:]]
            else:
                del row[0]
        prev = p
    return sign * a[n - 1][0]


CirculantRow = namedtuple("CirculantRow", "n j det expected ok")


def circulant_det_check(n_max: int) -> tuple[CirculantRow, ...]:
    """Sweep det(build_c_matrix(n, j)) == j for 2 <= n <= n_max, all j: one
    row per (n, j), in ascending (n, j) order."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rows = []
    for n in range(2, n_max + 1):
        for j in range(1, n):
            det = det_exact(build_c_matrix(n, j))
            rows.append(CirculantRow(n, j, det, j, det == j))
    return tuple(rows)


def reconstruct_exponents(products: SubsetProductMap, d: int) -> DAryPartition:
    """Recover the d-ary partition whose positional products are given.

    Raises NotPowerOfD if any product is not an exact power of d, and
    InconsistentData if the first j+1 subsystem equations do not sum to a
    multiple of j, or if the solved exponents are negative, increasing, or
    violate any equation of the full product system."""
    return _solve(products.length, products.order, list(products.products.values()), d)


def _solve(ell: int, j: int, values: list[int], d: int) -> DAryPartition:
    """`reconstruct_exponents` of the C(ell, j) products `values`, given in
    `combinations` order: each tuple is read at its lex rank."""
    _check_base(d)
    if ell < 2:
        raise ValueError("length must be at least 2")
    if not 1 <= j <= ell - 1:
        raise ValueError(f"reconstruction needs order in 1..{ell - 1}, got {j}")
    # One exponent_of_power per distinct value, in order, so that
    # NotPowerOfD names the first bad product.
    exponent_of = {value: exponent_of_power(value, d) for value in dict.fromkeys(values)}
    # The lex rank of (c_0, ..., c_{j-1}) is C(ell, j) - 1 - sum C(ell - c_k, j - k).
    last = comb(ell, j) - 1
    ranks = (last - sum(comb(ell - c, j - k) for k, c in enumerate(t))
             for t in _subsystem_tuples(ell, j))
    rows = [exponent_of[values[rank]] for rank in ranks]
    # rows[0] is S - e_{j+1} and rows[t] is S - e_t for t = 1..j.
    head = sum(rows[: j + 1])
    total, rem = divmod(head, j)
    if rem:
        raise InconsistentData(
            f"the first {j + 1} window sums add up to {head}, "
            f"which is not a multiple of j = {j}"
        )
    exponents = [total - b for b in rows[1 : j + 1]] + [total - rows[0]]
    for b in rows[j + 1 :]:
        exponents.append(b - sum(exponents[len(exponents) - j + 1 :]))
    if any(e < 0 for e in exponents):
        raise InconsistentData(f"solved exponents are not counts: {exponents}")
    for a, b in zip(exponents, exponents[1:]):
        if a < b:
            raise InconsistentData(f"solved exponents increase: {exponents}")
    # Every j-fold sum in one pass; the violated tuple is built only on failure.
    at = next(compress(count(), map(ne, map(exponent_of.__getitem__, values),
                                    map(sum, combinations(exponents, j)))), None)
    if at is not None:
        violated = next(islice(combinations(range(1, ell + 1), j), at, None))
        raise InconsistentData(f"product equation violated at indices {violated}")
    return DAryPartition(d, tuple(exponents))


UniquenessReport = namedtuple(
    "UniquenessReport", "vectors_checked violations multiset_only"
)


def verify_uniqueness(d: int, ell: int, max_exp: int, j: int) -> UniquenessReport:
    """Exhaustive sweep over d-ary partitions with `ell` parts and exponents
    up to max_exp: no two may share their positional product map.

    `violations` lists the pairs of exponent vectors that do share it; the
    claim holds when there are none.  `multiset_only` lists the pairs that
    share only the multiset of products, as informational rows never
    asserted against.  Both are sorted."""
    _check_base(d)
    if ell < 2:
        raise ValueError("length must be at least 2")
    if max_exp < 0:
        raise ValueError("max_exp must be non-negative")
    if not 1 <= j <= ell - 1:
        raise ValueError(f"order must lie in 1..{ell - 1}, got {j}")
    # Equal positional products have equal multisets, so every pair of
    # either kind lies inside one multiset group.
    by_multiset = {}
    for combo in combinations_with_replacement(range(max_exp + 1), ell):
        vec = combo[::-1]
        sig = tuple(map(sum, combinations(vec, j)))
        by_multiset.setdefault(tuple(sorted(sig)), []).append((vec, sig))
    violations = []
    multiset_only = []
    for group in by_multiset.values():
        for (a, sig_a), (b, sig_b) in combinations(sorted(group), 2):
            (violations if sig_a == sig_b else multiset_only).append((a, b))
    violations.sort()
    multiset_only.sort()
    return UniquenessReport(sum(map(len, by_multiset.values())), tuple(violations),
                            tuple(multiset_only))
