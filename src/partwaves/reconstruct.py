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
window then gives one new exponent.  The solution is validated against
every remaining equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .dary import DAryPartition, _check_base, exponent_of_power
from .partitions import SubsetProductMap

__all__ = [
    "InconsistentData",
    "IntMatrix",
    "build_c_matrix",
    "det_exact",
    "circulant_det_check",
    "CirculantRow",
    "CirculantReport",
    "reconstruct_exponents",
    "verify_uniqueness",
    "UniquenessReport",
]


class InconsistentData(ValueError):
    """The product map does not come from any d-ary partition."""


class IntMatrix:
    """A rectangular integer matrix stored as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must have equal length")
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0])

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"


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


def build_c_matrix(n: int, j: int) -> IntMatrix:
    """The transposed incidence matrix of `_subsystem_tuples(n, j)`: column
    i marks the indices of the i-th tuple of the square subsystem that
    `reconstruct_exponents` solves."""
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
    return IntMatrix(tuple(zip(*cols)))


def det_exact(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free elimination with row pivoting."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    n = matrix.rows
    a = [list(row) for row in matrix.entries]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for i in range(col + 1, n):
            for t in range(col + 1, n):
                a[i][t] = (a[i][t] * a[col][col] - a[i][col] * a[col][t]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class CirculantRow:
    n: int
    j: int
    det: int
    expected: int
    ok: bool


@dataclass(frozen=True)
class CirculantReport:
    n_max: int
    rows: tuple[CirculantRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def circulant_det_check(n_max: int) -> CirculantReport:
    """Sweep det(build_c_matrix(n, j)) == j for 2 <= n <= n_max, all j."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rows = []
    for n in range(2, n_max + 1):
        for j in range(1, n):
            det = det_exact(build_c_matrix(n, j))
            rows.append(CirculantRow(n, j, det, j, det == j))
    return CirculantReport(n_max, tuple(rows))


def reconstruct_exponents(products: SubsetProductMap, d: int) -> DAryPartition:
    """Recover the d-ary partition whose positional products are given.

    Raises NotPowerOfD if any product is not an exact power of d, and
    InconsistentData if the first j+1 subsystem equations do not sum to a
    multiple of j, or if the solved exponents are negative, increasing, or
    violate any equation of the full product system."""
    _check_base(d)
    ell = products.length
    j = products.order
    if not 1 <= j <= ell - 1:
        raise ValueError(f"reconstruction needs order in 1..{ell - 1}, got {j}")
    # One exponent_of_power per distinct value, in item order, so that
    # NotPowerOfD names the first bad product.
    exponent_of = {
        value: exponent_of_power(value, d)
        for value in dict.fromkeys(value for _, value in products.items())
    }
    logs = {tup: exponent_of[value] for tup, value in products.items()}
    rows = [logs[t] for t in _subsystem_tuples(ell, j)]
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
    for tup, c in logs.items():
        if sum(exponents[i - 1] for i in tup) != c:
            raise InconsistentData(f"product equation violated at indices {tup}")
    return DAryPartition(d, tuple(exponents))


@dataclass(frozen=True)
class UniquenessReport:
    d: int
    length: int
    max_exponent: int
    order: int
    vectors_checked: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    multiset_only: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_uniqueness(d: int, ell: int, max_exp: int, j: int) -> UniquenessReport:
    """Exhaustive sweep over d-ary partitions with `ell` parts and exponents
    up to max_exp: no two may share their positional product map.

    Violations of positional uniqueness are asserted data (the report is not
    ok if any exist).  Pairs that share only the multiset of products are
    collected as informational rows and never asserted against."""
    _check_base(d)
    if ell < 2:
        raise ValueError("length must be at least 2")
    if max_exp < 0:
        raise ValueError("max_exp must be non-negative")
    if not 1 <= j <= ell - 1:
        raise ValueError(f"order must lie in 1..{ell - 1}, got {j}")
    vectors = sorted(
        tuple(reversed(combo))
        for combo in combinations_with_replacement(range(max_exp + 1), ell)
    )
    index_tuples = list(combinations(range(1, ell + 1), j))
    signatures = {}
    by_positional = {}
    by_multiset = {}
    for vec in vectors:
        sig = tuple(sum(vec[i - 1] for i in tup) for tup in index_tuples)
        signatures[vec] = sig
        by_positional.setdefault(sig, []).append(vec)
        by_multiset.setdefault(tuple(sorted(sig)), []).append(vec)
    violations = []
    for sig in sorted(by_positional):
        group = by_positional[sig]
        for a, b in combinations(group, 2):
            violations.append((a, b))
    multiset_only = []
    for msig in sorted(by_multiset):
        group = by_multiset[msig]
        for a, b in combinations(group, 2):
            if signatures[a] != signatures[b]:
                multiset_only.append((a, b))
    violations.sort()
    multiset_only.sort()
    return UniquenessReport(
        d, ell, max_exp, j, len(vectors), tuple(violations), tuple(multiset_only)
    )
