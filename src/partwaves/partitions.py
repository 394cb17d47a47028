"""Partition data model, the DP counting oracle and the elementary symmetric
partition operations.

`denumerant_dp` is the ground truth the closed formulas elsewhere in the
package are checked against: it counts partitions with parts restricted to a
fixed list by the classic coin-counting dynamic program, run only on the
residue classes the one count reads, and it imports nothing from them.  The
parts are added in an order where G, the gcd of the parts still to come,
grows fast (G = d**i on a d-ary window), only the sums congruent to n modulo
G are kept, and each part is added as running sums per residue class of its
stride.  `denumerant_series` is the plain DP over every sum up to n_max.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import accumulate, combinations

__all__ = [
    "Partition",
    "PartsList",
    "SubsetProductMap",
    "denumerant_series",
    "denumerant_dp",
    "elementary_symmetric_value",
    "elementary_symmetric_partition",
    "positional_products",
]


class Partition:
    """A non-increasing sequence of positive integers; may be empty."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = tuple(map(operator.index, parts))
        for i, p in enumerate(ps):
            if p < 1:
                raise ValueError("partition parts must be positive")
            if i and ps[i - 1] < p:
                raise ValueError("partition parts must be non-increasing")
        self.parts = ps

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({self.parts!r})"


class PartsList:
    """Distinct allowed part sizes, kept in the order given.

    `D` is the least common multiple of the entries; it is the common period
    used by all the closed formulas.
    """

    __slots__ = ("parts", "D")

    def __init__(self, parts):
        ps = tuple(map(operator.index, parts))
        if not ps:
            raise ValueError("at least one part size is required")
        if any(p < 1 for p in ps):
            raise ValueError("part sizes must be positive")
        if len(set(ps)) != len(ps):
            raise ValueError("part sizes must be pairwise distinct")
        self.parts = ps
        self.D = math.lcm(*ps)

    def __eq__(self, other):
        if isinstance(other, PartsList):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"PartsList({self.parts!r})"


class SubsetProductMap:
    """Positional products of a partition: every strictly increasing index
    tuple of a fixed order mapped to the product of the parts it selects.

    Indices are 1-based.  The map is complete: it holds all C(length, order)
    tuples, in `combinations` order, which is sorted order.  Being
    position-indexed it is strictly finer than the multiset of products.
    """

    __slots__ = ("length", "order", "products")

    def __init__(self, length: int, order: int, products):
        if length < 1:
            raise ValueError("length must be positive")
        if not 1 <= order <= length:
            raise ValueError(f"order must lie in 1..{length}, got {order}")
        # Every key is converted before any value, so a float index is refused
        # first; equal converted keys collapse and the later one wins.
        keys = [tuple(map(operator.index, key)) for key in products]
        values = list(map(operator.index, products.values()))
        if min(values, default=1) < 1:
            raise ValueError("products must be positive")
        cleaned = dict(zip(keys, values))
        count = math.comb(length, order)
        # With the sizes equal, the keys are exactly the valid tuples when
        # filling them into the combinations, in that order, adds no key.
        ordered = {}
        if len(cleaned) == count:
            ordered = dict.fromkeys(combinations(range(1, length + 1), order))
            ordered.update(cleaned)
        if len(ordered) != count:
            # Name the first bad key, 0 < key[0] < ... < key[-1] < length + 1,
            # checked one by one, so a map of the wrong size never builds
            # C(length, order) tuples; with none bad, the count is wrong.
            for key in keys:
                bounded = (0, *key, length + 1)
                if len(key) != order or any(a >= b for a, b in zip(bounded, bounded[1:])):
                    raise ValueError(
                        f"index tuple {key} is not an increasing {order}-tuple "
                        f"of 1..{length}"
                    )
            raise ValueError(f"expected {count} index tuples, got {len(cleaned)}")
        self.length, self.order, self.products = length, order, ordered

    def items(self):
        return self.products.items()

    def __eq__(self, other):
        if isinstance(other, SubsetProductMap):
            return (
                self.length == other.length
                and self.order == other.order
                and self.products == other.products
            )
        return NotImplemented

    def __repr__(self):
        return (
            f"SubsetProductMap(length={self.length}, order={self.order}, "
            f"products={self.products!r})"
        )


def denumerant_series(a: PartsList, n_max: int) -> list[int]:
    """Counts of restricted partitions of 0..n_max (coin-counting DP)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    ways = [0] * (n_max + 1)
    ways[0] = 1
    for p in a.parts:
        for m in range(p, n_max + 1):
            ways[m] += ways[m - p]
    return ways


def _dp_order(parts) -> list[int]:
    """The order in which `denumerant_dp` adds the parts: greedily, the part
    whose removal leaves the largest gcd of the rest, ties going to the part
    with the smallest sum of gcds with the rest."""
    rest = list(parts)
    order = []
    while rest:
        keys = []
        for p in rest:
            others = [q for q in rest if q != p]
            keys.append((-math.gcd(*others), sum(math.gcd(p, q) for q in others)))
        order.append(rest.pop(keys.index(min(keys))))
    return order


def denumerant_dp(a: PartsList, n: int) -> int:
    """Number of partitions of n with parts in `a`; the package-wide oracle.

    The coin DP on the sums the count of n reads.  The parts are added in
    `_dp_order`; once a part is added, only the sums m = n (mod G) are kept,
    G the gcd of the parts still to come, ascending as m = n % G + G*u, so a
    coarser G is one slice ending at n.  The first part is an indicator, a
    middle part p running sums over each class of u mod p/G, the last a sum.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    first, *rest = order = _dp_order(a.parts)
    g = math.gcd(*order)
    if n % g:
        return 0
    if not rest:
        return 1
    G = math.gcd(*rest)
    if n // G + 1 > sys.maxsize:
        raise ValueError(f"the DP oracle's n // {G} + 1 entries exceed sys.maxsize")
    # first divides m exactly when n // G - u = n/g * (G/g)^-1 mod first/g.
    step = first // g
    start = (n // G - n // g * pow(G // g, -1, step)) % step
    ways = [0] * (n // G + 1)
    ways[start::step] = [1] * len(range(start, len(ways), step))
    for i, p in enumerate(rest[:-1], 1):
        s = p // G
        for c in range(min(s, len(ways) - s)):
            ways[c::s] = accumulate(ways[c::s])
        k = math.gcd(*rest[i:]) // G
        if k > 1:
            ways, G = ways[(len(ways) - 1) % k :: k], G * k
    return sum(ways)


def elementary_symmetric_value(lam: Partition, j: int) -> int:
    """Elementary symmetric function of the parts; 0 when j exceeds the length."""
    if j < 1:
        raise ValueError("j must be positive")
    if lam.length < j:
        return 0
    e = [1] + [0] * j
    seen = 0
    for p in lam.parts:
        seen += 1
        for t in range(min(j, seen), 0, -1):
            e[t] += p * e[t - 1]
    return e[j]


def _subset_products(lam: Partition, j: int) -> list[int]:
    """The j-fold products of the parts of `lam`, in `combinations` order."""
    if not 1 <= j <= lam.length:
        raise ValueError(f"j must lie in 1..{lam.length}, got {j}")
    return list(map(math.prod, combinations(lam.parts, j)))


def elementary_symmetric_partition(lam: Partition, j: int) -> Partition:
    """Partition formed by all j-fold products of parts of `lam`."""
    return Partition(sorted(_subset_products(lam, j), reverse=True))


def positional_products(lam: Partition, j: int) -> SubsetProductMap:
    """Position-indexed j-fold products of `lam` (1-based index tuples)."""
    return SubsetProductMap(lam.length, j, dict(zip(
        combinations(range(1, lam.length + 1), j), _subset_products(lam, j))))
