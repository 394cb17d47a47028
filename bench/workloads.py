"""Seeded operation streams for the benchmark workloads.

An operation is one CLI argv list plus the data the oracle needs to check
its output.  Each workload repeats a block of operation kinds, shuffled by
the seed, so that every prefix of a stream has the same mix of kinds; the
seed draws the sizes inside each kind.  The caps keep every operation of
every seed inside a known cost band, so no seed brings an outlier.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

# Every workload repeats a block of ten kinds.  Each kind keeps its cost in
# a narrow band, and the block is laid out so that the median and the 90th
# percentile of a run fall inside one band (positions 5-6 and 9-10 of the
# block sorted by cost), not on the edge between two; this keeps both
# steady from seed to seed.  Costs below are cold, on a 2-core machine.

# wave-tables: weight construction grows like j**3 in the wave index j, so
# the d = 2 windows stop at D = 64 (n < 128, about 0.35 s) and d = 5 at
# D = 25 (n < 125); at D = 125 one table takes about 3 s.  Parts stop at
# 10 (lcm <= 504, 7-17 ms), so that the --parts kind stays below the median;
# with parts up to 20 it spans 7-70 ms, and the median moves with the seed.
WAVE_PARTS_TOP = 10
WAVE_N_MAX = 1000

# wave-sweep: one sweep checks n_max + 1 rows of waves.  A row costs about
# SWEEP_ROW_S . (r**2 sum(j), sum(j**2), number of j) over the divisors j,
# so n_max is chosen from the parts to put each sweep near a target time.
# Two sweeps of each block aim at twice the time, so that the 90th
# percentile falls inside their band and not in the tail of the others.
SWEEP_PARTS_TOP = 12
SWEEP_MAX_LCM = 60
SWEEP_N_RANGE = (60, 200)
SWEEP_ROW_S = (2.25e-6, 4.4e-6, 1.25e-5)
SWEEP_TARGET_S = 0.15
SWEEP_LONG_TARGET_S = 0.3

# counts-polypart: the closed formula builds a box of about r * D entries,
# the d-ary window one of about d**k, and the Bernoulli route enumerates
# C(2r - 1, r) compositions, so D, d**k and r are capped.  d = 2 stops at
# n < 2**14 (0.27 s, 26 MB) so that the Bernoulli routes at r = 8 stay the
# slowest kind.
COUNT_DP_MAX_LCM = 2520
COUNT_DP_N_RANGE = (50_000, 100_000)
COUNT_BOX_LCM_RANGE = (27_720, 30_030)  # with six parts: the peak RSS
COUNT_N_MAX = 100_000
POLY_PARTS_TOP = 12

# reconstruct: parsing dominates and grows with the C(ell, j) products; the
# largest kind has j = 3, ell <= 40, at most 9880 products.
RECON_BASES = (2, 3, 5)
RECON_MAX_EXP = 12


@dataclass(frozen=True)
class Op:
    """One CLI operation: `argv` for `partwaves.cli.main` and `expect`, the
    generator's own knowledge of the answer, for the oracle."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def _lcm_sample(rng, population, count, max_lcm):
    while True:
        parts = sorted(rng.sample(population, count))
        if math.lcm(*parts) <= max_lcm:
            return parts


def _divisors_of_parts(parts):
    return sorted({j for p in parts for j in range(1, p + 1) if p % j == 0})


def _csv(values):
    return ",".join(map(str, values))


# ---------------------------------------------------------------------------
# wave-tables


def _waves_dary(d, k):
    def make(rng):
        n = rng.randrange(d**k, d ** (k + 1))
        argv = ("waves", "--d", str(d), "--n", str(n), "--format", "json")
        return Op("waves", argv, {"parts": [d**i for i in range(k + 1)],
                                  "divisors": _divisors_of_parts([d**k]), "n": n})
    return make


def _waves_parts(rng):
    parts = sorted(rng.sample(range(2, WAVE_PARTS_TOP + 1), 3))
    n = rng.randint(0, WAVE_N_MAX)
    argv = ("waves", "--parts", _csv(parts), "--n", str(n), "--format", "json")
    return Op("waves", argv,
              {"parts": parts, "divisors": _divisors_of_parts(parts), "n": n})


# ---------------------------------------------------------------------------
# wave-sweep


def _sweep(target_s):
    def make(rng):
        low, high = SWEEP_N_RANGE
        while True:
            parts = _lcm_sample(rng, range(1, SWEEP_PARTS_TOP + 1), rng.randint(3, 6),
                                SWEEP_MAX_LCM)
            divisors = _divisors_of_parts(parts)
            features = (len(parts) ** 2 * sum(divisors), sum(j * j for j in divisors),
                        len(divisors))
            row_s = sum(c * f for c, f in zip(SWEEP_ROW_S, features))
            n_max = round(target_s / row_s)
            if low <= n_max <= high:
                break
        argv = ("verify", "--mode", "waves", "--parts", _csv(parts),
                "--n-max", str(n_max), "--format", "csv")
        return Op("sweep", argv, {"parts": parts, "divisors": divisors, "n_max": n_max})
    return make


# ---------------------------------------------------------------------------
# counts-polypart


def _count(sizes, lcm_range, n_range):
    def make(rng):
        while True:
            parts = sorted(rng.sample(range(2, 17), rng.choice(sizes)))
            if lcm_range[0] <= math.lcm(*parts) <= lcm_range[1]:
                break
        n = rng.randint(*n_range)
        argv = ("count", "--parts", _csv(parts), "--n", str(n), "--format", "json")
        return Op("count", argv, {"parts": parts, "n": n})
    return make


def _dary_count(bases, k):
    def make(rng):
        d = rng.choice(bases)
        n = rng.randrange(d**k, d ** (k + 1))
        argv = ("dary-count", "--d", str(d), "--n", str(n), "--format", "json")
        return Op("count", argv, {"parts": [d**i for i in range(k + 1)], "n": n})
    return make


def _dary_count_top(rng):
    # The largest window with d**k <= 2**14: 3**8 = 6561 or 5**6 = 15625.
    return rng.choice((_dary_count((3,), 8), _dary_count((5,), 6)))(rng)


def _poly_parts(r, max_lcm):
    def make(rng):
        parts = _lcm_sample(rng, range(1, POLY_PARTS_TOP + 1), r, max_lcm)
        argv = ("poly-part", "--parts", _csv(parts), "--format", "json")
        return Op("poly-part", argv, {"parts": parts})
    return make


def _poly_dary(k):
    def make(rng):
        argv = ("poly-part", "--d", "2", "--k", str(k), "--at", str(rng.randint(0, 10**6)),
                "--format", "json")
        return Op("poly-part", argv, {"parts": [2**i for i in range(k + 1)]})
    return make


# ---------------------------------------------------------------------------
# reconstruct


def _reconstruct(j, ell_range, corrupt=False):
    def make(rng):
        d = rng.choice(RECON_BASES)
        ell = rng.randint(*ell_range)
        exps = sorted((rng.randint(0, RECON_MAX_EXP) for _ in range(ell)), reverse=True)
        tuples = list(itertools.combinations(range(1, ell + 1), j))
        values = [d ** sum(exps[i - 1] for i in tup) for tup in tuples]
        if corrupt:
            # For 2 <= j <= ell - 2 the product system is overdetermined, so
            # scaling any one product by d leaves it without a solution.
            values[rng.randrange(len(values))] *= d
        products = ";".join(f"{_csv(tup)}:{v}" for tup, v in zip(tuples, values))
        argv = ("reconstruct", "--d", str(d), "--j", str(j), "--products", products,
                "--format", "json")
        if corrupt:
            return Op("reconstruct-corrupt", argv)
        return Op("reconstruct", argv, {"d": d, "exponents": exps})
    return make


def _presym(rng):
    ell = rng.randint(4, 12)
    parts = sorted((rng.randint(1, 30) for _ in range(ell)), reverse=True)
    j = rng.randint(1, ell)
    argv = ("presym", "--partition", _csv(parts), "--j", str(j), "--format", "json")
    return Op("presym", argv, {"parts": parts, "j": j})


def _circulant(rng):
    n_max = rng.randint(14, 18)
    argv = ("verify", "--mode", "circulant", "--n-max", str(n_max), "--format", "json")
    return Op("circulant", argv, {"n_max": n_max})


def _uniqueness(rng):
    d = rng.choice((2, 3))
    ell = rng.randint(3, 6)
    max_exp = rng.randint(1, 5)
    j = rng.randint(1, ell - 1)
    argv = ("verify", "--mode", "uniqueness", "--d", str(d), "--ell", str(ell),
            "--max-exp", str(max_exp), "--j", str(j), "--format", "json")
    return Op("uniqueness", argv, {"ell": ell, "max_exp": max_exp})


# One block per workload, listed in rising cost.
BLOCKS = {
    "wave-tables": (
        _waves_dary(2, 3), _waves_dary(3, 2), _waves_dary(2, 4), _waves_parts,
        _waves_dary(5, 2), _waves_dary(5, 2), _waves_dary(3, 3), _waves_dary(2, 5),
        _waves_dary(2, 6), _waves_dary(2, 6),
    ),
    "wave-sweep": (_sweep(SWEEP_TARGET_S),) * 8 + (_sweep(SWEEP_LONG_TARGET_S),) * 2,
    "counts-polypart": (
        _count((3, 4, 5, 6), (1, COUNT_DP_MAX_LCM), COUNT_DP_N_RANGE),
        _count((3, 4, 5, 6), (1, COUNT_DP_MAX_LCM), COUNT_DP_N_RANGE),
        _poly_parts(6, 840), _poly_dary(6), _dary_count_top, _poly_parts(7, 840),
        _count((6,), COUNT_BOX_LCM_RANGE, (1, COUNT_N_MAX)), _dary_count((2,), 13),
        _poly_parts(8, 120), _poly_dary(7),
    ),
    "reconstruct": (
        _uniqueness, _presym, _reconstruct(1, (8, 60)),
        _reconstruct(3, (12, 24), corrupt=True), _reconstruct(2, (20, 60), corrupt=True),
        _reconstruct(2, (20, 60)), _circulant, _reconstruct(3, (24, 30)),
        _reconstruct(3, (36, 40)), _reconstruct(3, (36, 40)),
    ),
}


def stream(workload: str, seed: int):
    """Endless operation stream of a workload; equal seeds give equal streams."""
    rng = random.Random(f"{workload}/{seed}")
    kinds = list(BLOCKS[workload])
    while True:
        rng.shuffle(kinds)
        for make in kinds:
            yield make(rng)
