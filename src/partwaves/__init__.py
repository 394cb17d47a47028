"""Exact restricted-partition counts, Sylvester wave decompositions, and
base-d partition tools.

Everything is computed in exact arithmetic: integers, `fractions.Fraction`,
and, for the audit-only literal wave variant, an exact cyclotomic-number
type for roots of unity.  The closed counting
formula, its polynomial part (by two independent routes), the wave
decomposition over divisors, the base-d specialisations, and the
reconstruction of a base-d partition from positional products are all
cross-checked against brute-force oracles in the test suite.

Each module's `__all__` lists the public names it defines; the package
re-exports them in module order.
"""

from . import dary, exact, partitions, quasipoly, reconstruct, waves
from .exact import *
from .partitions import *
from .quasipoly import *
from .waves import *
from .dary import *
from .reconstruct import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *exact.__all__,
    *partitions.__all__,
    *quasipoly.__all__,
    *waves.__all__,
    *dary.__all__,
    *reconstruct.__all__,
]
