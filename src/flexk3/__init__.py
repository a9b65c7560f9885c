"""Exact flex-divisor multiples of polarized K3 surfaces.

The flex divisor of a degree-2d polarized K3 surface lies in |n_d L| with
n_d = (2d+1) C(d)^2.  This package computes n_d by several independent
exact methods (closed form, factorial quotient, alternating double sum,
and Schubert-calculus intersection numbers), cross-validates them, and
compares the result against the Yau-Zaslow rational-curve multiples.
"""

import types

from .exact import binomial, catalan, exact_div
from .flexdeg import (
    FlexReport,
    cross_check,
    flex_report,
    nd_chern_monomial,
    nd_chern_schubert,
    nd_closed,
    nd_double_sum,
    nd_factorial,
)
from .qseries import (
    AsymReport,
    CrossoverReport,
    CrossoverRow,
    asym_flex,
    asym_yz,
    crossover,
    euler_power_neg24,
    euler_power_neg24_by_product,
    yz_multiple,
)
from .schubert import monomial_integral
from .truncpoly import chern_total

__version__ = "0.1.0"

# Every public global but the modules, so each name is written once, in its import.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
