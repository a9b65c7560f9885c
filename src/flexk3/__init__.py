"""Exact flex-divisor multiples of polarized K3 surfaces.

The flex divisor of a degree-2d polarized K3 surface lies in |n_d L| with
n_d = (2d+1) C(d)^2.  This package computes n_d by several independent
exact methods (closed form, factorial quotient, alternating double sum,
and Schubert-calculus intersection numbers), cross-validates them, and
compares the result against the Yau-Zaslow rational-curve multiples.
"""

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

__all__ = [
    "AsymReport",
    "CrossoverReport",
    "CrossoverRow",
    "FlexReport",
    "asym_flex",
    "asym_yz",
    "binomial",
    "catalan",
    "chern_total",
    "cross_check",
    "crossover",
    "euler_power_neg24",
    "euler_power_neg24_by_product",
    "exact_div",
    "flex_report",
    "monomial_integral",
    "nd_chern_monomial",
    "nd_chern_schubert",
    "nd_closed",
    "nd_double_sum",
    "nd_factorial",
    "yz_multiple",
]
