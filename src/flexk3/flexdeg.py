"""Degree multiple n_d of the flex divisor, by five independent routes.

On a polarized K3 surface of degree 2d, the flex divisor is a multiple
n_d of the polarization class, with

    n_d = (2d + 1) * C(d)^2           (C(d) the d-th Catalan number)
        = (2d)! (2d+1)! / (d!^2 (d+1)!^2).

This module computes n_d five ways and cross-validates:

  1. nd_closed        the closed form above, its last 32 answers kept; C(2d, d)
                      by prime powers from d = 512, off a sieve made per call
  2. nd_factorial     the factorial quotient as (2d+1) R^2, where
                      R = (2d)_d/(d+1)! is one asserted division of a falling
                      factorial, its quotient far shorter than its divisor
  3. nd_double_sum    an alternating double binomial sum; the printed
                      formula evaluates to -n_d, so both the raw value
                      and the sign-resolved value are reported.  Its
                      inner sum over j has a closed form (Chu-Vandermonde),
                      which leaves d terms that step by one ratio: one
                      binomial, then per step one big-by-small product
                      and one small exact division
  4. nd_chern_monomial   intersection theory: expand the total Chern
                      class of the relevant tautological bundle, pair its
                      degree-(2d-1) part against sigma1; the monomial
                      integrals C(d-n) step down from one closed form
  5. nd_chern_schubert   the same pairing, its integrals read off one kept
                      sigma1 Pieri walk, no closed form (see its docstring)

ROUTES lists the five in this order, each by its --method name, its
FlexReport columns and its function's name: the one list behind the
CLI's --method, FlexReport._fields and flex_report.  It holds names, read
at call time, because the benchmark tracer and the tests patch the
module's attributes, which a table of functions would not see.

Routes 4 and 5 share the degree-(2d-1) Chern part, chern_total's d
coefficients (one binomial, then d-1 ratio steps), but integrate
independently: route 4 against a Catalan column (one closed-form
integral, then d ratio steps), route 5 off one kept schubert._sigma1_step
walk from s_(0,0), 2D steps over d = 1..D (nd_chern_schubert says why).
The step has no box; the box d only picks which coefficient is read.
The printed double sum is -n_d.  Route 3 checks that sign once against the
literals n_1..n_5 = 3, 20, 175, 1764, 19404 and then returns -raw; any other
value at d = 1..5 raises ArithmeticError, flagging the build as broken.

Routes 3, 4 and 5 add up the same d terms, whose sum is -n_d: with
c = chern_total(d), route 3's l-th term is c_(d-l) C(l), the Catalan number
C(l) that route 5's Pieri column also holds.  They differ only in how each
term is made: one merged ratio, c times a stepped Catalan column, or c times
a Pieri walk.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial, perm
from operator import mul

from .exact import _exact_div_short, _require_at_least, _show, catalan, exact_div
from .schubert import _sigma1_column, monomial_integral
from .truncpoly import chern_total

# --method name -> (its FlexReport columns, the last one its n_d; its function's name).
ROUTES = {
    "closed": (("n_closed",), "nd_closed"),
    "factorial": (("n_factorial",), "nd_factorial"),
    "sum": (("n_sum_raw", "n_sum_resolved"), "nd_double_sum"),
    "monomial": (("n_chern_monomial",), "nd_chern_monomial"),
    "schubert": (("n_chern_schubert",), "nd_chern_schubert"),
}
FlexReport = namedtuple(
    "FlexReport", ["d", *(column for columns, _ in ROUTES.values() for column in columns), "agree"]
)
FlexReport.__doc__ = """All method values for one d; agree covers the five resolved values.

A tuple: it unpacks and compares as one, and _fields names its columns
in order, the header of `flexk3 table`."""


@lru_cache(maxsize=32, typed=True)
def nd_closed(d: int) -> int:
    """(2d + 1) * C(d)^2.  The process keeps the last 32 distinct d, about 16 D bytes for
    d <= D (nd_closed.cache_info() counts the hits), so asym_flex, crossover and flex_report
    after nd_closed(d) read one build of C(d); typed keeps nd_closed(5.0) a TypeError."""
    _require_at_least(d, 1)
    return (2 * d + 1) * catalan(d) ** 2


def nd_factorial(d: int) -> int:
    """(2d)! (2d+1)! / (d!^2 (d+1)!^2), as (2d+1) R^2 with one asserted division.

    (2d+1)! = (2d+1) (2d)! and (d+1)! = (d+1) d!, so the printed quotient is
    (2d+1) R^2 with R = (2d)! / (d! (d+1)!) = (2d)_d / (d+1)!, the falling
    factorial (2d)_d = (2d)!/d! = math.perm(2d, d).  The route asserts that
    (d+1)! divides (2d)_d; then the printed denominator, (d! (d+1)!)^2,
    divides the printed numerator (2d+1) ((2d)!)^2, so the printed division
    is exact too.  The operands have about d log2 d bits, R about 2d, so
    _exact_div_short divides in O(d^2) bit operations and one lopsided product,
    not schoolbook's O(d^2 log d): 0.5 s at d = 10^5, then one square of R.
    With no binomial, Catalan number or cancellation, it shares nothing with
    nd_closed.
    """
    _require_at_least(d, 1)
    root = _exact_div_short(perm(2 * d, d), factorial(d + 1))
    return (2 * d + 1) * root * root


def _double_sum_raw(d: int) -> int:
    """Evaluate the alternating double sum as printed, its inner sum in closed form.

    sum over 0 <= j <= d, 1 <= l <= d - j of
        (-1)^(j+1) C(4d+2, j) C(3d-j, 2d+l) C(2d+l, 2l-1) C(2l, l) / (l+1)

    The last two factors are the Catalan number C(l), so every term is an
    integer.  For fixed l the j-sum is a Chu-Vandermonde convolution:
    C(3d-j, 2d+l) = [x^(d-l-j)] (1-x)^-(2d+l+1), so summing
    (-1)^j C(4d+2, j) x^j against it gives [x^(d-l)] (1-x)^(2d+1-l)
    = (-1)^(d-l) C(2d+1-l, d-l), and the coefficient vanishes for
    j > d - l exactly where the printed range stops.  Hence

        raw(d) = sum_{l=1..d} (-1)^(d-l+1) C(2d+1-l, d-l) C(2d+l, 2l-1) C(l),

    whose l-th term is the printed terms of that l summed over j.  Its
    three factors step by the term ratios (d-l)/(2d+1-l),
    (2d+l+1)(2d-l+1)/(2l (2l+1)) and 2(2l+1)/(l+2).  In their product
    (2d+1-l) and 2(2l+1) cancel, so the unsigned term steps as one from
    T(1) = C(2d, d-1) (2d+1), its sign flipping at every step:

        T(l+1) = T(l) (d-l)(2d+l+1) / (l (l+2)),

    one product of the big term by a small factor and one asserted exact
    division by l(l+2) <= d^2 - 1, below 2^30 (one CPython digit) for
    d <= 32,768: O(d^2) bit operations in all (0.03 s at d = 4000, 0.11 s
    at d = 8000), where the printed double sum costs O(d^2 M(d)), M(d) one
    product of O(d)-bit integers.
    """
    total = term = comb(2 * d, d - 1) * (-2 * d - 1 if d % 2 else 2 * d + 1)  # l = 1
    for ell in range(1, d):
        term = exact_div(term * -((d - ell) * (2 * d + ell + 1)), ell * (ell + 2))
        total += term
    return total


@lru_cache(maxsize=1)
def _double_sum_sign() -> int:
    """Check once that the double sum gives -n_1..-n_5 = -3, -20, -175, -1764, -19404.

    The targets are literals, not a route, so a faulty route shows as a
    disagreement whatever the call order.
    """
    raws = [_double_sum_raw(d) for d in range(1, 6)]
    if raws != [-3, -20, -175, -1764, -19404]:
        raise ArithmeticError(f"double sum for d=1..5 gives {raws}, not -n_1..-n_5")
    return -1


def nd_double_sum(d: int) -> tuple[int, int]:
    """Return (raw, resolved): the printed sum and the sign-corrected value."""
    _require_at_least(d, 1)
    raw = _double_sum_raw(d)
    return raw, _double_sum_sign() * raw


def nd_chern_monomial(d: int) -> int:
    """Pair sigma1 against the degree-(2d-1) Chern part via monomial integrals.

    n_d = - integral of sigma1 * c_(2d-1), the coefficient c_n of s1^(2d-1-2n)
    s2^n contributing c_n times the integral of s1^(2d-2n) s2^n, C(d-n): C(d)
    = monomial_integral(2d, 0, d), stepped by C(h-1) = C(h) (h+1)/(2(2h-1)),
    exact divisions that must end at C(0) = 1, else ArithmeticError.  The start
    is nd_factorial's root by the same call, as both are C(d) by design; it refuses d < 1.
    """
    integral = monomial_integral(2 * d, 0, d)
    total = 0
    for h, coef in zip(range(d, 0, -1), chern_total(d)):
        total += coef * integral
        integral = exact_div(integral * (h + 1), 2 * (2 * h - 1))
    if integral != 1:
        raise ArithmeticError(f"Catalan column of d={d} ends at {_show(integral)}, not C(0) = 1")
    return -total


def nd_chern_schubert(d: int) -> int:
    """Same pairing as nd_chern_monomial, integrated in the Schubert basis.

    The integral of sigma1^(2j) sigma2^(d-j) over the box-d Grassmannian is
    the coefficient of s_(j,j) in sigma1^(2j): a Pieri path from
    sigma2^(d-j) = s_(d-j,d-j) to s_(d,d) never leaves the box (its first row
    only grows, to d) and is one from s_(0,0) to s_(j,j) moved d-j columns.
    So one unboxed walk, kept by the process, gives them: 2d sigma1 steps cold,
    and 2D, O(D^2) additions, over d = 1..D.  chern_total refuses d < 1.
    """
    return -sum(map(mul, chern_total(d), _sigma1_column(d)[d:0:-1]))


def flex_report(d: int) -> FlexReport:
    """Run every route of ROUTES for one d and record whether their n_d all agree."""
    row, found, scope = [d], set(), globals()
    for columns, name in ROUTES.values():
        value = scope[name](d)
        row += value if len(columns) > 1 else (value,)
        found.add(row[-1])
    return FlexReport(*row, len(found) == 1)


def cross_check(d_lo: int, d_hi: int) -> list[FlexReport]:
    """Reports for d in [d_lo, d_hi]; raises ValueError on a bad range."""
    _require_at_least(d_lo, 1)
    if d_hi < d_lo:
        raise ValueError(f"empty range [{_show(d_lo)}, {_show(d_hi)}]")
    return [flex_report(d) for d in range(d_lo, d_hi + 1)]

