"""Degree multiple n_d of the flex divisor, by five independent routes.

On a polarized K3 surface of degree 2d, the flex divisor is a multiple
n_d of the polarization class, with

    n_d = (2d + 1) * C(d)^2           (C(d) the d-th Catalan number)
        = (2d)! (2d+1)! / (d!^2 (d+1)!^2).

This module computes n_d five ways and cross-validates:

  1. nd_closed        the closed form above; C(2d, d) by prime powers from d = 512
  2. nd_factorial     the factorial quotient as (2d+1) R^2, where
                      R = (2d)!/((d+1) d!^2) is one asserted division of
                      half the printed size; two factorials
  3. nd_double_sum    an alternating double binomial sum; the printed
                      formula evaluates to a consistent sign times n_d,
                      so both the raw value and the sign-resolved value
                      are reported.  Its inner sum over j has a closed
                      form (Chu-Vandermonde), which leaves d terms that
                      step by one ratio: one binomial, then per step one
                      big-by-small product and one small exact division
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
The sign of the double sum is not trusted a priori: it is calibrated once
against the closed form on d = 1..5 and must be consistent across that
range, otherwise an ArithmeticError flags the build as broken.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial
from operator import mul

from .exact import catalan, exact_div
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


def _require_positive(d: int) -> None:
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")


def nd_closed(d: int) -> int:
    """(2d + 1) * C(d)^2."""
    _require_positive(d)
    return (2 * d + 1) * catalan(d) ** 2


def nd_factorial(d: int) -> int:
    """(2d)! (2d+1)! / (d!^2 (d+1)!^2), as (2d+1) R^2 with one asserted division.

    (2d+1)! = (2d+1) (2d)! and (d+1)! = (d+1) d!, so the printed quotient
    is (2d+1) R^2 with R = (2d)! / ((d+1) d!^2).  The route asserts that
    (d+1) d!^2 divides (2d)!; then the printed denominator, its square,
    divides the printed numerator (2d+1) ((2d)!)^2, so the printed
    division is exact too.  It costs two factorials, the square d!^2,
    one division of half the printed size (about a quarter of the
    schoolbook digit operations) and one square of the ~2d-bit root.  It
    takes no binomial, no Catalan number and no cancellation, so it shares
    nothing with nd_closed.
    """
    _require_positive(d)
    root = exact_div(factorial(2 * d), (d + 1) * factorial(d) ** 2)
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

    one product of the big term by a small factor and one small asserted
    exact division: O(d^2) bit operations in all (0.03 s at d = 4000, 0.11 s
    at d = 8000).  Stepping the three factors apart and multiplying them at
    every term cost O(d M(d)), M(d) one product of O(d)-bit integers (0.44 s
    and 2.9 s); the printed double sum costs O(d^2 M(d)).
    """
    total = term = comb(2 * d, d - 1) * (-2 * d - 1 if d % 2 else 2 * d + 1)  # l = 1
    for ell in range(1, d):
        term = exact_div(term * -((d - ell) * (2 * d + ell + 1)), ell * (ell + 2))
        total += term
    return total


@lru_cache(maxsize=1)
def _double_sum_sign() -> int:
    """Calibrate the overall sign of the double sum against nd_closed.

    Checked on d = 1..5; the sign must be the same for all five values.
    """
    signs = set()
    for d in range(1, 6):
        raw = _double_sum_raw(d)
        target = nd_closed(d)
        if raw == target:
            signs.add(1)
        elif raw == -target:
            signs.add(-1)
        else:
            raise ArithmeticError(
                f"double sum for d={d} gives {raw}, neither {target} nor {-target}"
            )
    if len(signs) != 1:
        raise ArithmeticError(f"double sum sign is not consistent on d=1..5: {signs}")
    return signs.pop()


def nd_double_sum(d: int) -> tuple[int, int]:
    """Return (raw, resolved): the printed sum and the sign-corrected value."""
    _require_positive(d)
    raw = _double_sum_raw(d)
    return raw, _double_sum_sign() * raw


def nd_chern_monomial(d: int) -> int:
    """Pair sigma1 against the degree-(2d-1) Chern part via monomial integrals.

    n_d = - integral of sigma1 * c_(2d-1), the coefficient c_n of s1^(2d-1-2n)
    s2^n contributing c_n times the integral of s1^(2d-2n) s2^n, C(d-n): C(d)
    = monomial_integral(2d, 0, d), stepped by C(h-1) = C(h) (h+1)/(2(2h-1)),
    exact divisions that must end at C(0) = 1, else ArithmeticError.
    """
    _require_positive(d)
    integral = monomial_integral(2 * d, 0, d)
    total = 0
    for h, coef in zip(range(d, 0, -1), chern_total(d)):
        total += coef * integral
        integral = exact_div(integral * (h + 1), 2 * (2 * h - 1))
    if integral != 1:
        raise ArithmeticError(f"Catalan column of d={d} ends at {integral}, not C(0) = 1")
    return -total


def nd_chern_schubert(d: int) -> int:
    """Same pairing as nd_chern_monomial, integrated in the Schubert basis.

    The integral of sigma1^(2j) sigma2^(d-j) over the box-d Grassmannian is
    the coefficient of s_(j,j) in sigma1^(2j): a Pieri path from
    sigma2^(d-j) = s_(d-j,d-j) to s_(d,d) never leaves the box (its first row
    only grows, to d) and is one from s_(0,0) to s_(j,j) moved d-j columns.
    One walk kept by the process gives them: 2d sigma1 steps cold, and 2D,
    O(D^2) additions, over d = 1..D, where a sweep per d made O(D^3).
    """
    _require_positive(d)
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
    _require_positive(d_lo)
    if d_hi < d_lo:
        raise ValueError(f"empty range [{d_lo}, {d_hi}]")
    return [flex_report(d) for d in range(d_lo, d_hi + 1)]

