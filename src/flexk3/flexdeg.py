"""Degree multiple n_d of the flex divisor, by five independent routes.

On a polarized K3 surface of degree 2d, the flex divisor is a multiple
n_d of the polarization class, with

    n_d = (2d + 1) * C(d)^2           (C(d) the d-th Catalan number)
        = (2d)! (2d+1)! / (d!^2 (d+1)!^2).

This module computes n_d five ways and cross-validates:

  1. nd_closed        the Catalan closed form above
  2. nd_factorial     the factorial quotient, division asserted exact;
                      (2d)! and d! are built once each, so it costs two
                      factorials
  3. nd_double_sum    an alternating double binomial sum; the printed
                      formula evaluates to a consistent sign times n_d,
                      so both the raw value and the sign-resolved value
                      are reported.  Its binomials C(3d-j, 2d+l) are
                      stepped as rows of Pascal's triangle: d^2/2 C-level
                      additions and d^2/2 big products
  4. nd_chern_monomial   intersection theory: expand the total Chern
                      class of the relevant tautological bundle, pair its
                      degree-(2d-1) part against sigma1 using the
                      closed-form monomial integrals
  5. nd_chern_schubert   the same pairing evaluated by a Horner sweep in
                      the Schubert basis, no closed-form integrals

Routes 4 and 5 share the degree-(2d-1) Chern part, which chern_total
gives in closed form (d terms, one product of two binomials each), but
integrate independently: route 5 is a Horner sweep of 2d sigma1 steps
(schubert._sigma1_step, the package's one Pieri engine) on one graded
piece kept as a plain list: O(d) Python-level operations, with the
O(d^2) coefficient additions done at C level (one Pieri walk per
monomial would cost O(d^3) term updates).
The sign of the double sum is not trusted a priori: it is calibrated once
against the closed form on d = 1..5 and must be consistent across that
range, otherwise an ArithmeticError flags the build as broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from operator import add, mul

from .exact import catalan, exact_div
from .schubert import _sigma1_step, monomial_integral
from .truncpoly import chern_total


@dataclass(frozen=True)
class FlexReport:
    """All method values for one d; agree covers the five resolved values."""

    d: int
    n_closed: int
    n_factorial: int
    n_sum_raw: int
    n_sum_resolved: int
    n_chern_monomial: int
    n_chern_schubert: int
    agree: bool


def _require_positive(d: int) -> None:
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")


def nd_closed(d: int) -> int:
    """(2d + 1) * C(d)^2."""
    _require_positive(d)
    return (2 * d + 1) * catalan(d) ** 2


def nd_factorial(d: int) -> int:
    """(2d)! (2d+1)! / (d!^2 (d+1)!^2), division asserted exact.

    (2d)! and d! are each built once, and (2d+1)! = (2d+1) (2d)! and
    (d+1)! = (d+1) d! are small multiples of them, so the numerator is
    (2d+1) ((2d)!)^2 and the denominator ((d+1) (d!)^2)^2.  The route
    costs two factorials, three squares and the one asserted division of
    the printed numerator by the printed denominator.  It takes no
    binomial, no Catalan number and no cancellation, so it shares nothing
    with nd_closed.
    """
    _require_positive(d)
    fact_2d = factorial(2 * d)
    fact_d = factorial(d)
    num = (2 * d + 1) * fact_2d ** 2
    den = ((d + 1) * fact_d ** 2) ** 2
    return exact_div(num, den)


def _double_sum_raw(d: int) -> int:
    """Evaluate the alternating double sum exactly as printed.

    sum over 0 <= j <= d, 1 <= l <= d - j of
        (-1)^(j+1) C(4d+2, j) C(3d-j, 2d+l) C(2d+l, 2l-1) C(2l, l) / (l+1)

    The last two factors are the Catalan number C(l), so every term is an
    integer and the sum needs no rationals.  C(2d+l, 2l-1) C(l) does not
    depend on j, so it is built once.  The heads C(3d-j, 2d+l), l = 0..d-j,
    are one row of Pascal's triangle, and the row for j comes from the row
    for j + 1 by Pascal's rule: one C-level pass of additions, one binomial
    for the l = 0 edge and the 1 at the far edge.  So the sweep runs j = d
    down to 0 (j = d has no terms), and each term costs one product and no
    binomial: d^2/2 C-level additions, d^2/2 big products and 3d binomials
    in all.  The terms are the printed ones, so the raw value is the same
    integer.
    """
    tail = [comb(2 * d + ell, 2 * ell - 1) * catalan(ell) for ell in range(1, d + 1)]
    total = 0
    row = [1]  # C(2d, 2d + l) for j = d: the only head is l = 0
    for j in range(d - 1, -1, -1):
        row = [comb(3 * d - j, 2 * d)] + list(map(add, row[1:], row[:-1])) + [1]
        sign = -1 if j % 2 == 0 else 1
        total += sign * comb(4 * d + 2, j) * sum(map(mul, row[1:], tail))
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

    n_d = - integral of sigma1 * c_(2d-1), each monomial s1^m * s2^n of
    c_(2d-1) contributing its coefficient times the closed-form integral
    of s1^(m+1) * s2^n.
    """
    _require_positive(d)
    total = 0
    for m, n, coef in chern_total(d):
        total += coef * monomial_integral(m + 1, n, d)
    return -total


def _sigma1_square_horner(d: int, coefs: list[int]) -> int:
    """Integral of sum_n coefs[n] * sigma1^(2d-2n) * sigma2^n, n = 0..d-1.

    Horner in sigma1^2 over the Schubert basis: acc <- sigma1^2 * acc +
    coefs[n] * s_(n,n), where s_(n,n) = sigma2^n, then one more sigma1^2
    and the top-class coefficient.  acc is always a single graded piece,
    so it is a plain list (see schubert._sigma1_step): 2d list steps, O(d)
    Python-level operations, the O(d^2) element additions done at C level.
    """
    acc = [coefs[0]]
    for n in range(1, d):
        acc = _sigma1_step(_sigma1_step(acc, 2 * n - 2, d), 2 * n - 1, d)
        acc[n] += coefs[n]
    return _sigma1_step(_sigma1_step(acc, 2 * d - 2, d), 2 * d - 1, d)[d]


def nd_chern_schubert(d: int) -> int:
    """Same pairing as nd_chern_monomial, integrated in the Schubert basis.

    sigma1 * c_(2d-1) = sum_n c_n * sigma1^(2d-2n) * sigma2^n, with c_n the
    coefficient of s1^(2d-1-2n) * s2^n, is pushed through the Pieri
    operators in one Horner sweep and read off at the top class.
    """
    _require_positive(d)
    coefs = [0] * d
    for _, n, coef in chern_total(d):
        coefs[n] = coef
    return -_sigma1_square_horner(d, coefs)


def flex_report(d: int) -> FlexReport:
    """Compute every method for one d and record whether they all agree."""
    _require_positive(d)
    closed = nd_closed(d)
    fact = nd_factorial(d)
    raw, resolved = nd_double_sum(d)
    monomial = nd_chern_monomial(d)
    operator = nd_chern_schubert(d)
    agree = closed == fact == resolved == monomial == operator
    return FlexReport(d, closed, fact, raw, resolved, monomial, operator, agree)


def cross_check(d_lo: int, d_hi: int) -> list[FlexReport]:
    """Reports for d in [d_lo, d_hi]; raises ValueError on a bad range."""
    _require_positive(d_lo)
    if d_hi < d_lo:
        raise ValueError(f"empty range [{d_lo}, {d_hi}]")
    return [flex_report(d) for d in range(d_lo, d_hi + 1)]

