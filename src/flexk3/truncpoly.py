"""The degree-(2d-1) part of the total Chern class, in closed form.

Routes 4 and 5 of flexdeg pair sigma1 against one graded part of

    c = (1 - s1)^(4d+2) / (1 - s1 + s2)^(d+2)

over the Grassmannian, where s1 (degree 1) and s2 (degree 2) stand for
the Schubert generators sigma1, sigma2.  That part has a closed form, one
product of two binomials per monomial, walked by its term ratio:
chern_total(d) costs one binomial and d - 1 asserted exact divisions,
each by an integer below 2^30 for d <= 23,170.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .exact import _require_at_least, exact_div


@lru_cache(maxsize=1)
def chern_total(d: int) -> tuple[int, ...]:
    """Degree-(2d-1) part of (1 - s1)^(4d+2) / (1 - s1 + s2)^(d+2).

    Returns (c_0, ..., c_{d-1}), c_n the coefficient of s1^(2d-1-2n) s2^n.
    Writing 1 - s1 + s2 = (1 - s1)(1 + s2/(1 - s1)),

        c = sum_n (-1)^n C(n+d+1, n) s2^n (1 - s1)^(3d-n),

    a polynomial in s1 for n <= d - 1, so
    c_n = (-1)^(n+1) C(n+d+1, n) C(3d-n, 2d-1-2n), nonzero since
    2d-1-2n <= 3d-n.  From c_0 = -C(3d, 2d-1), with b = 2d-1-2n, the ratio in
    lowest terms (n+d+2 cancels) is c_{n+1} = -c_n b(b-1) / ((n+1)(3d-n)), an
    asserted exact division by at most 2(d^2-1) < 2^30, one CPython digit, for
    d <= 23,170.  The last d is cached: flex_report reads it once per Chern route.
    """
    _require_at_least(d, 1)
    coefs = [-comb(3 * d, 2 * d - 1)]
    for n in range(d - 1):
        b = 2 * d - 1 - 2 * n
        coefs.append(exact_div(coefs[-1] * -(b * (b - 1)), (n + 1) * (3 * d - n)))
    return tuple(coefs)
