"""Schubert calculus on the Grassmannian of codimension-2 subspaces of P^g.

For g = d + 1 the Grassmannian G of codimension-2 linear subspaces of
projective g-space has dimension 2d.  Its integral cohomology has a basis
of Schubert classes s_(a,b) indexed by partitions with d >= a >= b >= 0,
i.e. two-row Young diagrams confined to a 2 x d box.  Writing r1, r2 for
the Chern roots of the rank-2 quotient bundle, s_(a,b) is the Schur
polynomial s_(a,b)(r1, r2), and the two multiplicative generators are

    sigma1 = s_(1,0) = r1 + r2      (hyperplane class, degree 1)
    sigma2 = s_(1,1) = r1 * r2      (point class, degree 2)

Multiplication by either generator acts on the basis by adding boxes
(the Pieri rule), with any diagram that leaves the 2 x d box discarded:

    sigma1 * s_(a,b) = s_(a+1,b) + s_(a,b+1)
    sigma2 * s_(a,b) = s_(a+1,b+1)

Integration over G extracts the coefficient of the top class s_(d,d).
The integral of a pure monomial sigma1^m * sigma2^n of top degree
(m + 2n = 2d) has the closed form m! / ((m/2)! (m/2+1)!), a Catalan
number; monomial_integral implements it.

A class of degree k is one graded piece, kept as a plain list x of
length k//2 + 1: x[b] is the coefficient of s_(k-b, b).  _sigma1_step
applies the sigma1 Pieri rule to one piece with no box: a first row only
grows, so the box only picks which coefficients are read (in the box d,
x[b] where k - b <= d; after degree 2d the integral is x[d]).
_sigma1_column walks it from s_(0,0), an independent route to the
monomial integrals.
"""

from __future__ import annotations

from math import factorial, perm
from operator import add

from .exact import _exact_div_short, _require_at_least


def monomial_integral(m: int, n: int, d: int) -> int:
    """Integral of sigma1^m * sigma2^n over the box-d Grassmannian.

    Requires top degree m + 2n = 2d; the value is
    m! / ((m/2)! (m/2 + 1)!) and m is forced even by the degree constraint.
    It is the falling factorial perm(m, m/2) = m!/(m/2)! over (m/2 + 1)!, one
    division at the size of its quotient: nd_factorial's root, as both are C(m/2).
    """
    _require_at_least(d, 1)
    _require_at_least(m, 0, "m")
    _require_at_least(n, 0, "n")
    if m + 2 * n != 2 * d:
        raise ValueError(f"degree {m} + 2*{n} != 2*{d}, not a top-degree monomial")
    h = m // 2
    return _exact_div_short(perm(m, h), factorial(h + 1))


# Private: bench/tracer.py spans public functions, and d = 1..D walk 2D steps.
def _sigma1_step(x: list[int], k: int) -> list[int]:
    """sigma1 * sum_b x[b] * s_(k-b, b), returned the same way in degree k + 1.

    x[b] is the coefficient of s_(k-b, b) for b = 0..k//2, with no box: Pieri
    adds a box to the first row always and to the second row while b < k - b.
    """
    # y[b] = x[b] (first row) + x[b - 1] (second row), a 0 standing for x[m] at the
    # square s_(m, m) an odd k = 2m - 1 reaches; map stops at b = (k + 1) // 2,
    # so for even k the square x[k // 2] gets no second-row box.
    return [x[0], *map(add, x[1:] + [0] if k & 1 else x[1:], x)]


_walk: tuple[list[int], tuple[int, ...]] = ([1], (1,))  # last piece (degree 2J), column[: J + 1]


def _sigma1_column(D: int) -> tuple[int, ...]:
    """Coefficients of s_(j,j) in sigma1^(2j), j = 0..D, off the process's walk from
    s_(0,0).  A longer request extends its last piece two steps per j and replaces it
    in one assignment, so an interrupt leaves it valid.  The walk is never released:
    its piece and column, 2D + 2 integers of up to 2D bits, hold 1.45 MB under
    tracemalloc at D = 2000 and 5.5 MB at D = 4000."""
    global _walk
    piece, column = _walk
    if D >= len(column):
        column = list(column)
        for j in range(len(column), D + 1):
            piece = _sigma1_step(_sigma1_step(piece, 2 * j - 2), 2 * j - 1)
            column.append(piece[-1])
        _walk = piece, tuple(column)
    return _walk[1][: D + 1]
