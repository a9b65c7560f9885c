"""Truncated graded polynomials in Z[s1, s2] with deg s1 = 1, deg s2 = 2.

A GradedBivariate keeps coefficients of s1^m * s2^n only for total degree
m + 2n up to a fixed cap; every ring operation truncates back to the cap.
Storage is dense and triangular: rows[n][m] holds the coefficient of
s1^m * s2^n, with row n having length cap - 2n + 1.

The total Chern class of the bundle whose top-degree behaviour we
integrate over the Grassmannian is

    c = (1 - s1)^(4d+2) / (1 - s1 + s2)^(d+2)

where s1, s2 stand for the Schubert generators sigma1, sigma2.  Only its
degree-(2d-1) part is ever read, and chern_total(d) builds just that part
from explicit binomial coefficients, in O(d^2) bigint operations.  Building
the whole degree-2d table in this ring (repeated squaring and a graded
inverse) costs O(d^4 log d); GradedBivariate stays as the general ring and
as the oracle the tests hold chern_total against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .exact import binomial


class GradedBivariate:
    """Dense triangular coefficient table for a degree-capped polynomial."""

    __slots__ = ("cap", "rows")

    def __init__(self, cap: int, monomials: dict[tuple[int, int], int] | None = None):
        """Build from a {(m, n): coefficient} dict; entries beyond cap are rejected."""
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        self.cap = cap
        self.rows: list[list[int]] = [[0] * (cap - 2 * n + 1) for n in range(cap // 2 + 1)]
        for (m, n), coef in (monomials or {}).items():
            if m < 0 or n < 0:
                raise ValueError(f"negative exponents ({m}, {n})")
            if m + 2 * n > cap:
                raise ValueError(f"monomial s1^{m}*s2^{n} exceeds cap {cap}")
            self.rows[n][m] += coef

    @classmethod
    def zero(cls, cap: int) -> "GradedBivariate":
        return cls(cap)

    @classmethod
    def one(cls, cap: int) -> "GradedBivariate":
        return cls(cap, {(0, 0): 1})

    def coefficient(self, m: int, n: int) -> int:
        """Coefficient of s1^m * s2^n; zero outside the stored triangle."""
        if m < 0 or n < 0 or m + 2 * n > self.cap:
            return 0
        return self.rows[n][m]

    def monomials(self) -> Iterator[tuple[int, int, int]]:
        """Yield (m, n, coefficient) for nonzero entries, ordered by (n, m)."""
        for n, row in enumerate(self.rows):
            for m, coef in enumerate(row):
                if coef:
                    yield m, n, coef

    def graded_part(self, k: int) -> list[tuple[int, int, int]]:
        """Nonzero terms of total degree exactly k, as (m, n, coefficient).

        Ordered lexicographically in (n, m); k must not exceed the cap.
        """
        if k < 0 or k > self.cap:
            raise ValueError(f"degree {k} outside [0, {self.cap}]")
        part = []
        for n in range(k // 2 + 1):
            m = k - 2 * n
            coef = self.rows[n][m]
            if coef:
                part.append((m, n, coef))
        return part

    def _require_same_cap(self, other: "GradedBivariate") -> None:
        if self.cap != other.cap:
            raise ValueError(f"cap mismatch: {self.cap} vs {other.cap}")

    def __add__(self, other: "GradedBivariate") -> "GradedBivariate":
        if not isinstance(other, GradedBivariate):
            return NotImplemented
        self._require_same_cap(other)
        out = GradedBivariate(self.cap)
        for n, row in enumerate(self.rows):
            orow = out.rows[n]
            brow = other.rows[n]
            for m in range(len(row)):
                orow[m] = row[m] + brow[m]
        return out

    def __neg__(self) -> "GradedBivariate":
        out = GradedBivariate(self.cap)
        for n, row in enumerate(self.rows):
            out.rows[n] = [-c for c in row]
        return out

    def __sub__(self, other: "GradedBivariate") -> "GradedBivariate":
        if not isinstance(other, GradedBivariate):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "GradedBivariate") -> "GradedBivariate":
        """Product truncated at the cap."""
        if not isinstance(other, GradedBivariate):
            return NotImplemented
        self._require_same_cap(other)
        cap = self.cap
        out = GradedBivariate(cap)
        for n1, row1 in enumerate(self.rows):
            budget1 = cap - 2 * n1
            for m1 in range(budget1 + 1):
                c1 = row1[m1]
                if not c1:
                    continue
                budget2 = budget1 - m1
                for n2 in range(budget2 // 2 + 1):
                    row2 = other.rows[n2]
                    orow = out.rows[n1 + n2]
                    for m2 in range(budget2 - 2 * n2 + 1):
                        c2 = row2[m2]
                        if c2:
                            orow[m1 + m2] += c1 * c2
        return out

    def power(self, k: int) -> "GradedBivariate":
        """k-th power by repeated squaring, k >= 0."""
        if k < 0:
            raise ValueError(f"negative power {k}")
        result = GradedBivariate.one(self.cap)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def invert(self) -> "GradedBivariate":
        """Multiplicative inverse in the truncated ring.

        Requires constant term 1, which keeps every coefficient of the
        inverse an integer: in degree k the relation (p * q)_k = 0 solves
        for q_k with no division.
        """
        if self.rows[0][0] != 1:
            raise ValueError(f"constant term must be 1 to invert, got {self.rows[0][0]}")
        cap = self.cap
        inv = GradedBivariate.one(cap)
        for k in range(1, cap + 1):
            for n in range(k // 2 + 1):
                m = k - 2 * n
                acc = 0
                # sum over p-monomials of positive degree times known inv terms
                for pn in range(n + 1):
                    prow = self.rows[pn]
                    qrow = inv.rows[n - pn]
                    for pm in range(m + 1):
                        if pn == 0 and pm == 0:
                            continue
                        pc = prow[pm]
                        if pc:
                            qc = qrow[m - pm]
                            if qc:
                                acc += pc * qc
                inv.rows[n][m] = -acc
        return inv

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedBivariate):
            return NotImplemented
        return self.cap == other.cap and self.rows == other.rows

    def __repr__(self) -> str:
        terms = [f"{c}*s1^{m}*s2^{n}" for m, n, c in self.monomials()]
        body = " + ".join(terms) if terms else "0"
        return f"GradedBivariate(cap={self.cap}, {body})"


@lru_cache(maxsize=None)
def chern_total(d: int) -> tuple[tuple[int, int, int], ...]:
    """Degree-(2d-1) part of (1 - s1)^(4d+2) / (1 - s1 + s2)^(d+2).

    Returns the nonzero terms (m, n, coefficient) of s1^m * s2^n with
    m + 2n = 2d - 1, ordered by n.  The numerator gives s1^i the
    coefficient (-1)^i C(4d+2, i); expanding the denominator as a series
    in s1 - s2 gives s1^a * s2^n the coefficient

        (-1)^n C(a+n+d+1, d+1) C(a+n, n) = (-1)^n (a+n+d+1)! / ((d+1)! a! n!),

    so each coefficient is one convolution over a, with the second factor
    stepped along a by an exact division.  Cached: both intersection
    routes read the same part.
    """
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    top = 2 * d - 1
    numerator = [(-1) ** i * binomial(4 * d + 2, i) for i in range(top + 1)]
    terms = []
    for n in range(d):
        m = top - 2 * n
        series = (-1) ** n * binomial(n + d + 1, n)  # the a = 0 coefficient
        coef = 0
        for a in range(m + 1):
            coef += numerator[m - a] * series
            series = series * (a + n + d + 2) // (a + 1)
        if coef:
            terms.append((m, n, coef))
    return tuple(terms)
