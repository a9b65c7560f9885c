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
number; monomial_integral implements it and the iterated Pieri operators
provide an independent route to the same numbers.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, NamedTuple

from .exact import exact_div


class BoxPartition(NamedTuple):
    """Two-row partition (a, b); valid inside box d when d >= a >= b >= 0."""

    a: int
    b: int

    def degree(self) -> int:
        return self.a + self.b

    def in_box(self, d: int) -> bool:
        return d >= self.a >= self.b >= 0


class SchubertElement:
    """Integer linear combination of Schubert classes inside a 2 x d box.

    Immutable in practice: all operations return new elements.  Zero
    coefficients are never stored.
    """

    __slots__ = ("box", "terms")

    def __init__(self, box: int, terms: dict[BoxPartition, int] | None = None):
        if box < 1:
            raise ValueError(f"box size must be positive, got {box}")
        self.box = box
        clean: dict[BoxPartition, int] = {}
        for key, coef in (terms or {}).items():
            part = BoxPartition(*key)
            if not part.in_box(box):
                raise ValueError(f"partition {part} outside 2 x {box} box")
            if coef:
                clean[part] = clean.get(part, 0) + coef
        self.terms = {p: c for p, c in clean.items() if c}

    @classmethod
    def one(cls, box: int) -> "SchubertElement":
        """The fundamental class s_(0,0)."""
        return cls(box, {BoxPartition(0, 0): 1})

    @classmethod
    def basis(cls, box: int, a: int, b: int) -> "SchubertElement":
        return cls(box, {BoxPartition(a, b): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, a: int, b: int) -> int:
        return self.terms.get(BoxPartition(a, b), 0)

    def items(self) -> Iterator[tuple[BoxPartition, int]]:
        return iter(sorted(self.terms.items()))

    def degrees(self) -> set[int]:
        """Set of degrees a + b present with nonzero coefficient."""
        return {p.degree() for p in self.terms}

    def pieri_sigma1(self) -> "SchubertElement":
        """Multiply by sigma1: add one box to either row, stay in the box."""
        d = self.box
        out: dict[BoxPartition, int] = {}
        for (a, b), coef in self.terms.items():
            if a + 1 <= d:
                key = BoxPartition(a + 1, b)
                out[key] = out.get(key, 0) + coef
            if b + 1 <= a:
                key = BoxPartition(a, b + 1)
                out[key] = out.get(key, 0) + coef
        return SchubertElement(d, out)

    def mul_sigma2(self) -> "SchubertElement":
        """Multiply by sigma2: add a full column, stay in the box."""
        d = self.box
        out: dict[BoxPartition, int] = {}
        for (a, b), coef in self.terms.items():
            if a + 1 <= d:
                key = BoxPartition(a + 1, b + 1)
                out[key] = out.get(key, 0) + coef
        return SchubertElement(d, out)

    def integrate(self) -> int:
        """Coefficient of the top class s_(d,d)."""
        return self.terms.get(BoxPartition(self.box, self.box), 0)

    def __add__(self, other: "SchubertElement") -> "SchubertElement":
        if not isinstance(other, SchubertElement):
            return NotImplemented
        if self.box != other.box:
            raise ValueError(f"box mismatch: {self.box} vs {other.box}")
        merged = dict(self.terms)
        for part, coef in other.terms.items():
            merged[part] = merged.get(part, 0) + coef
        return SchubertElement(self.box, merged)

    def __rmul__(self, scalar: int) -> "SchubertElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return SchubertElement(self.box, {p: scalar * c for p, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchubertElement):
            return NotImplemented
        return self.box == other.box and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"SchubertElement(box={self.box}, 0)"
        body = " + ".join(f"{c}*s_({p.a},{p.b})" for p, c in sorted(self.terms.items()))
        return f"SchubertElement(box={self.box}, {body})"


def monomial_integral(m: int, n: int, d: int) -> int:
    """Integral of sigma1^m * sigma2^n over the box-d Grassmannian.

    Requires top degree m + 2n = 2d; the value is
    m! / ((m/2)! (m/2 + 1)!) and m is forced even by the degree constraint.
    """
    if d < 1:
        raise ValueError(f"box size must be positive, got {d}")
    if m < 0 or n < 0:
        raise ValueError(f"negative exponents ({m}, {n})")
    if m + 2 * n != 2 * d:
        raise ValueError(f"degree {m} + 2*{n} != 2*{d}, not a top-degree monomial")
    h = m // 2
    return exact_div(factorial(m), factorial(h) * factorial(h + 1))
