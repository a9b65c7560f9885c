"""Pieri rules on {(a, b): coef} dicts, a reference independent of the list step.

A dict maps a two-row partition (a, b), d >= a >= b >= 0, to the
coefficient of the Schubert class s_(a,b) in the 2 x d box; zero
coefficients are dropped, so the zero class is {}.
"""

from __future__ import annotations


def _collect(pairs) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for key, coef in pairs:
        out[key] = out.get(key, 0) + coef
    return {key: coef for key, coef in out.items() if coef}


def pieri_sigma1(terms: dict[tuple[int, int], int], d: int) -> dict[tuple[int, int], int]:
    """sigma1 * s_(a,b) = s_(a+1,b) + s_(a,b+1), dropping diagrams outside the box."""
    return _collect(
        ((a2, b2), coef)
        for (a, b), coef in terms.items()
        for a2, b2 in ((a + 1, b), (a, b + 1))
        if d >= a2 >= b2
    )


def mul_sigma2(terms: dict[tuple[int, int], int], d: int) -> dict[tuple[int, int], int]:
    """sigma2 * s_(a,b) = s_(a+1,b+1), dropping diagrams outside the box."""
    return _collect(((a + 1, b + 1), coef) for (a, b), coef in terms.items() if a < d)


def iterate(box: int, n_sigma2: int, m_sigma1: int) -> dict[tuple[int, int], int]:
    """Apply sigma2 n times, then sigma1 m times, to s_(0,0)."""
    terms = {(0, 0): 1}
    for _ in range(n_sigma2):
        terms = mul_sigma2(terms, box)
    for _ in range(m_sigma1):
        terms = pieri_sigma1(terms, box)
    return terms


def integrate(terms: dict[tuple[int, int], int], box: int) -> int:
    """Coefficient of the top class s_(d,d)."""
    return terms.get((box, box), 0)
