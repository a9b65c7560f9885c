"""A short walk in the cohomology ring of a small Grassmannian.

The ring is generated by sigma1 (hyperplane class) and sigma2 (point
class); both act on the two-row Schur basis by adding boxes.  Everything
here happens inside the 2 x d box, classes that grow out of it vanish.
A class of degree k is one graded piece, a list x with x[b] the
coefficient of s_(k-b, b), which is how the package's Pieri step holds it.
The step has no box: a first row only grows, so a diagram that leaves the
box never comes back, and the box only decides which coefficients count.
"""

from flexk3 import catalan, monomial_integral
from flexk3.schubert import _sigma1_step

d = 3


def show(x: list[int], k: int) -> str:
    x = [c if k - b <= d else 0 for b, c in enumerate(x)]  # s_(k-b, b) outside the box is 0
    body = " + ".join(f"{c}*s_({k - b},{b})" for b, c in reversed(list(enumerate(x))) if c)
    return f"{x} = {body or 0}"


print(f"Box size d = {d} (Grassmannian dimension {2 * d})")
print()

x = [1]
print("start:", show(x, 0))
for k in range(2 * d):
    x = _sigma1_step(x, k)
    print(f"after sigma1 ^ {k + 1}:", show(x, k + 1))

print()
print("The top coefficient after 2d steps is the degree of the Grassmannian")
print(f"in its Pluecker embedding, the Catalan number C({d}) = {catalan(d)}:")
print("  top coefficient x[d]:", x[d])
print("  monomial_integral(2d, 0, d):", monomial_integral(2 * d, 0, d))

print()
print("sigma2 adds a full column, so sigma2^n = s_(n,n) and d columns fill the box:")
for n in range(d + 1):
    print(f"  sigma2^{n}:", show([0] * n + [1], 2 * n))
print("  top coefficient of sigma2^d:", ([0] * d + [1])[d])

print()
print("Mixed monomials of top degree, Pieri steps from sigma2^n vs closed form:")
for n in range(d + 1):
    m = 2 * d - 2 * n
    x = [0] * n + [1]
    for k in range(2 * n, 2 * d):
        x = _sigma1_step(x, k)
    print(f"  sigma1^{m} sigma2^{n}: pieri={x[d]}  formula={monomial_integral(m, n, d)}")
